"""General-diameter strategies: stage sizing, ball-growing Maker, blocking Breakers."""

import hashlib
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diameter_games import Player
from diameter_games.diameter_d import (
    DdBreakerA1,
    DdBreakerA2,
    DdMaker,
    a1_blocking_invariant,
    block_budget,
    claim2_bound,
    claim2_check,
    claim2_f,
    dd_breaker_a1_biases,
    dd_breaker_a2_bias,
    dd_params,
)
from diameter_games.game_core import (
    GameState,
    InvalidParameters,
    all_edges,
    apply_claim,
    diameter_at_most,
    maker_graph,
    new_game,
    run_match,
)
from diameter_games.graph_metrics import dist, set_bits, spheres
from diameter_games.heuristics import DegreeGreedyStrategy, PathGreedyStrategy, RandomStrategy


class TestParams:
    def test_frozen_small_case(self):
        p = dd_params(1024, 4)
        assert p.half == 2
        assert p.beta == pytest.approx(14.310835055998654, rel=1e-12)
        assert p.b == pytest.approx(3.5777087639996634, rel=1e-12)
        assert p.r_values[0] == pytest.approx(1.0)
        # The small-n correction drags the second stage negative here; the
        # sizing only turns meaningful at much larger n.
        assert p.r_values[1] == pytest.approx(-45.863218449444126, rel=1e-9)
        assert not p.nontriv_ok
        assert not p.d_condition_ok

    def test_frozen_large_case(self):
        p = dd_params(2**30, 6)
        assert p.half == 3
        assert p.beta == pytest.approx(415.211656231144, rel=1e-12)
        assert p.b == pytest.approx(28733.453245034976, rel=1e-12)
        assert p.r_values[1] == pytest.approx(9402.694441361784, rel=1e-10)
        assert p.r_values[2] == pytest.approx(3880560.788103844, rel=1e-10)
        assert all(p.claim1_ok)

    def test_stage_count_is_half_d(self):
        for d in (3, 4, 5, 6, 7, 8):
            p = dd_params(10**6, d)
            assert p.half == math.ceil(d / 2)
            assert len(p.r_values) == p.half

    def test_first_stage_is_single_vertex(self):
        for d in (3, 5, 8):
            assert dd_params(10**5, d).r_values[0] == pytest.approx(1.0)

    def test_beta_solves_doubling_equation(self):
        # beta^half = 2 n ln 2 / ln n by construction.
        n, d = 2**20, 5
        p = dd_params(n, d)
        assert p.beta ** p.half == pytest.approx(
            2 * n * math.log(2) / math.log(n), rel=1e-9
        )

    def test_rejects_small_diameter(self):
        with pytest.raises(InvalidParameters):
            dd_params(100, 2)

    def test_envelope_only_meaningful_when_beta_large(self):
        # At beta barely above 36 the lower envelope still holds.
        p = dd_params(2**26, 6)
        assert p.beta > 36
        assert all(p.claim1_ok)


class TestBlockBudget:
    def test_frozen_values(self):
        assert block_budget(3, 3) == 8
        assert block_budget(4, 3) == 10
        assert block_budget(2, 3) == 6
        assert block_budget(3, 4) == 35

    def test_closed_form_equals_geometric_sum(self):
        # budget = 1 + sum_{k=0}^{d-2} (k+1) Delta^k, exactly.
        for delta in range(2, 8):
            for d in range(2, 7):
                direct = 1 + sum((k + 1) * delta**k for k in range(d - 1))
                assert block_budget(delta, d) == direct, (delta, d)

    def test_rejects_degenerate(self):
        with pytest.raises(InvalidParameters):
            block_budget(1, 3)
        with pytest.raises(InvalidParameters):
            block_budget(3, 1)


class TestClaim2:
    def test_frozen_values(self):
        assert claim2_f(2, 4, 1) == 18
        assert claim2_f(2, 4, 2) == 10
        assert claim2_bound(2, 4) == 18

    def test_symmetry_and_bound_hold_on_grid(self):
        for delta in range(2, 11):
            for m in range(2, 21):
                assert claim2_check(delta, m), (delta, m)

    def test_bound_is_the_k1_value(self):
        for delta in (2, 3, 5):
            for m in (2, 5, 9):
                assert claim2_bound(delta, m) == claim2_f(delta, m, 1)

    @settings(max_examples=60, deadline=None)
    @given(
        delta=st.integers(min_value=2, max_value=12),
        m=st.integers(min_value=2, max_value=24),
        k=st.integers(min_value=1, max_value=23),
    )
    def test_symmetry_property(self, delta, m, k):
        if k >= m:
            return
        assert claim2_f(delta, m, k) == claim2_f(delta, m, m - k)


class TestDdMaker:
    def test_r_sizes_validation(self):
        with pytest.raises(InvalidParameters):
            DdMaker(10, 4, 1, r_sizes=[2, 3])  # first stage must be one vertex
        with pytest.raises(InvalidParameters):
            DdMaker(10, 4, 1, r_sizes=[1, 2, 3])  # wrong stage count
        with pytest.raises(InvalidParameters):
            DdMaker(10, 4, 1, r_sizes=[1, 12])  # exceeds the board

    def test_annotation_describes_plan(self):
        maker = DdMaker(10, 4, 1, r_sizes=[1, 2])
        note = maker.annotations[0]
        assert note["stages"] == 2
        assert note["ball_sizes"] == [1, 2]
        assert note["effective_opponent_bias"] == 2 * 1

    def test_small_board_flags(self):
        maker = DdMaker(10, 4, 1, r_sizes=[1, 2])
        assert "dd-maker-d-regime-failed" in maker.flags
        # The final-stage inequality is marginal by construction and is
        # reported at every size.
        assert "dd-maker-last-ball-too-small" in maker.flags

    @pytest.mark.parametrize(
        "n,d,r_sizes", [(10, 4, [1, 2]), (12, 3, [1, 2]), (12, 5, [1, 2, 3])]
    )
    def test_wins_against_random(self, n, d, r_sizes):
        for seed in range(5):
            state = new_game(n, 1, 1)
            maker = DdMaker(n, d, 1, r_sizes=r_sizes)
            tr = run_match(
                state,
                maker,
                RandomStrategy(random.Random(seed)),
                diameter_at_most(d),
                seed=seed,
                early_stop=False,
            )
            assert tr.winner is Player.MAKER, f"n={n} d={d} seed={seed}"
            assert maker.violations == []


class TestA1Biases:
    def test_frozen_pair(self):
        assert dd_breaker_a1_biases(400, 3) == (139, 35)

    def test_blocker_share_is_quarter(self):
        b, b1 = dd_breaker_a1_biases(1000, 4)
        base = 4 ** (1 / 3) * 1000 ** (2 / 3)
        assert b == math.ceil(4.0 * base)
        assert b1 == math.ceil(base)

    def test_rejects_tiny_boards(self):
        with pytest.raises(InvalidParameters):
            dd_breaker_a1_biases(4, 3)


class TestDdBreakerA1:
    def _drive(self, n, d, maker, seed):
        b, b1 = dd_breaker_a1_biases(n, d)
        state = new_game(n, 1, b)
        breaker = DdBreakerA1(n, d, b1=b1)
        invariant_rounds = []

        def observer(st_):
            if breaker.anchor is not None and st_.to_move is Player.MAKER:
                u, v = breaker.anchor
                invariant_rounds.append(a1_blocking_invariant(st_, u, v, d))

        tr = run_match(
            state,
            maker,
            breaker,
            diameter_at_most(d),
            seed=seed,
            early_stop=False,
            round_observer=observer,
        )
        return state, breaker, tr, invariant_rounds

    def test_blocking_invariant_every_round(self):
        state, breaker, tr, inv = self._drive(
            60, 3, RandomStrategy(random.Random(0)), 0
        )
        assert inv and all(inv)
        assert tr.winner is Player.BREAKER

    def test_anchor_pair_ends_far_apart(self):
        state, breaker, _, _ = self._drive(60, 3, RandomStrategy(random.Random(1)), 1)
        u, v = breaker.anchor
        assert dist(maker_graph(state), u, v) > 3

    def test_anchor_disjoint_from_opener(self):
        state, breaker, _, _ = self._drive(60, 3, RandomStrategy(random.Random(2)), 2)
        opener = state.move_log[0][1]
        assert not (set(breaker.anchor) & set(opener))

    @pytest.mark.parametrize(
        "opener,anchor", [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((2, 3), (0, 1)), (None, (0, 1))]
    )
    def test_anchor_is_the_lowest_pair_off_the_opener(self, opener, anchor):
        """No opener when Breaker moves first: the anchor is then (0, 1)."""
        n, d = 60, 3
        b, _ = dd_breaker_a1_biases(n, d)
        breaker = DdBreakerA1(n, d)
        if opener is None:
            state = new_game(n, 1, b, first=Player.BREAKER)
        else:
            state = new_game(n, 1, b)
            apply_claim(state, Player.MAKER, [opener])
        picks = breaker.select(state)
        assert breaker.anchor == anchor
        assert picks[0] == anchor
        assert breaker.annotations[0]["anchor"] == list(anchor)

    def test_rejects_overlarge_blocker_share(self):
        with pytest.raises(InvalidParameters):
            DdBreakerA1(60, 3, b1=10**6)

    def test_flags_maker_bias_above_one(self):
        b, b1 = dd_breaker_a1_biases(60, 3)
        state = new_game(60, 2, b)
        breaker = DdBreakerA1(60, 3, b1=b1)
        run_match(
            state,
            RandomStrategy(random.Random(3)),
            breaker,
            diameter_at_most(3),
            seed=3,
            early_stop=False,
        )
        assert "dd-breaker-a1-maker-bias-not-one" in breaker.flags


def _reference_invariant(state, u, v, d):
    """The edge walk a1_blocking_invariant's mask test replaced: BFS
    distances from both anchors (n + 1 when unreachable), then every
    Maker edge checked in both orientations."""
    closed = state.closed(Player.MAKER)
    n = state.n

    def distances(src):
        out = [n + 1] * n
        for k, ring in enumerate(spheres(closed, src)):
            for x in set_bits(ring):
                out[x] = k
        return out

    du, dv = distances(u), distances(v)
    return all(du[p] + dv[q] >= d and du[q] + dv[p] >= d for p, q in state.maker_edges)


@st.composite
def _anchored_maker_graphs(draw):
    # From n = 5, DdBreakerA1's smallest board, on: the reference's n + 1
    # for unreachable vertices is only large enough while d <= n + 1.
    n = draw(st.integers(min_value=5, max_value=12))
    edges = draw(st.lists(st.sampled_from(all_edges(n)), unique=True))
    u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    return n, edges, u, v, draw(st.integers(min_value=3, max_value=5))


def _path(*vertices):
    return list(zip(vertices, vertices[1:]))


class TestA1BlockingInvariant:
    @settings(max_examples=400, deadline=None)
    @given(_anchored_maker_graphs())
    # anchors in different components
    @example((8, _path(0, 1, 2) + _path(3, 4, 5), 0, 5, 3))
    # a u..v path of length d: the balls meet
    @example((8, _path(0, 1, 2, 3), 0, 3, 3))
    @example((10, _path(0, 1, 2, 3, 4, 5), 5, 0, 5))
    # one step longer: the balls stay apart
    @example((8, _path(0, 1, 2, 3, 4), 0, 4, 3))
    def test_masks_match_the_edge_walk(self, case):
        n, edges, u, v, d = case
        state = GameState(n, 1, 1, Player.MAKER, maker_edges=edges)
        assert a1_blocking_invariant(state, u, v, d) == _reference_invariant(state, u, v, d)

    def test_anchors_apart_on_a_board_smaller_than_d(self):
        """No Maker walk joins 0 and 2, so the invariant holds; the edge
        walk's finite n + 1 = 4 for unreachable vertices said otherwise."""
        state = GameState(3, 1, 1, Player.MAKER, maker_edges=[(0, 1)])
        assert a1_blocking_invariant(state, 0, 2, 5)
        assert not _reference_invariant(state, 0, 2, 5)

    @pytest.mark.parametrize(
        "maker",
        [RandomStrategy(random.Random(7)), PathGreedyStrategy(3), DegreeGreedyStrategy()],
        ids=["random", "path-greedy", "degree-greedy"],
    )
    def test_masks_match_the_edge_walk_in_play(self, maker):
        """Every Breaker turn of one n = 60, d = 3 match: the anchor pair, and
        Maker's newest edge's lower end paired with every other vertex, so
        that both verdicts occur."""
        n, d = 60, 3
        b, _ = dd_breaker_a1_biases(n, d)
        breaker = DdBreakerA1(n, d)
        verdicts = set()

        class Audited:
            name = breaker.name

            def select(self, state):
                p = state.move_log[-1][1][0]
                pairs = [(p, y) for y in range(n) if y != p]
                if breaker.anchor is not None:
                    pairs.append(breaker.anchor)
                for u, v in pairs:
                    held = a1_blocking_invariant(state, u, v, d)
                    assert held == _reference_invariant(state, u, v, d), (u, v, len(state.move_log))
                    verdicts.add(held)
                return breaker.select(state)

        run_match(new_game(n, 1, b), maker, Audited(), diameter_at_most(d), early_stop=False)
        assert verdicts == {True, False}


# sha256 of the concatenated transcripts of _a1_matches(), recorded before
# DdBreakerA1 moved from edge sets to the board's masks.
A1_PICKS_SHA256 = "73823990b44ce620d8274893c15c998674f40469cd33a4edc0ae77ae722b055b"


def _a1_matches():
    for n, d in [(40, 3), (60, 3), (60, 4), (100, 3)]:
        b, _ = dd_breaker_a1_biases(n, d)
        for seed in range(3):
            for b1 in (None, 1, b - 1):
                for maker in (RandomStrategy(random.Random(seed)), PathGreedyStrategy(d), DegreeGreedyStrategy()):
                    yield run_match(
                        new_game(n, 1, b),
                        maker,
                        DdBreakerA1(n, d, b1=b1),
                        diameter_at_most(d),
                        seed=seed,
                        early_stop=False,
                    )


def test_dd_breaker_a1_picks_pinned():
    """(n, d) in {(40,3), (60,3), (60,4), (100,3)}, three seeds, the three
    shipped Makers, and the default capping share, b1 = 1 and b1 = b - 1."""
    digest = hashlib.sha256()
    overflowed = 0
    for tr in _a1_matches():
        digest.update(tr.to_jsonl().encode())
        overflowed += "breaker:dd-breaker-a1-blocking-budget-exceeded" in tr.flags
        assert tr.fault is None
    assert overflowed  # b1 = b - 1 leaves one blocking claim a turn, which some answers outgrow
    assert digest.hexdigest() == A1_PICKS_SHA256


# sha256 of the answers below, recorded while _blocking_claims still built
# a Python set of edges per ring.
A1_ANSWERS_SHA256 = "2399b667022c334c2011897d6632c565ea3770e157cc16450acf4757f368ffd5"


def test_blocking_answer_pinned_on_random_boards():
    """The blocking answer on boards no match reaches: random Maker and
    Breaker edges with the invariant broken, so one edge can come from two
    rings and must be claimed once, and budgets from 0 up, so the answer
    overflows."""
    rng = random.Random(2027)
    digest = hashlib.sha256()
    for _ in range(400):
        n, d = rng.randint(5, 12), rng.randint(3, 5)
        density = rng.choice((0.1, 0.25, 0.4))
        maker, breaker = [], []
        for e in all_edges(n):
            r = rng.random()
            if r < density:
                maker.append(e)
            elif r < density + 0.1:
                breaker.append(e)
        if not maker:
            continue
        state = GameState(n, 1, 1, Player.MAKER, maker_edges=maker, breaker_edges=breaker)
        strategy = DdBreakerA1(n, d)
        strategy.anchor = tuple(rng.sample(range(n), 2))
        out = strategy._blocking_claims(state, rng.choice(maker), rng.choice((0, 1, 3, 10**9)))
        assert len(set(out)) == len(out) and all(e in state.unclaimed for e in out)
        digest.update(repr((out, strategy.flags)).encode())
    assert digest.hexdigest() == A1_ANSWERS_SHA256


class TestDdBreakerA2:
    def test_frozen_bias(self):
        assert dd_breaker_a2_bias(40, 3) == 47
        assert dd_breaker_a2_bias(400, 3) == 218

    def test_wins_with_big_bias(self):
        n, d = 40, 3
        b = dd_breaker_a2_bias(n, d)
        for seed in range(3):
            state = new_game(n, 2, b)
            breaker = DdBreakerA2(n, d)
            tr = run_match(
                state,
                RandomStrategy(random.Random(seed)),
                breaker,
                diameter_at_most(d),
                seed=seed,
                early_stop=False,
            )
            assert tr.winner is Player.BREAKER

    def test_flags_low_maker_bias(self):
        n, d = 40, 3
        state = new_game(n, 1, dd_breaker_a2_bias(n, d))
        breaker = DdBreakerA2(n, d)
        run_match(
            state,
            RandomStrategy(random.Random(0)),
            breaker,
            diameter_at_most(d),
            seed=0,
            early_stop=False,
        )
        assert "dd-breaker-a2-maker-bias-below-two" in breaker.flags
