"""Degree-weight engine, its Maker/Breaker strategies, and the flooding Breaker."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diameter_games import Player
from diameter_games.degree_games import (
    RECOMPUTE_EVERY,
    DegreeWeightState,
    FloodingBreaker,
    MinDegStrategy,
    flood_degree_bound,
    flood_target,
    mindeg_params,
    mindeg_potential,
)
from diameter_games.game_core import (
    StrategyInapplicable,
    apply_claim,
    maker_graph,
    min_degree_exceeds,
    new_game,
    run_match,
)
from diameter_games.graph_metrics import degree_profile
from diameter_games.heuristics import RandomStrategy
from diameter_games.potential_engine import OpenPairs


class TestParams:
    """Sizing formulas, frozen against values computed once by hand."""

    def test_frozen_n100(self):
        p = mindeg_params(100, 1, 1)
        assert p.k == pytest.approx(45.522813881554384, rel=1e-12)
        assert p.lambda1 == pytest.approx(0.21459660262893476, rel=1e-12)
        assert p.lambda2 == pytest.approx(0.21459660262893474, rel=1e-12)
        assert p.d_max == pytest.approx(4.477186118445616, rel=1e-12)
        assert p.bias_precondition_ok
        assert p.non_vacuous
        assert p.t0_ok

    def test_frozen_n200_biased(self):
        p = mindeg_params(200, 2, 3)
        assert p.lambda2 == pytest.approx(0.148581029612, rel=1e-9)
        assert p.lambda1 == pytest.approx(0.090598122819, rel=1e-9)
        assert p.d_max == pytest.approx(-24.816940, rel=1e-6)
        # Negative degree floor: the guarantee is vacuous at this size.
        assert not p.non_vacuous

    def test_equal_bias_lambdas_coincide(self):
        # With a == b == 1 both rates solve the same equation.
        p = mindeg_params(50, 1, 1)
        assert p.lambda1 == pytest.approx(p.lambda2, rel=1e-9)

    def test_start_potential_below_one_when_sized(self):
        p = mindeg_params(100, 1, 1)
        assert math.exp(p.t0_log) < 1.0

    def test_log_rates_are_cached_bit_for_bit(self):
        p = mindeg_params(200, 2, 1)
        assert p.log1p_l1 == math.log1p(p.lambda1)
        assert p.log1m_l2 == math.log1p(-p.lambda2)
        assert {"log1p_l1", "log1m_l2"} <= set(vars(p))
        assert p == mindeg_params(200, 2, 1)

    def test_centering_constants(self):
        p = mindeg_params(100, 1, 1)
        assert p.c_self == pytest.approx(p.d_max)
        assert p.c_opp == pytest.approx(p.b * 100 / (p.a + p.b) + p.k)


class TestWeightState:
    def test_sync_matches_fresh_rebuild(self, rng):
        """Incremental observes equal a from-scratch rebuild on random play."""
        params = mindeg_params(12, 1, 1)
        state = new_game(12, 1, 1)
        tracker = DegreeWeightState(params, Player.MAKER)
        for _ in range(20):
            pool = sorted(state.unclaimed)
            if not pool:
                break
            apply_claim(state, state.to_move, [rng.choice(pool)])
        tracker.sync(state)
        fresh = DegreeWeightState(params, Player.MAKER)
        fresh.sync(state)
        np.testing.assert_allclose(tracker.log_w, fresh.log_w, rtol=1e-9)
        assert tracker.potential() == pytest.approx(fresh.potential(), rel=1e-9)

    def test_rewound_log_rebuilds_to_fresh(self):
        params = mindeg_params(6, 1, 1)
        state = new_game(6, 1, 1)
        tracker = DegreeWeightState(params, Player.MAKER)
        apply_claim(state, Player.MAKER, [(0, 1)])
        apply_claim(state, Player.BREAKER, [(0, 2)])
        tracker.sync(state)
        rewound = new_game(6, 1, 1)
        apply_claim(rewound, Player.MAKER, [(3, 4)])
        tracker.sync(rewound)
        fresh = DegreeWeightState(params, Player.MAKER)
        fresh.sync(rewound)
        np.testing.assert_array_equal(tracker.log_w, fresh.log_w)
        np.testing.assert_array_equal(tracker.deg_self, fresh.deg_self)
        np.testing.assert_array_equal(tracker.deg_opp, fresh.deg_opp)
        assert tracker.select_turn(rewound, 1) == fresh.select_turn(rewound, 1)

    def test_rewind_past_recompute_cadence_is_bit_identical(self, rng):
        n = 50
        state = new_game(n, 1, 1)
        while not state.is_exhausted():
            apply_claim(state, state.to_move, [rng.choice(sorted(state.unclaimed))])
        prefix = RECOMPUTE_EVERY + 76
        assert prefix < len(state.move_log)
        params = mindeg_params(n, 1, 1)
        tracker = DegreeWeightState(params, Player.MAKER)
        tracker.sync(state)
        rewound = new_game(n, 1, 1)
        for player, edge in state.move_log[:prefix]:
            apply_claim(rewound, player, [edge])
        tracker.sync(rewound)
        fresh = DegreeWeightState(params, Player.MAKER)
        fresh.sync(rewound)
        np.testing.assert_array_equal(tracker.log_w, fresh.log_w)

    def test_select_prefers_low_self_degree(self):
        # After Maker saturates vertex 0, its weight drops; the next pick
        # should avoid 0 entirely.
        params = mindeg_params(6, 1, 1)
        state = new_game(6, 1, 1)
        for w in (1, 2, 3):
            apply_claim(state, Player.MAKER, [(0, w)])
            state.to_move = Player.MAKER  # keep feeding Maker turns
        tracker = DegreeWeightState(params, Player.MAKER)
        tracker.sync(state)
        (u, v) = tracker.select_turn(state, 1)[0]
        assert 0 not in (u, v)

    def test_select_prefers_opponent_pressured_vertices(self):
        params = mindeg_params(6, 1, 1)
        state = new_game(6, 1, 1)
        state.to_move = Player.BREAKER
        apply_claim(state, Player.BREAKER, [(4, 5)])
        tracker = DegreeWeightState(params, Player.MAKER)
        tracker.sync(state)
        (u, v) = tracker.select_turn(state, 1)[0]
        # Vertices 4 and 5 carry opponent degree, hence the largest weights;
        # the edge between them is gone, so exactly one endpoint shows up.
        assert len({u, v} & {4, 5}) == 1

    def test_lex_tie_break_on_fresh_board(self):
        tracker = DegreeWeightState(mindeg_params(8, 1, 1))
        state = new_game(8, 1, 1)
        assert tracker.select_turn(state, 1) == [(0, 1)]
        assert tracker.select_turn(state, 3) == [(0, 1), (2, 3), (4, 5)]

    def test_exclude_masks_earlier_picks(self):
        tracker = DegreeWeightState(mindeg_params(8, 1, 1))
        assert tracker.select_turn(new_game(8, 1, 1), 1, exclude=((0, 1),))[0] != (0, 1)

    def test_select_does_not_mutate_state(self):
        tracker = DegreeWeightState(mindeg_params(8, 1, 1))
        before = tracker.log_w.copy()
        tracker.select_turn(new_game(8, 1, 1), 4)
        np.testing.assert_array_equal(tracker.log_w, before)

    def test_select_truncates_at_board_end(self):
        tracker = DegreeWeightState(mindeg_params(3, 1, 1))
        assert len(tracker.select_turn(new_game(3, 1, 1), 10)) == 3


def _reference_select_turn(tracker, state, count, exclude=()):
    """DegreeWeightState.select_turn as an n x n score matrix: w[u] + w[v] on
    open pairs, -inf elsewhere, a row-major argmax per pick, and the two
    picked rows and columns rescored after the endpoints' weights fade."""
    lw = tracker.log_w
    w = np.exp(lw - lw.max())
    fade = math.exp(tracker.params.log1m_l2)
    n = state.n
    blocked = np.ones((n, n), dtype=bool)
    for u, v in state.unclaimed:
        blocked[u, v] = blocked[v, u] = False
    for u, v in exclude:
        blocked[u, v] = True
        blocked[v, u] = True
    score = np.where(blocked, -np.inf, w[:, None] + w[None, :])
    picks = []
    for _ in range(count):
        flat = int(np.argmax(score))
        u, v = divmod(flat, tracker.params.n)
        if score[u, v] == -np.inf:
            break
        picks.append((u, v) if u < v else (v, u))
        blocked[u, v] = True
        blocked[v, u] = True
        w[u] *= fade
        w[v] *= fade
        for x in (u, v):
            score[x, :] = np.where(blocked[x], -np.inf, w[x] + w)
            score[:, x] = score[x, :]
    return picks


def _take(w, exclude=()):
    """One OpenPairs pick on the empty K_n, n = len(w), with `exclude` masked."""
    n = len(w)
    return OpenPairs(new_game(n, 1, 1), np.full(n, n - 1), exclude).take(w)


class TestSelectTurnMatchesMatrix:
    """The best-open-pair pick equals the n x n score matrix's at every turn."""

    @pytest.mark.parametrize("role", [Player.MAKER, Player.BREAKER])
    @pytest.mark.parametrize("first", [Player.MAKER, Player.BREAKER])
    @pytest.mark.parametrize("n,a,b,seed", [(12, 1, 1, 0), (30, 2, 1, 1), (45, 1, 3, 2), (60, 2, 2, 3)])
    def test_every_turn_of_a_seeded_game(self, role, first, n, a, b, seed, kept_order_checked):
        rng = random.Random(seed)
        own, opp = (a, b) if role is Player.MAKER else (b, a)
        tracker = DegreeWeightState(mindeg_params(n, own, opp), role)
        state = new_game(n, a, b, first=first)
        turns = 0
        while state.unclaimed:
            side = state.to_move
            count = state.required_claim_count(side)
            if side is role:
                tracker.sync(state)
                pool = sorted(state.unclaimed)
                # The composite path: edges an earlier subgame took this
                # turn, plus now and then one already claimed.
                exclude = tuple(rng.sample(pool, min(len(pool) - 1, rng.randint(1, 3))))
                if state.move_log and rng.random() < 0.3:
                    exclude += (state.move_log[-1][1],)
                for ex in ((), exclude):
                    want = _reference_select_turn(tracker, state, count, ex)
                    assert tracker.select_turn(state, count, ex) == want, (len(state.move_log), ex)
                picks = tracker.select_turn(state, count)
                turns += 1
            else:
                picks = rng.sample(sorted(state.unclaimed), count)
            apply_claim(state, side, picks)
        assert turns > 0
        assert kept_order_checked[0] > turns

    def test_rounding_tie_picks_lowest_partner(self):
        """1 + (1 + 2^-52) rounds to 2.0, so (0, 1) and (0, 2) tie at 2.0 and
        the row-major first is (0, 1), not vertex 0's largest-weight partner."""
        w = np.array([1.0, 1.0, 1.0 + 2**-52])
        assert 1.0 + w[2] == 2.0 and w[2] > w[1]
        open_ = ~np.eye(3, dtype=bool)
        score = np.where(open_, w[:, None] + w[None, :], -np.inf)
        assert divmod(int(np.argmax(score)), 3) == (0, 1)
        assert _take(w) == (0, 1)
        assert _take(w, [(0, 1)]) == (0, 2)
        assert _take(w, [(0, 1), (0, 2), (1, 2)]) is None

    def test_rounding_tie_in_the_first_row_scanned(self):
        """Row 0 is scanned first; 1 + (1 - 2^-53) rounds to 2.0 = 1 + 1, so its
        lowest tied partner is 1, not 2, its largest-weight partner."""
        w = np.array([1.0, 1.0 - 2**-53, 1.0])
        assert w[0] + w[1] == w[0] + w[2] == 2.0
        open_ = ~np.eye(3, dtype=bool)
        score = np.where(open_, w[:, None] + w[None, :], -np.inf)
        assert divmod(int(np.argmax(score)), 3) == (0, 1)
        assert _take(w) == (0, 1)

    def test_dropped_vertices_are_never_picked(self):
        assert _take(np.array([5.0, -np.inf, 1.0, 1.0])) == (0, 2)
        assert _take(np.full(4, -np.inf)) is None


class TestPotentialDecay:
    @pytest.mark.parametrize("role", [Player.MAKER, Player.BREAKER])
    def test_greedy_round_never_raises_potential(self, role):
        """The weight player's full turn compensates any opponent round."""
        n = 20
        params = mindeg_params(n, 1, 1)
        rng = random.Random(99)
        state = new_game(n, 1, 1, first=role)
        tracker = DegreeWeightState(params, role)
        last = None
        while state.unclaimed:
            side = state.to_move
            if side is role:
                tracker.sync(state)
                apply_claim(state, side, tracker.select_turn(
                    state, state.required_claim_count(side)))
            else:
                pool = sorted(state.unclaimed)
                apply_claim(state, side, rng.sample(
                    pool, state.required_claim_count(side)))
                value = mindeg_potential(state, params, role)
                if last is not None:
                    assert value <= last * (1 + 1e-9)
                last = value


def test_flood_degree_bound_values():
    assert flood_degree_bound(6, 1, 1) == 2
    assert flood_degree_bound(8, 2, 2) == 3
    assert flood_degree_bound(100, 1, 1) == 49
    assert flood_degree_bound(7, 3, 1) == 4


@pytest.mark.parametrize("n,a,b,reached", [(6, 2, 1, 3), (7, 3, 1, 4), (8, 2, 2, 3)])
def test_target_first_maker_reaches_flood_bound(n, a, b, reached):
    """Forward play attains the cap: Maker opens on the matching (0,1),(2,3),...
    away from the target, then claims target edges before any other edge."""
    state = new_game(n, a, b)
    breaker = FloodingBreaker()
    apply_claim(state, Player.MAKER, [(2 * i, 2 * i + 1) for i in range(a)])
    target = flood_target(state)
    assert target == 2 * a
    while state.unclaimed:
        side = state.to_move
        if side is Player.BREAKER:
            apply_claim(state, side, breaker.select(state))
        else:
            pool = sorted(state.unclaimed, key=lambda e: (target not in e, e))
            apply_claim(state, side, pool[: state.required_claim_count(side)])
    assert sum(1 for e in state.maker_edges if target in e) == reached
    assert flood_degree_bound(n, a, b) == reached


class TestFloodTarget:
    def test_lowest_untouched_vertex(self):
        state = new_game(6, 1, 1)
        apply_claim(state, Player.MAKER, [(0, 2)])
        assert flood_target(state) == 1

    def test_snapshot_uses_first_breaker_turn(self):
        # Maker later touches vertex 1, but the target was fixed earlier.
        state = new_game(6, 1, 1)
        apply_claim(state, Player.MAKER, [(0, 2)])
        apply_claim(state, Player.BREAKER, [(3, 4)])
        apply_claim(state, Player.MAKER, [(1, 2)])
        assert flood_target(state) == 1

    def test_all_touched_raises(self):
        state = new_game(2, 1, 1)
        apply_claim(state, Player.MAKER, [(0, 1)])
        with pytest.raises(StrategyInapplicable):
            flood_target(state)


class TestFloodingBreaker:
    def test_fast_path_matches_reference(self, rng):
        """A reused instance and a fresh one agree along random forward play."""
        for trial in range(8):
            trial_rng = random.Random(trial)
            state = new_game(9, 2, 2)
            breaker = FloodingBreaker()
            while state.unclaimed:
                side = state.to_move
                if side is Player.BREAKER:
                    expected = FloodingBreaker().select(state)
                    got = breaker.select(state)
                    assert got == expected, f"trial {trial}, log {len(state.move_log)}"
                    apply_claim(state, side, got)
                else:
                    pool = sorted(state.unclaimed)
                    apply_claim(state, side, trial_rng.sample(
                        pool, state.required_claim_count(side)))

    def test_cursor_resets_on_rewind(self):
        state = new_game(7, 1, 1)
        breaker = FloodingBreaker()
        apply_claim(state, Player.MAKER, [(2, 3)])
        first = breaker.select(state)
        apply_claim(state, Player.BREAKER, first)
        apply_claim(state, Player.MAKER, [(4, 5)])
        breaker.select(state)
        # A strictly shorter log means the position was rewound; cursors
        # must reset and reproduce the original pick.
        state2 = new_game(7, 1, 1)
        apply_claim(state2, Player.MAKER, [(2, 3)])
        again = breaker.select(state2)
        assert first == again

    def test_holds_degree_bound_against_random_maker(self):
        n, a, b = 10, 1, 1
        bound = flood_degree_bound(n, a, b)
        for seed in range(10):
            state = new_game(n, a, b)
            tr = run_match(
                state,
                RandomStrategy(random.Random(seed)),
                FloodingBreaker(),
                min_degree_exceeds(bound),
                seed=seed,
                early_stop=False,
            )
            target = flood_target(state)
            deg = degree_profile(maker_graph(state)).degrees[target]
            assert deg <= bound
            assert tr.winner is Player.BREAKER


class TestMinDegStrategy:
    def test_flags_on_bad_sizing(self):
        # Tiny n with huge bias violates the sizing precondition.
        s = MinDegStrategy(10, 8, 1)
        assert "mindeg-bias-precondition-failed" in s.flags

    def test_no_flags_when_sized(self):
        s = MinDegStrategy(100, 1, 1)
        assert s.flags == []

    def test_wins_mindeg_against_random(self):
        """Maker keeps every degree above the guarantee floor at n=100."""
        n = 100
        params = mindeg_params(n, 1, 1)
        floor = int(params.d_max)
        assert params.non_vacuous
        for seed in (0, 1):
            state = new_game(n, 1, 1)
            tr = run_match(
                state,
                MinDegStrategy(n, 1, 1),
                RandomStrategy(random.Random(seed)),
                min_degree_exceeds(floor),
                seed=seed,
                early_stop=False,
            )
            assert tr.winner is Player.MAKER, f"seed {seed}"


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=5, max_value=30),
    a=st.integers(min_value=1, max_value=3),
    b=st.integers(min_value=1, max_value=3),
)
def test_params_scale_sanely(n, a, b):
    p = mindeg_params(n, a, b)
    assert p.lambda2 > 0
    assert p.lambda1 > 0
    assert 0 < p.k
    assert p.d_max < a * n / (a + b)
