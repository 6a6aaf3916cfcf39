"""Diameter-2 strategies: pairing, saturate-and-box Breaker, composite Maker."""

import hashlib
import math
import random

import pytest

from diameter_games import PairingBreaker, Player
from diameter_games.degree_games import flood_target
from diameter_games.diameter2 import (
    D2Breaker,
    D2Maker,
    D2SimpleMaker,
    _ConnectPair,
    d2_breaker_params,
    d2_maker_bias_bound,
    d2_maker_min_scale,
    d2_maker_params,
    game4_lambda,
)
from diameter_games.game_core import (
    GameState,
    InvalidParameters,
    StrategyInapplicable,
    apply_claim,
    diameter_at_most,
    maker_graph,
    mk_edge,
    new_game,
    run_match,
)
from diameter_games.graph_metrics import diameter
from diameter_games.heuristics import RandomStrategy


class TestPairing:
    def test_needs_four_vertices(self):
        state = new_game(3, 1, 1)
        apply_claim(state, Player.MAKER, [(0, 1)])
        with pytest.raises(StrategyInapplicable):
            PairingBreaker().select(state)

    def test_anchor_avoids_maker_opener(self):
        state = new_game(5, 1, 1)
        apply_claim(state, Player.MAKER, [(0, 1)])
        picks = PairingBreaker().select(state)
        assert picks == [(2, 3)]

    def test_wedge_response(self):
        state = new_game(5, 1, 1)
        apply_claim(state, Player.MAKER, [(0, 1)])
        apply_claim(state, Player.BREAKER, [(2, 3)])  # anchor u=2, v=3
        apply_claim(state, Player.MAKER, [(2, 4)])  # Maker starts route 2-4-3
        picks = PairingBreaker().select(state)
        assert picks == [(3, 4)]

    def test_response_to_other_anchor_endpoint(self):
        state = new_game(5, 1, 1)
        apply_claim(state, Player.MAKER, [(0, 1)])
        apply_claim(state, Player.BREAKER, [(2, 3)])
        apply_claim(state, Player.MAKER, [(0, 3)])  # touches v=3 via 0
        picks = PairingBreaker().select(state)
        assert picks == [(0, 2)]

    def test_irrelevant_maker_move_falls_back_to_lex(self):
        state = new_game(6, 1, 1)
        apply_claim(state, Player.MAKER, [(0, 1)])
        apply_claim(state, Player.BREAKER, [(2, 3)])
        apply_claim(state, Player.MAKER, [(4, 5)])  # touches neither anchor
        picks = PairingBreaker().select(state)
        assert picks == [(0, 2)]

    def test_keeps_anchor_pair_apart_in_play(self):
        for seed in range(8):
            state = new_game(6, 1, 1)
            run_match(
                state,
                RandomStrategy(random.Random(seed)),
                PairingBreaker(),
                diameter_at_most(2),
                seed=seed,
                early_stop=False,
            )
            anchor = next(e for p, e in state.move_log if p is Player.BREAKER)
            g = maker_graph(state)
            from diameter_games.graph_metrics import dist

            assert dist(g, *anchor) > 2, f"seed {seed}"


class TestSimpleMaker:
    def test_precondition_flag(self):
        m = D2SimpleMaker(20, 1, 1)  # a == b violates a > b
        assert "d2-simple-precondition-failed" in m.flags

    def test_annotation_carries_target(self):
        m = D2SimpleMaker(50, 2, 1)
        note = m.annotations[0]
        assert note["degree_target"] == 25
        assert "degree_guarantee" in note

    def test_wins_diameter2_against_random(self):
        # a=2 vs b=1 at n=40: degree floor clears n/2 comfortably.
        for seed in range(3):
            state = new_game(40, 2, 1)
            tr = run_match(
                state,
                D2SimpleMaker(40, 2, 1),
                RandomStrategy(random.Random(seed)),
                diameter_at_most(2),
                seed=seed,
                early_stop=False,
            )
            assert diameter(maker_graph(state)) <= 2, f"seed {seed}"
            assert tr.winner is Player.MAKER


class TestBreakerParams:
    def test_frozen_n10000(self):
        p = d2_breaker_params(10000, 0.1)
        assert p.b == 70
        assert p.r_prime_max == 143
        assert p.worst_t == 288
        assert p.box_rhs_worst == pytest.approx(316.2331919285692, rel=1e-12)
        assert p.box_condition_ok

    def test_frozen_n100_worst_case_fails(self):
        p = d2_breaker_params(100, 0.1)
        assert p.b == 10
        assert not p.box_condition_ok

    def test_bias_formula(self):
        for n, eps in [(100, 0.1), (400, 0.2), (2500, 0.05)]:
            p = d2_breaker_params(n, eps)
            assert p.b == math.ceil((2 + eps) * math.sqrt(n / math.log(n)))


class TestD2Breaker:
    def _drive(self, n, seed, maker=None):
        state = new_game(n, 1, d2_breaker_params(n, 0.1).b)
        breaker = D2Breaker(n)
        tr = run_match(
            state,
            maker or RandomStrategy(random.Random(seed)),
            breaker,
            diameter_at_most(2),
            seed=seed,
            early_stop=False,
        )
        return state, breaker, tr

    def test_saturates_target_before_phase2(self):
        state, breaker, _ = self._drive(60, 0)
        note = breaker.annotations[0]
        t = note["target_vertex"]
        # After the freeze, no edge at the target may be unclaimed; the
        # final position can only have fewer.
        open_at_t = [e for e in state.unclaimed if t in e]
        assert open_at_t == []

    def test_wins_at_moderate_size(self):
        for seed in range(3):
            state, breaker, tr = self._drive(80, seed)
            assert tr.winner is Player.BREAKER
            assert diameter(maker_graph(state)) > 2

    def test_annotation_fields(self):
        _, breaker, _ = self._drive(50, 2)
        note = breaker.annotations[0]
        for key in (
            "target_vertex",
            "maker_neighbors_at_saturation",
            "eligible_boxes",
            "max_box_size",
            "boxes_pre_completed",
            "phase1_rounds",
            "box_condition_exact_ok",
        ):
            assert key in note
        assert note["eligible_boxes"] >= 0

    def test_no_violations_recorded(self):
        _, breaker, tr = self._drive(60, 3)
        assert breaker.violations == []
        assert tr.violations == []

    def test_every_vertex_touched_floods_lowest_maker_degree(self):
        """Maker's opening touches all six vertices, so there is no untouched
        target; Breaker floods vertex 1, the lowest of Maker degree 1."""
        state = new_game(6, 4, 4)
        apply_claim(state, Player.MAKER, [(0, 1), (0, 2), (2, 3), (4, 5)])
        breaker = D2Breaker(6)
        assert breaker.select(state) == [(1, 2), (1, 3), (1, 4), (1, 5)]
        assert "d2-breaker-no-untouched-vertex" in breaker.flags


class BoxContestingMaker:
    """Maker who floods D2Breaker's target too, then fights its box game.

    Until flood_target(state) has no open edge, Maker claims its lowest
    open edge, so the target ends with many Maker neighbours and the boxes
    are large.  Then Maker enters the live box (no Maker edge to the
    target's neighbours, some edge still open) with the most Breaker edges,
    ties to the lower x, at its lowest open edge; with no live box left,
    the lowest open edge of the board.
    """

    name = "box-contesting-maker"

    def select(self, state):
        maker, breaker = state.closed(Player.MAKER), state.closed(Player.BREAKER)
        t = flood_target(state)
        at_t = ((1 << state.n) - 1) & ~(maker[t] | breaker[t])
        if at_t:
            return [mk_edge(t, (at_t & -at_t).bit_length() - 1)]
        spokes = maker[t] & ~(1 << t)
        best = None
        for x in range(state.n):
            row = spokes & ~(maker[x] | breaker[x])
            if row and not maker[x] & spokes:
                key = (-(breaker[x] & spokes).bit_count(), x)
                if best is None or key < best[0]:
                    best = key, mk_edge(x, (row & -row).bit_length() - 1)
        return [best[1]] if best else state.lowest_open(1)


# sha256 of the concatenated transcripts below, recorded while D2Breaker
# still kept its boxes as edge sets.
BOX_GAME_SHA256 = "62fea7633523ab7c393c831744556260b8ef667259680f770fe69485da3c330f"


def test_d2_breaker_box_game_with_large_boxes():
    digest = hashlib.sha256()
    for n in (40, 60, 100, 150):
        breaker = D2Breaker(n)
        tr = run_match(
            new_game(n, 1, breaker.params.b),
            BoxContestingMaker(),
            breaker,
            diameter_at_most(2),
            early_stop=False,
        )
        assert tr.fault is None
        assert breaker.annotations[0]["max_box_size"] >= 2, n
        digest.update(tr.to_jsonl().encode())
    assert digest.hexdigest() == BOX_GAME_SHA256


class TestMakerParams:
    def test_frozen_scale_boundary(self):
        p7 = d2_maker_params(10**7)
        assert p7.all_ok
        p6 = d2_maker_params(10**6)
        assert not p6.all_ok
        assert not p6.cond3a_ok  # r outgrows s below the threshold scale

    def test_min_scale_pinned(self):
        assert d2_maker_min_scale() == 10**7

    def test_frozen_lambda(self):
        assert game4_lambda(2, 1) == 27 / 1024

    def test_default_bias_bound(self):
        n = 10**7
        assert d2_maker_bias_bound(n) == pytest.approx(
            n**0.125 / (9 * math.log(n) ** 0.375), rel=1e-12
        )

    def test_frozen_n1e7_values(self):
        p = d2_maker_params(10**7)
        assert p.r == pytest.approx(8977.21996248235, rel=1e-12)
        assert p.s == pytest.approx(11032.813358029633, rel=1e-12)
        assert p.virtual_b == pytest.approx(276.4826216187209, rel=1e-12)

    def test_rejects_degenerate(self):
        with pytest.raises(InvalidParameters):
            d2_maker_params(2)
        with pytest.raises(InvalidParameters):
            d2_maker_params(100, b=0)


class TestD2Maker:
    def test_wins_diameter2_small_board(self):
        for seed in range(4):
            state = new_game(30, 2, 1)
            maker = D2Maker(30, 1)
            tr = run_match(
                state,
                maker,
                RandomStrategy(random.Random(seed)),
                diameter_at_most(2),
                seed=seed,
            )
            assert tr.winner is Player.MAKER, f"seed {seed}"
            assert maker.violations == []

    @staticmethod
    def _on_board(maker_edges, breaker_edges, n=8):
        """A D2Maker holding, as inside select(), the closed masks of a board with these edges."""
        state = GameState(n=n, a=2, b=1, first=Player.MAKER, maker_edges=maker_edges, breaker_edges=breaker_edges)
        maker = D2Maker(n, 1)
        maker._mclosed = list(state.closed(Player.MAKER))
        maker._bclosed = state.closed(Player.BREAKER)
        return maker

    @pytest.mark.parametrize(
        "maker_edges, breaker_edges, pairs, action",
        [
            ([(0, 6), (0, 5)], [], [(0, 1)], (1, 5)),  # finish the lowest half-owned middle
            ([(0, 5), (1, 3)], [(1, 5)], [(0, 1)], (0, 3)),  # 5 is dead, so finish 3
            ([], [], [(0, 1)], (0, 1)),  # nothing half-owned: the direct edge
            ([], [(0, 1), (0, 2)], [(0, 1)], (0, 3)),  # direct edge gone: lowest fresh middle
            ([], [(0, x) for x in range(1, 8)], [(0, 1)], None),  # no middle left
            ([(0, 4), (1, 4)], [], [(0, 1)], None),  # satisfied through 4
            ([], [(2, 4)], [(0, 1), (2, 3)], (2, 3)),  # fewer middles first
        ],
    )
    def test_connect_claim_actions(self, maker_edges, breaker_edges, pairs, action):
        maker = self._on_board(maker_edges, breaker_edges)
        assert maker._connect_claim([_ConnectPair(u=u, w=w) for u, w in pairs]) == action

    def test_game4_potential_counts_live_middles(self):
        maker = self._on_board([(0, 5)], [(1, 2), (0, 3)])
        maker._g4_pairs = [_ConnectPair(u=0, w=1), _ConnectPair(u=6, w=7)]
        # (0, 1) keeps middles 4, 5, 6, 7; (6, 7) keeps all six others.
        step = maker._log1p_l4
        assert maker.game4_potential() == pytest.approx(math.exp(-4 * step) + math.exp(-6 * step))

    def test_game4_potential_defined_from_start(self):
        maker = D2Maker(30, 1)
        assert math.isfinite(maker.game4_potential())

    def test_small_board_flags_sizing(self):
        maker = D2Maker(30, 1)
        assert "d2-maker-sizing-conditions-failed" in maker.flags

    def test_bias_mismatch_flagged(self):
        state = new_game(30, 2, 3)
        maker = D2Maker(30, 1)  # built for b=1, game says 3
        run_match(
            state,
            maker,
            RandomStrategy(random.Random(0)),
            diameter_at_most(2),
            seed=0,
        )
        assert "d2-maker-bias-mismatch" in maker.flags
