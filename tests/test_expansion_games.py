"""Expansion subgame: family construction, the closed-form start sum, and the greedy Maker."""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diameter_games import Player, exp_condition, exp_maker_select, has_expansion
from diameter_games.exact_solver import verify_final_property
from diameter_games.expansion_games import (
    ExpMaker,
    _exp_maker,
    _layout,
    exp_family,
    exp_family_count,
    exp_start_value_closed_form,
)
from diameter_games.game_core import (
    InvalidParameters,
    all_edges,
    apply_claim,
    diameter_at_most,
    maker_graph,
    new_game,
    run_match,
)
from diameter_games.graph_metrics import closed_masks, expansion_of_closed
from diameter_games.heuristics import RandomStrategy
from diameter_games.potential_engine import FamilyTooLarge


class TestCondition:
    def test_frozen_case_c_example(self):
        c = exp_condition(8, 2, 3, 1, 1)
        assert not c.case_a and not c.case_b and not c.case_c
        assert not c.maker_win
        assert c.family_size == 560

    def test_known_maker_wins(self):
        # Frozen from a parameter sweep: strong Maker bias forces a win.
        assert exp_condition(4, 1, 3, 1, 1).maker_win
        assert exp_condition(4, 2, 2, 2, 1).maker_win
        assert exp_condition(6, 2, 3, 2, 1).maker_win
        assert exp_condition(6, 3, 3, 4, 1).maker_win

    def test_case_a_scales_with_bias(self):
        # 2b ln n < r ln(a+1): grows with a, shrinks with b.
        big_a = exp_condition(10, 3, 3, 15, 1)
        assert big_a.case_a
        assert not exp_condition(10, 3, 3, 1, 4).case_a

    def test_r_le_s_is_reported_not_enforced(self):
        c = exp_condition(8, 3, 2, 1, 1)
        assert not c.r_le_s

    def test_rejects_oversized_pair(self):
        with pytest.raises(InvalidParameters):
            exp_condition(5, 3, 3, 1, 1)


class TestFamily:
    def test_count_formula(self):
        assert exp_family_count(6, 1, 2) == 6 * math.comb(5, 2)
        # r == s: unordered pairs are halved.
        assert exp_family_count(6, 2, 2) == math.comb(6, 2) * math.comb(4, 2) // 2

    @pytest.mark.parametrize("n,r,s", [(5, 1, 1), (5, 1, 2), (6, 2, 2), (6, 2, 3)])
    def test_generated_size_matches_count(self, n, r, s):
        fam = exp_family(n, r, s)
        assert len(fam.sets) == exp_family_count(n, r, s)
        assert fam.universe_size == n * (n - 1) // 2

    def test_hyperedges_are_crossing_edge_sets(self):
        fam = exp_family(4, 1, 2)
        edges = all_edges(4)
        # R={0}, S={1,2}: crossing edges (0,1) and (0,2), positions 0 and 1.
        expected = frozenset({edges.index((0, 1)), edges.index((0, 2))})
        assert expected in set(fam.sets)
        assert all(len(h) == 2 for h in fam.sets)

    def test_cap_enforced_before_enumeration(self):
        with pytest.raises(FamilyTooLarge) as exc:
            exp_family(30, 5, 5, cap=1000)
        assert exc.value.count == exp_family_count(30, 5, 5)

    def test_unordered_dedup_when_r_equals_s(self):
        fam = exp_family(5, 2, 2)
        assert len(fam.sets) == len(set(fam.sets))


class TestClosedForm:
    """The product formula must equal the generic surviving-set sum."""

    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("r,s", [(1, 1), (1, 2), (2, 2)])
    @pytest.mark.parametrize("a,b", [(1, 1), (2, 1), (1, 2), (3, 2)])
    def test_matches_direct_sum(self, n, r, s, a, b):
        if r + s > n:
            pytest.skip("infeasible pair")
        fam = exp_family(n, r, s)
        direct = sum((1 + a) ** (-len(h) / b) for h in fam.sets)
        closed = exp_start_value_closed_form(n, r, s, a, b)
        assert closed == pytest.approx(direct, rel=1e-9)

    def test_log_space_survives_extreme_exponents(self):
        v = exp_start_value_closed_form(8, 3, 3, 63, 0.01)
        assert v >= 0.0 and math.isfinite(v)


class TestExpMaker:
    def test_rejects_bad_setup(self):
        with pytest.raises(InvalidParameters):
            ExpMaker(6, 2, 2, maker_bias=0, virtual_b=1.0)
        with pytest.raises(InvalidParameters):
            ExpMaker(6, 2, 2, maker_bias=1, virtual_b=0.0)

    def test_first_pick_kills_heaviest_position(self):
        # On a fresh board every position weighs the same; lex wins.
        maker = ExpMaker(5, 1, 1, maker_bias=1, virtual_b=1.0)
        state = new_game(5, 1, 1)
        assert maker.select(state) == [(0, 1)]

    def test_prefers_nearly_lost_hyperedge(self):
        # Opponent whittles a hyperedge down to one unclaimed position; its
        # weight spikes and Maker must take the survivor.
        maker = ExpMaker(4, 2, 2, maker_bias=1, virtual_b=1.0)
        state = new_game(4, 1, 3)
        state.to_move = Player.BREAKER
        # Hyperedge for R={0,1}, S={2,3}: edges (0,2),(0,3),(1,2),(1,3).
        apply_claim(state, Player.BREAKER, [(0, 2), (0, 3), (1, 2)])
        pick = maker.select(state)
        assert pick == [(1, 3)]

    def test_rewound_log_rebuilds_to_fresh(self):
        maker = ExpMaker(5, 1, 2, maker_bias=1, virtual_b=1.0)
        state = new_game(5, 1, 1)
        apply_claim(state, Player.MAKER, [(0, 1)])
        apply_claim(state, Player.BREAKER, [(2, 3)])
        maker.select(state)
        rewound = new_game(5, 1, 1)
        apply_claim(rewound, Player.MAKER, [(1, 4)])
        fresh = ExpMaker(5, 1, 2, maker_bias=1, virtual_b=1.0)
        assert maker.select(rewound) == fresh.select(rewound)

    def test_one_shot_helper_matches_fresh_instance(self):
        params = exp_condition(6, 2, 2, 2, 1)
        state = new_game(6, 2, 1)
        apply_claim(state, Player.MAKER, [(0, 1), (2, 3)])
        apply_claim(state, Player.BREAKER, [(0, 2)])
        fresh = ExpMaker(6, 2, 2, maker_bias=2, virtual_b=1)
        assert exp_maker_select(state, params) == fresh.select(state)

    def test_one_shot_helper_raises_on_every_call(self):
        """Bad parameters raise at each call, before and after a good call
        on the same cell, and the good pick does not change."""
        params = exp_condition(6, 2, 2, 2, 1)
        state = new_game(6, 2, 1)
        bad = [
            (replace(params, b=0.0), InvalidParameters),
            (replace(params, s=5), InvalidParameters),
            (replace(params, n=40, r=5, s=5), FamilyTooLarge),
        ]
        pick = exp_maker_select(state, params)
        for _ in range(2):
            for wrong, error in bad:
                with pytest.raises(error):
                    exp_maker_select(state, wrong)
            assert exp_maker_select(state, params) == pick

    @pytest.mark.parametrize("seed", range(5))
    def test_achieves_expansion_against_random(self, seed):
        """Where the win condition holds, greedy play delivers the property."""
        n, r, s, a, b = 6, 2, 3, 2, 1
        assert exp_condition(n, r, s, a, b).maker_win
        maker = ExpMaker(n, r, s, maker_bias=a, virtual_b=b)
        state = new_game(n, a, b)
        run_match(
            state,
            maker,
            RandomStrategy(random.Random(seed)),
            diameter_at_most(99),  # property irrelevant; play to exhaustion
            seed=seed,
            early_stop=False,
        )
        assert has_expansion(maker_graph(state), r, s)


def _picks_through_seeded_game(makers, n, a, b, seed):
    """Each maker's select() at every Maker turn of one random game, asked in turn."""
    state = new_game(n, a, b)
    rng = random.Random(seed)
    picks = [[] for _ in makers]
    while state.unclaimed:
        player = state.to_move
        if player is Player.MAKER:
            for maker, out in zip(makers, picks):
                out.append(maker.select(state))
        count = state.required_claim_count(player)
        apply_claim(state, player, rng.sample(sorted(state.unclaimed), count))
    return picks


def _reference_exp_pick(state, family, virtual_b):
    """exp_maker_select's greedy, recomputed from the ownership sets on an enumerated family."""
    edges = all_edges(state.n)
    maker = {i for i, e in enumerate(edges) if e in state.maker_edges}
    breaker = {i for i, e in enumerate(edges) if e in state.breaker_edges}
    log_base = math.log(1 + state.a)
    weights = [
        0.0 if h & maker else math.exp(-len(h - breaker) / virtual_b * log_base)
        for h in family.sets
    ]
    picked: list[int] = []
    for _ in range(state.required_claim_count(Player.MAKER)):
        score: dict[int, float] = {}
        for h, w in zip(family.sets, weights):
            if w == 0.0 or not h.isdisjoint(picked):
                continue
            for pos in h:
                if edges[pos] in state.unclaimed:
                    score[pos] = score.get(pos, 0.0) + w
        if score:
            picked.append(min(score, key=lambda pos: (-score[pos], pos)))
            continue
        free = [i for i, e in enumerate(edges) if e in state.unclaimed and i not in picked]
        if not free:
            break
        picked.append(free[0])
    return [edges[pos] for pos in picked]


@pytest.mark.parametrize(
    "n,r,s,a,virtual_b",
    [
        (7, 2, 3, 2, 2.75),  # D2Maker's E / (2 n r) - 2 is fractional
        (6, 2, 2, 1, 0.6875),
        (7, 1, 5, 3, 0.004),  # hyperedges with three or more free edges weigh 0.0
    ],
)
def test_exp_maker_select_matches_reference_at_fractional_bias(n, r, s, a, virtual_b):
    params = exp_condition(n, r, s, a, virtual_b)
    family = exp_family(n, r, s)
    for seed in range(4):
        state = new_game(n, a, 1)
        rng = random.Random(seed)
        while state.unclaimed:
            player = state.to_move
            if player is Player.MAKER:
                assert exp_maker_select(state, params) == _reference_exp_pick(state, family, virtual_b), seed
            count = state.required_claim_count(player)
            apply_claim(state, player, rng.sample(sorted(state.unclaimed), count))


class _Scripted:
    name = "scripted"

    def __init__(self, select_fn):
        self.select = select_fn


def _verify_cell(n, r, s, a, b, select):
    """verify_final_property on one expansion cell, `select` playing the scripted Maker."""

    def predicate(snap):
        return expansion_of_closed(closed_masks(n, snap.maker_edges), r, s)

    def prune(maker, breaker, unclaimed, log):
        if expansion_of_closed(closed_masks(n, maker), r, s):
            return True
        if not expansion_of_closed(closed_masks(n, maker | unclaimed), r, s):
            return False
        return None

    return verify_final_property(n, a, b, _Scripted(select), Player.MAKER, predicate, prune=prune)


class TestSharedLayout:
    """ExpMakers on one (n, r, s) share a cached layout and nothing else."""

    def test_interleaved_makers_pick_as_when_alone(self):
        n, r, s, a, b = 7, 2, 3, 2, 2
        biases = [(1, 0.25), (4, 40.0)]

        def maker(maker_bias, virtual_b):
            return ExpMaker(n, r, s, maker_bias=maker_bias, virtual_b=virtual_b)

        for seed in range(3):
            alone = []
            for bias in biases:
                _layout.cache_clear()
                alone += _picks_through_seeded_game([maker(*bias)], n, a, b, seed)
            _layout.cache_clear()
            together = _picks_through_seeded_game([maker(*bias) for bias in biases], n, a, b, seed)
            assert together == alone, seed
            assert together[0] != together[1]  # the biases do steer the picks apart

    def test_small_cap_raises_after_cache_is_filled(self):
        n, r, s = 6, 2, 2
        count = exp_family_count(n, r, s)
        ExpMaker(n, r, s, maker_bias=1, virtual_b=1.0)
        with pytest.raises(FamilyTooLarge) as exc:
            ExpMaker(n, r, s, maker_bias=1, virtual_b=1.0, cap=count - 1)
        assert exc.value.count == count
        ExpMaker(n, r, s, maker_bias=1, virtual_b=1.0, cap=count)

    @pytest.mark.parametrize("n,r,s,a,b", [(6, 2, 4, 3, 3), (6, 3, 3, 1, 1)])
    def test_one_shot_helper_matches_reference_on_every_node(self, n, r, s, a, b):
        """A criterion-07 cell, with the scripted Maker checked wherever the verifier asks it."""
        params = exp_condition(n, r, s, a, b)
        family = exp_family(n, r, s)
        calls = 0

        def script(state):
            nonlocal calls
            calls += 1
            pick = exp_maker_select(state, params)
            assert pick == _reference_exp_pick(state, family, b)
            return pick

        assert _verify_cell(n, r, s, a, b, script)
        assert calls > 100

    def test_one_shot_helper_builds_one_maker_per_cell(self):
        """A whole verification of one criterion-07 cell builds its ExpMaker once."""
        n, r, s, a, b = 6, 2, 4, 3, 3
        params = exp_condition(n, r, s, a, b)
        _exp_maker.cache_clear()
        calls = 0

        def script(state):
            nonlocal calls
            calls += 1
            return exp_maker_select(state, params)

        assert _verify_cell(n, r, s, a, b, script)
        assert calls > 100
        info = _exp_maker.cache_info()
        assert (info.misses, info.hits) == (1, calls - 1)

    @pytest.mark.parametrize("seed", range(3))
    def test_one_shot_helper_picks_as_fresh_makers_on_a_seeded_line(self, seed):
        n, r, s, a, b = 7, 2, 3, 2, 2
        params = exp_condition(n, r, s, a, b)
        cached = _Scripted(lambda state: exp_maker_select(state, params))
        fresh = _Scripted(lambda state: ExpMaker(n, r, s, maker_bias=a, virtual_b=b).select(state))
        _exp_maker.cache_clear()
        ours, theirs = _picks_through_seeded_game([cached, fresh], n, a, b, seed)
        assert ours == theirs
        assert _exp_maker.cache_info().misses == 1


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=8),
    a=st.integers(min_value=1, max_value=5),
    b=st.floats(min_value=0.25, max_value=4.0),
    data=st.data(),
)
def test_closed_form_is_monotone_in_bias(n, a, b, data):
    r = data.draw(st.integers(min_value=1, max_value=n - 1))
    s = data.draw(st.integers(min_value=1, max_value=n - r))
    weaker = exp_start_value_closed_form(n, r, s, a, b)
    stronger = exp_start_value_closed_form(n, r, s, a + 1, b)
    # A stronger Maker bias shrinks every hyperedge weight.
    assert stronger <= weaker * (1 + 1e-12)
