"""Set-family games: weight-function Breaker, box-game Maker, exact arithmetic."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diameter_games import Player, box_maker_select, esb_breaker_select, family_from_sets
from diameter_games.game_core import GameState, InvalidParameters
from diameter_games.potential_engine import (
    OpenPairs,
    WinningSetFamily,
    box_game_condition,
    esb_potential,
    esb_start_value,
    family_apply_claim,
    family_pop_claims,
    greedy_potential_picks,
    harmonic,
    new_family_game,
    run_family_match,
    validate_box_family,
)


def pairs_family(k):
    """k pairwise disjoint 2-sets."""
    return family_from_sets(2 * k, [frozenset({2 * i, 2 * i + 1}) for i in range(k)])


def boxes(r, k):
    """k disjoint boxes of size r over [0, r*k)."""
    return family_from_sets(
        r * k, [frozenset(range(i * r, (i + 1) * r)) for i in range(k)]
    )


class TestFamilyBasics:
    def test_from_sets_normalizes(self):
        fam = family_from_sets(4, [{0, 1}, {2, 3}])
        assert all(isinstance(s, frozenset) for s in fam.sets)
        assert fam.universe_size == 4

    def test_rejects_out_of_range_positions(self):
        with pytest.raises(InvalidParameters):
            family_from_sets(3, [frozenset({0, 5})])

    @pytest.mark.parametrize("universe,sets", [
        ("3", [{0}]), (True, [{0}]), (3.0, [{0}]), (3, [{1.5}]), (3, [{True, 2}]), (3, [{"a"}]),
    ])
    def test_rejects_non_int_universe_and_positions(self, universe, sets):
        with pytest.raises(InvalidParameters):
            family_from_sets(universe, sets)

    def test_json_round_trip(self):
        fam = family_from_sets(5, [frozenset({0, 2}), frozenset({1, 3, 4})])
        back = WinningSetFamily.from_json(fam.to_json())
        assert back.universe_size == fam.universe_size
        assert set(back.sets) == set(fam.sets)

    def test_file_round_trip(self, tmp_path):
        fam = pairs_family(3)
        path = tmp_path / "fam.json"
        path.write_text(fam.to_json())
        back = WinningSetFamily.from_file(path)
        assert set(back.sets) == set(fam.sets)


class TestFamilyGame:
    def test_truncation(self):
        fam = pairs_family(1)  # universe of 2
        state = new_family_game(fam, 3, 1)
        family_apply_claim(state, Player.MAKER, [0, 1])
        assert state.maker_won()

    def test_turn_enforcement(self):
        state = new_family_game(pairs_family(2), 1, 1)
        with pytest.raises(InvalidParameters):
            family_apply_claim(state, Player.BREAKER, [0])

    def test_all_sets_dead(self):
        state = new_family_game(pairs_family(2), 1, 2)
        family_apply_claim(state, Player.MAKER, [0])
        family_apply_claim(state, Player.BREAKER, [1, 2])
        assert state.all_sets_dead()
        assert not state.maker_won()


    @pytest.mark.parametrize("first", [Player.MAKER, Player.BREAKER])
    def test_pop_claims_undoes_apply_claim(self, first):
        state = new_family_game(pairs_family(3), 2, 3, first=first)
        opener = [4, 1, 3][: state.required_claim_count(first)]
        family_apply_claim(state, first, opener)
        before = state.copy()
        reply = [0, 5, 2][: state.required_claim_count(first.other())]
        family_apply_claim(state, first.other(), reply)
        family_pop_claims(state, len(reply))
        assert state == before
        family_pop_claims(state, len(opener))
        assert state == new_family_game(pairs_family(3), 2, 3, first=first)

    def test_copy_shares_nothing_mutable(self):
        state = new_family_game(pairs_family(2), 1, 1)
        family_apply_claim(state, Player.MAKER, [0])
        clone = state.copy()
        assert clone == state
        family_apply_claim(clone, Player.BREAKER, [1])
        assert state.breaker == set() and state.move_log == [(Player.MAKER, 0)]
        assert state.to_move is Player.BREAKER


class TestStartValue:
    """Hand-computed criterion sums: k disjoint pairs at (1:1) weigh k/2."""

    def test_single_pair(self):
        start = esb_start_value(pairs_family(1), 1, 1)
        assert start.value == pytest.approx(0.5)
        assert start.breaker_wins

    def test_three_pairs(self):
        start = esb_start_value(pairs_family(3), 1, 1)
        assert start.value == pytest.approx(1.5)
        assert not start.breaker_wins

    def test_singleton_is_borderline(self):
        fam = family_from_sets(1, [frozenset({0})])
        start = esb_start_value(fam, 1, 1)
        assert start.value == pytest.approx(1.0)
        assert not start.breaker_wins

    def test_bias_dependence(self):
        # A 3-set at (1:2): (1+2)^(1-3) = 1/9.
        fam = family_from_sets(3, [frozenset({0, 1, 2})])
        assert esb_start_value(fam, 1, 2).value == pytest.approx(1 / 9)
        # Same set at (3:1): (1+1)^(1-1) = 1.
        assert esb_start_value(fam, 3, 1).value == pytest.approx(1.0)

    def test_rejects_bad_bias(self):
        with pytest.raises(InvalidParameters):
            esb_start_value(pairs_family(1), 0, 1)

    def test_huge_sets_stay_finite(self):
        # Sets past the direct-power limit go through log space.
        fam = family_from_sets(80, [frozenset(range(80))])
        v = esb_start_value(fam, 1, 1).value
        assert 0.0 < v < 1e-20
        assert math.isfinite(v)


class TestEsbBreaker:
    def test_potential_at_start_matches_criterion(self):
        # The start sum carries one extra (1+b) factor for Breaker's
        # first-round exposure; in-play weights drop it.
        for a, b in [(1, 1), (2, 1), (1, 3)]:
            fam = pairs_family(2)
            state = new_family_game(fam, a, b)
            expected = esb_start_value(fam, a, b).value / (1 + b)
            assert esb_potential(state) == pytest.approx(expected)

    def test_greedy_takes_heaviest_position(self):
        # Position 0 sits in two singleton-heavy sets; the greedy claim kills both.
        fam = family_from_sets(4, [frozenset({0, 1}), frozenset({0, 2}), frozenset({3})])
        state = new_family_game(fam, 1, 1, first=Player.BREAKER)
        picks = esb_breaker_select(state)
        assert picks == [3] or picks == [0]
        # The singleton {3} weighs 1.0, each pair 0.5 but they share position 0
        # which then carries 1.0; the tie breaks to the lowest index.
        assert picks == [0]

    def test_dead_sets_ignored(self):
        fam = family_from_sets(4, [frozenset({0, 1}), frozenset({2, 3})])
        state = new_family_game(fam, 1, 1)
        family_apply_claim(state, Player.MAKER, [0])
        # Breaker should hit the set Maker is one move from finishing.
        picks = esb_breaker_select(state)
        assert picks == [1]

    def test_winning_criterion_holds_up_in_play(self, rng):
        """Whenever the start sum is < 1, the greedy Breaker actually wins."""
        wins = 0
        for trial in range(60):
            fam = _random_family(random.Random(trial))
            start = esb_start_value(fam, 1, 1)
            if not start.breaker_wins:
                continue
            state = new_family_game(fam, 1, 1)
            trial_rng = random.Random(10_000 + trial)

            def random_maker(st_):
                picks = trial_rng.sample(
                    st_.unclaimed(), st_.required_claim_count(Player.MAKER)
                )
                return picks

            maker_won = run_family_match(state, random_maker, esb_breaker_select)
            assert not maker_won, f"trial {trial}: criterion promised a Breaker win"
            wins += 1
        assert wins >= 10  # the generator must exercise the criterion


def _random_family(rng):
    universe = rng.randint(4, 10)
    set_count = rng.randint(2, 5)
    sets = []
    for _ in range(set_count):
        size = rng.randint(2, min(5, universe))
        sets.append(frozenset(rng.sample(range(universe), size)))
    return family_from_sets(universe, sets)


def _reference_esb_pick(state):
    """The greedy ESB Breaker written set by set: every pick rescans every set
    and adds each surviving set's weight to its free positions in set order."""

    def power(base, exponent, set_size):
        if set_size > 64:
            return math.exp(exponent * math.log(base))
        return base**exponent

    count = state.required_claim_count(Player.BREAKER)
    picks: list[int] = []
    maker, breaker = state.maker, set(state.breaker)
    for _ in range(count):
        taken = maker | breaker | set(picks)
        best_pos, best_weight = -1, -1.0
        weights: dict[int, float] = {}
        for aset in state.family.sets:
            if aset & breaker or aset & set(picks):
                continue
            unclaimed = len(aset) - len(aset & maker)
            w = power(1.0 + state.b, -unclaimed / state.a, len(aset))
            for p in aset:
                if p not in taken:
                    weights[p] = weights.get(p, 0.0) + w
        for p in range(state.family.universe_size):
            if p in taken:
                continue
            w = weights.get(p, 0.0)
            if w > best_weight:
                best_pos, best_weight = p, w
        if best_pos < 0:
            break
        picks.append(best_pos)
    return picks


def _mixed_position(rng, universe, sizes, a, b, taken, maker_share):
    """A family of the given set sizes over `universe` positions, with `taken`
    positions already claimed, about `maker_share` of them by Maker."""
    sets = [frozenset(rng.sample(range(universe), size)) for size in sizes]
    state = new_family_game(family_from_sets(universe, sets), a, b)
    for p in rng.sample(range(universe), taken):
        (state.maker if rng.random() < maker_share else state.breaker).add(p)
    return state


class TestEsbBreakerMatchesReference:
    """esb_breaker_select picks exactly what the set-by-set greedy picks,
    float rounding and tie-breaks included."""

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_mixed_families(self, seed):
        rng = random.Random(seed)
        universe = rng.randint(2, 150)
        sizes = [rng.randint(1, universe) for _ in range(rng.randint(1, 14))]
        if universe > 65:
            sizes.append(rng.randint(65, universe))  # one log-space weight at least
        for taken in (0, universe // 3, universe - 1):
            state = _mixed_position(rng, universe, sizes, rng.randint(1, 3), rng.randint(1, 4), taken, 0.5)
            assert esb_breaker_select(state) == _reference_esb_pick(state)

    def test_equal_disjoint_sets_tie_to_lowest_position(self):
        state = new_family_game(boxes(3, 5), 2, 3)
        state.maker.update({4, 7})
        assert esb_breaker_select(state) == _reference_esb_pick(state) == [3, 6, 0]

    def test_scores_add_in_set_order(self):
        """Position 1 scores 0.5 + 2^-54 + 2^-54, which is 0.5 in set order and
        0.5 + 2^-53 in any order that adds the two small weights first."""
        tail = frozenset(range(1, 55))  # 54 free positions: weight 2^-54
        sets = [frozenset({0, 55}), frozenset({1, 56, 57}), tail, tail]
        state = new_family_game(family_from_sets(60, sets), 1, 1)
        state.maker.update({55, 56, 57})
        assert esb_breaker_select(state) == _reference_esb_pick(state) == [0]

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        universe=st.integers(min_value=1, max_value=140),
        size_draws=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=10),
        a=st.integers(min_value=1, max_value=3),
        b=st.integers(min_value=1, max_value=5),
        taken_share=st.floats(min_value=0.0, max_value=1.0),
        maker_share=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_hypothesis_mixed_families(self, seed, universe, size_draws, a, b, taken_share, maker_share):
        rng = random.Random(seed)
        sizes = [1 + int(x * (universe - 1)) for x in size_draws]
        taken = min(universe - 1, int(taken_share * universe))
        state = _mixed_position(rng, universe, sizes, a, b, taken, maker_share)
        assert esb_breaker_select(state) == _reference_esb_pick(state)


def _reference_greedy_picks(weights, incident, free, count):
    """The greedy loop as a per-position incidence scan: every pick scores each
    free position by adding the weights of all its sets, dead ones as 0.0, in
    set-index order, and zeroes the weights of the sets the pick hits."""
    weights = list(weights)
    free = list(free)
    picks = []
    for _ in range(min(count, len(free))):
        best, best_score = -1, -1.0
        for p in free:
            score = 0.0
            for i in incident[p]:
                score += weights[i]
            if score > best_score:
                best, best_score = p, score
        picks.append(best)
        free.remove(best)
        for i in incident[best]:
            weights[i] = 0.0
    return picks


def _both_greedy_loops(size, sets, weights, free, count):
    """The shared loop's picks on its live list, with the free positions in
    descending order (any order will do), and the reference's on the whole
    family; the two must agree."""
    incident = [[] for _ in range(size)]
    for i, aset in enumerate(sets):
        for p in sorted(aset):
            incident[p].append(i)
    live = [(w, tuple(aset)) for w, aset in zip(weights, sets) if w > 0.0]
    return greedy_potential_picks(live, size, free[::-1], count), _reference_greedy_picks(weights, incident, free, count)


# Set weights for the differential test: zeros, equal weights, a subnormal,
# and weights whose sums tie only after rounding (1 + 2^-53 rounds to 1).
_SET_WEIGHTS = (0.0, 0.0, 1.0, 1.0, 0.5, 2.0**-53, 2.0**-54, 1.0 - 2.0**-53, 5e-324)


class TestGreedyLoopMatchesIncidenceScan:
    """greedy_potential_picks on the live sets picks what the per-position
    incidence scan over every set picks, bit for bit."""

    @pytest.mark.parametrize("seed", range(60))
    def test_seeded_families(self, seed):
        rng = random.Random(seed)
        size = rng.randint(1, 40)
        sets = [frozenset(rng.sample(range(size), rng.randint(1, min(6, size)))) for _ in range(rng.randint(1, 30))]
        weights = [rng.choice(_SET_WEIGHTS) for _ in sets]
        free = sorted(rng.sample(range(size), rng.randint(1, size)))
        new, reference = _both_greedy_loops(size, sets, weights, free, rng.randint(1, 5))
        assert new == reference

    @pytest.mark.parametrize("seed", range(20))
    def test_weights_that_underflow(self, seed):
        """The expansion weight exp(-k / virtual_b * ln(1 + a)) at a tiny
        virtual_b: sets with many free positions weigh exactly 0.0."""
        rng = random.Random(seed)
        size = 24
        sets = [frozenset(rng.sample(range(size), rng.randint(1, 8))) for _ in range(40)]
        free = sorted(rng.sample(range(size), rng.randint(size // 2, size)))
        virtual_b, log_base = 0.002, math.log(2)
        weights = [math.exp(-len(aset & set(free)) / virtual_b * log_base) for aset in sets]
        assert 0.0 in weights and any(w > 0.0 for w in weights)
        new, reference = _both_greedy_loops(size, sets, weights, free, 4)
        assert new == reference

    def test_equal_weights_tie_to_lowest_position(self):
        sets = [frozenset({3, 4}), frozenset({1, 2}), frozenset({0, 5})]
        new, reference = _both_greedy_loops(6, sets, [0.5, 0.5, 0.5], list(range(6)), 3)
        assert new == reference == [0, 1, 3]

    def test_sums_that_tie_only_after_rounding(self):
        """Position 1 scores (1 + 2^-53) + 2^-53 = 1 in set order, tying
        position 0; adding the two small weights first would give 1 + 2^-52.
        The dead set between them adds nothing either way."""
        sets = [frozenset({0, 1}), frozenset({1}), frozenset({1, 2}), frozenset({1})]
        weights = [1.0, 2.0**-53, 0.0, 2.0**-53]
        new, reference = _both_greedy_loops(3, sets, weights, [0, 1, 2], 1)
        assert new == reference == [0]

    def test_no_live_set_takes_the_lowest_free_positions(self):
        new, reference = _both_greedy_loops(5, [frozenset({0, 1})], [0.0], [1, 3, 4], 2)
        assert new == reference == [1, 3]


# Weights that tie, and that round into ties: 1 + (1 - 2^-53) and
# 1 + (1 + 2^-52) both round to 2.0.
_TIE_WEIGHTS = (1.0, 1.0 - 2**-53, 1.0 + 2**-52, 0.5, 0.25, 2.0**-60, -math.inf)


def _play_turn(rng, w, open_, exclude):
    """Multi-pick turns through OpenPairs on the board whose open pairs are
    open_: take, then fade or recompute the two ends' weights, then take
    again.  Every pick equals the row-major first maximum of the dense score
    matrix over the open, unmasked pairs at that moment, and the kept order
    is a fresh stable argsort of the effective weights."""
    n = len(w)
    pairs_of_kn = {(u, v) for u in range(n) for v in range(u + 1, n)}
    unclaimed = {(u, v) for u, v in pairs_of_kn if open_[u, v]}
    state = GameState(n=n, a=1, b=1, first=Player.MAKER, maker_edges=pairs_of_kn - unclaimed)
    pairs = OpenPairs(state, open_.sum(axis=1), exclude)
    closed = ~open_
    for u, v in exclude:
        closed[u, v] = closed[v, u] = True
    for _ in range(rng.randint(1, 6)):
        score = np.where(closed, -np.inf, w[:, None] + w[None, :])
        flat = int(np.argmax(score))
        want = None if score.flat[flat] == -np.inf else divmod(flat, n)
        eff = np.where(pairs.open_deg > 0, w, -np.inf)
        assert pairs.take(w) == want
        assert pairs.order == np.argsort(-eff, kind="stable").tolist()
        if want is None:
            return
        closed[want] = closed[want[::-1]] = True
        for x in want:
            w[x] = w[x] * rng.choice((0.5, 1.0 - 2**-53)) if rng.random() < 0.5 else rng.choice(_TIE_WEIGHTS)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=48),
    open_share=st.floats(min_value=0.0, max_value=1.0),
)
def test_best_open_pair_is_the_matrix_first_maximum(seed, n, open_share):
    """Random boards with many (rounded) ties, played as multi-pick turns (_play_turn)."""
    rng = random.Random(seed)
    w = np.array([rng.choice(_TIE_WEIGHTS) for _ in range(n)])
    open_ = np.zeros((n, n), dtype=bool)
    exclude = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < open_share:
                open_[u, v] = open_[v, u] = True
                if rng.random() < 0.2:
                    exclude.append((u, v))
    _play_turn(rng, w, open_, exclude)


@pytest.mark.parametrize("seed", range(8))
def test_sparse_rows_reduce_to_the_matrix_first_maximum(seed):
    """Vertices 0..h-1 weigh most and every pair among them is claimed, so
    each of their rows walks past h - 1 closed cells before its first open
    partner; the picks still equal the dense matrix's."""
    rng = random.Random(seed)
    h = 36
    n = 2 * h
    w = np.array([rng.choice(_TIE_WEIGHTS[:3]) for _ in range(h)] + [rng.choice(_TIE_WEIGHTS[3:]) for _ in range(h)])
    open_ = np.zeros((n, n), dtype=bool)
    exclude = []
    for u in range(n):
        for v in range(max(u + 1, h), n):
            if rng.random() < 0.5:
                open_[u, v] = open_[v, u] = True
                if rng.random() < 0.2:
                    exclude.append((u, v))
    _play_turn(rng, w, open_, exclude)


class TestHarmonic:
    def test_exact_values(self):
        assert harmonic(1) == 1
        assert harmonic(3) == Fraction(11, 6)
        assert harmonic(5) == Fraction(137, 60)

    def test_zero_is_empty_sum(self):
        assert harmonic(0) == 0


class TestBoxCondition:
    """Frozen truth table over r, k <= 4, a <= 4, both defender biases."""

    TRUE_CELLS = {
        (1, 2, 2, 1), (1, 2, 3, 1), (1, 2, 3, 2), (1, 2, 4, 1), (1, 2, 4, 2),
        (1, 3, 2, 1), (1, 3, 3, 1), (1, 3, 3, 2), (1, 3, 4, 1), (1, 3, 4, 2),
        (1, 4, 2, 1), (1, 4, 3, 1), (1, 4, 3, 2), (1, 4, 4, 1), (1, 4, 4, 2),
        (2, 2, 3, 1), (2, 2, 4, 1), (2, 3, 3, 1), (2, 3, 4, 1), (2, 3, 4, 2),
        (2, 4, 3, 1), (2, 4, 4, 1), (2, 4, 4, 2), (3, 2, 4, 1), (3, 3, 3, 1),
        (3, 3, 4, 1), (3, 4, 3, 1), (3, 4, 4, 1), (4, 3, 4, 1), (4, 4, 4, 1),
    }

    def test_frozen_table(self):
        for r in range(1, 5):
            for k in range(2, 5):
                for a in range(1, 5):
                    for ob in (1, 2):
                        got = box_game_condition(r, k, a, ob)
                        assert got == ((r, k, a, ob) in self.TRUE_CELLS), (r, k, a, ob)

    def test_threshold_is_exact(self):
        # (a-1) * H_{k-1} at a=2, k=4 is 11/6: r=1 passes, r=2 does not.
        assert box_game_condition(1, 4, 2, 1)
        assert not box_game_condition(2, 4, 2, 1)
        # Defender bias 2 halves the threshold: 11/12 < 1.
        assert not box_game_condition(1, 4, 2, 2)

    def test_rejects_unsupported_defender_bias(self):
        with pytest.raises(InvalidParameters):
            box_game_condition(1, 3, 2, 3)

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(InvalidParameters):
            box_game_condition(0, 3, 2, 1)
        with pytest.raises(InvalidParameters):
            box_game_condition(1, 1, 2, 1)


class TestBoxMaker:
    def test_validate_accepts_boxes(self):
        assert validate_box_family(boxes(3, 2)) == 3

    def test_validate_rejects_mixed_sizes(self):
        fam = family_from_sets(5, [frozenset({0, 1}), frozenset({2, 3, 4})])
        with pytest.raises(InvalidParameters):
            validate_box_family(fam)

    def test_validate_rejects_overlap(self):
        fam = family_from_sets(4, [frozenset({0, 1}), frozenset({1, 2})])
        with pytest.raises(InvalidParameters):
            validate_box_family(fam)

    def test_attacks_smallest_surviving_box(self):
        state = new_family_game(boxes(3, 2), 2, 1)
        family_apply_claim(state, Player.MAKER, [0, 1])
        family_apply_claim(state, Player.BREAKER, [2])
        # Box 0 is dead; Maker must move to box 1.
        picks = box_maker_select(state)
        assert picks == [3, 4]

    def test_finishes_nearly_complete_box_first(self):
        state = new_family_game(boxes(3, 2), 1, 1)
        family_apply_claim(state, Player.MAKER, [0])
        family_apply_claim(state, Player.BREAKER, [5])
        # Box 1 is dead, box 0 has two open spots; keep attacking box 0.
        assert box_maker_select(state) == [1]

    def test_beats_lazy_defender_when_condition_holds(self):
        # r=2, k=3, a=3 vs defender bias 1: 2 * H_2 = 3 >= r.
        assert box_game_condition(2, 3, 3, 1)
        state = new_family_game(boxes(2, 3), 3, 1)

        def lazy_defender(st_):
            pool = st_.unclaimed()
            return pool[: st_.required_claim_count(Player.BREAKER)]

        assert run_family_match(state, box_maker_select, lazy_defender)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
@example(151)
@example(422448)
def test_esb_potential_never_rises_across_breaker_rounds(trial):
    """Greedy Breaker keeps the potential from growing over a full round.

    Breaker moves first, so a round is a Breaker turn followed by a Maker
    turn, with an arbitrary Maker.  The potential is checked after each Maker
    turn against its value at the end of the previous round (the start value
    for the first).  Beck's argument bounds Maker's gain by what Breaker's
    greedy turn just removed; it says nothing about a Maker turn followed by
    a Breaker turn, where Maker can complete a set that Breaker can no longer
    touch (trials 151 and 422448 do so).
    """
    rng = random.Random(trial)
    fam = _random_family(rng)
    a = rng.randint(1, 3)
    b = rng.randint(1, 3)
    state = new_family_game(fam, a, b, first=Player.BREAKER)
    last = esb_potential(state)
    while state.unclaimed():
        side = state.to_move
        if side is Player.BREAKER:
            family_apply_claim(state, side, esb_breaker_select(state))
        else:
            picks = rng.sample(
                state.unclaimed(), state.required_claim_count(Player.MAKER)
            )
            family_apply_claim(state, side, picks)
            value = esb_potential(state)
            assert value <= last * (1 + 1e-12)
            last = value
