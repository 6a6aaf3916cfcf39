"""Exhaustive solver and one-sided verifiers on small boards."""

import json

import pytest

from diameter_games import (
    FloodingBreaker,
    GameError,
    LowestEdgeStrategy,
    OverCapError,
    PairingBreaker,
    Player,
    apply_claim,
    box_maker_select,
    canonical_key,
    esb_breaker_select,
    family_from_sets,
    mindeg_breaker_select,
    new_game,
    solve,
    verify_family_one_sided,
    verify_final_property,
    verify_one_sided,
)


class TestSolve:
    @pytest.mark.parametrize("n,winner", [(2, Player.MAKER), (3, Player.MAKER)])
    def test_tiny_boards_are_maker_wins(self, n, winner):
        res = solve(n, 1, 1, d=2)
        assert res.winner is winner

    def test_n4_is_breaker_win(self):
        res = solve(4, 1, 1, d=2)
        assert res.winner is Player.BREAKER

    def test_result_metadata(self):
        res = solve(4, 1, 1, d=2)
        assert res.n == 4 and res.a == 1 and res.b == 1 and res.d == 2
        assert res.states_visited > 0
        assert res.memo_entries > 0
        assert res.elapsed_seconds >= 0.0
        assert res.used_canonical

    def test_to_json_is_parseable(self):
        blob = json.loads(solve(3, 1, 1, d=2).to_json())
        assert blob["winner"] == "maker"
        assert blob["n"] == 3

    def test_plain_mode_agrees_on_small_board(self):
        for d in (2, 3):
            fast = solve(4, 1, 1, d=d, use_canonical=True)
            slow = solve(4, 1, 1, d=d, use_canonical=False)
            assert fast.winner is slow.winner, f"d={d}"

    def test_breaker_first_can_flip_the_verdict(self):
        maker_first = solve(3, 1, 1, d=1, first=Player.MAKER)
        breaker_first = solve(3, 1, 1, d=1, first=Player.BREAKER)
        # Diameter 1 needs every edge; moving first decides the race.
        assert maker_first.winner is not breaker_first.winner or (
            maker_first.winner is Player.BREAKER
        )

    def test_edge_cap_enforced(self):
        with pytest.raises(OverCapError):
            solve(12, 1, 1, d=2)

    def test_repeatable(self):
        a = solve(4, 1, 2, d=2)
        b = solve(4, 1, 2, d=2)
        assert a.winner is b.winner


class TestCanonicalKey:
    def test_relabeling_invariance(self):
        s1 = new_game(5, 1, 1)
        apply_claim(s1, Player.MAKER, [(0, 1)])
        apply_claim(s1, Player.BREAKER, [(2, 3)])
        # Same position under the relabeling 0<->4, 1<->3.
        s2 = new_game(5, 1, 1)
        apply_claim(s2, Player.MAKER, [(3, 4)])
        apply_claim(s2, Player.BREAKER, [(0, 1)])
        assert canonical_key(s1) == canonical_key(s2)

    def test_distinct_positions_differ(self):
        s1 = new_game(4, 1, 1)
        apply_claim(s1, Player.MAKER, [(0, 1)])
        s2 = new_game(4, 1, 1)
        apply_claim(s2, Player.MAKER, [(0, 1)])
        apply_claim(s2, Player.BREAKER, [(2, 3)])
        assert canonical_key(s1) != canonical_key(s2)

    def test_capped_at_factorial_blowup(self):
        with pytest.raises(OverCapError):
            canonical_key(new_game(9, 1, 1))


class PureLexStrategy:
    """Lowest-edge player with no retained state: the reference that the
    shipped cursor-based LowestEdgeStrategy is checked against below."""

    name = "pure-lex"

    def select(self, state):
        count = state.required_claim_count(state.to_move)
        return sorted(state.unclaimed)[:count]


class Differential:
    """Scripted side that plays `fast` and asserts it agrees with the pure
    `reference` rule at every node the verifier shows it."""

    name = "differential"

    def __init__(self, fast, reference):
        self.fast = fast
        self.reference = reference
        self.calls = 0

    def select(self, state):
        self.calls += 1
        picks = self.fast.select(state)
        assert picks == self.reference(state), f"log {state.move_log}"
        return picks


class TestVerifyOneSided:
    def test_pairing_holds_at_n4(self):
        assert verify_one_sided(4, 1, 1, 2, PairingBreaker(), Player.BREAKER)

    def test_lex_breaker_is_beatable(self):
        # Negative control: the lowest-edge rule does not stop diameter 2.
        assert not verify_one_sided(4, 1, 1, 2, PureLexStrategy(), Player.BREAKER)

    def test_edge_cap(self):
        with pytest.raises(OverCapError):
            verify_one_sided(8, 1, 1, 2, PairingBreaker(), Player.BREAKER)

    def test_shipped_lowest_edge_is_refuted_not_crashed(self):
        # Its cursor used to survive backtracking to a sibling of equal
        # depth, and it then ran out of edges: GameError "bad claim []".
        assert not verify_one_sided(5, 1, 1, 2, LowestEdgeStrategy(), Player.BREAKER)

    @pytest.mark.parametrize("side", [Player.MAKER, Player.BREAKER])
    @pytest.mark.parametrize("first", [Player.MAKER, Player.BREAKER])
    def test_lowest_edge_cursor_matches_pure_rule(self, side, first):
        # A weak side is refuted within a few nodes, so the always-true goal
        # of the same DFS also walks every node and every backtrack.
        script = Differential(LowestEdgeStrategy(), PureLexStrategy().select)
        assert not verify_one_sided(5, 1, 1, 2, script, side, first=first)
        assert verify_final_property(5, 1, 1, script, side, lambda snap: True, first=first)
        assert script.calls > 1000

    @pytest.mark.parametrize("a,b", [(1, 1), (2, 1), (1, 2)])
    @pytest.mark.parametrize("first", [Player.MAKER, Player.BREAKER])
    def test_flooding_cursor_matches_pure_rule(self, a, b, first):
        script = Differential(FloodingBreaker(), mindeg_breaker_select)
        verify_one_sided(5, a, b, 2, script, Player.BREAKER, first=first)
        assert verify_final_property(
            5, a, b, script, Player.BREAKER, lambda snap: True, first=first
        )
        assert script.calls > 100


class TestVerifyFinalProperty:
    def test_trivially_true_predicate(self):
        assert verify_final_property(
            4, 1, 1, PureLexStrategy(), Player.BREAKER, lambda snap: True
        )

    def test_trivially_false_predicate(self):
        assert not verify_final_property(
            4, 1, 1, PureLexStrategy(), Player.BREAKER, lambda snap: False
        )

    def test_prune_short_circuits(self):
        calls = {"n": 0}

        def prune(maker, breaker, unclaimed, log):
            calls["n"] += 1
            return True  # settle everything immediately

        assert verify_final_property(
            5, 1, 1, PureLexStrategy(), Player.BREAKER, lambda snap: False, prune=prune
        )
        assert calls["n"] == 1


class TestVerifyFamily:
    def test_box_maker_wins_exhaustively(self):
        # Two boxes of two, attacker bias 3 vs defender 1: condition holds.
        fam = family_from_sets(
            4, [frozenset({0, 1}), frozenset({2, 3})]
        )
        assert verify_family_one_sided(fam, 3, 1, box_maker_select, Player.MAKER)

    def test_single_box_race_is_lost(self):
        # One pair, alternating singles: Breaker always touches it first
        # because Maker cannot finish in one turn.
        fam = family_from_sets(2, [frozenset({0, 1})])
        assert not verify_family_one_sided(fam, 1, 1, box_maker_select, Player.MAKER)

    def test_esb_breaker_wins_below_threshold(self):
        # One 3-set at (1:1): criterion value 1/4 < 1.
        fam = family_from_sets(3, [frozenset({0, 1, 2})])
        assert verify_family_one_sided(fam, 1, 1, esb_breaker_select, Player.BREAKER)

    def test_scripted_misbehavior_raises(self):
        fam = family_from_sets(3, [frozenset({0, 1})])

        def cheater(state):
            return [0, 0]

        with pytest.raises(GameError):
            verify_family_one_sided(fam, 2, 1, cheater, Player.MAKER)
