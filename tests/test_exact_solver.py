"""Exhaustive solver and one-sided verifiers on small boards."""

import json
import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diameter_games import (
    STRATEGY_IDS,
    ExperimentConfig,
    FloodingBreaker,
    GameError,
    LowestEdgeStrategy,
    OverCapError,
    PairingBreaker,
    Player,
    RandomStrategy,
    StrategyInapplicable,
    all_edges,
    apply_claim,
    box_maker_select,
    canonical_key,
    diameter,
    esb_breaker_select,
    family_from_sets,
    graph_from_edges,
    make_strategy,
    mindeg_breaker_select,
    new_game,
    solve,
    verify_family_one_sided,
    verify_final_property,
    verify_one_sided,
)
from diameter_games.exact_solver import _canonical_from_neighbours, _neighbour_masks
from diameter_games.graph_metrics import diameter_within


def _canonical_masks(n, maker_mask, breaker_mask):
    """The refined key's mask pair of the position given as two edge masks in all_edges(n) order."""
    edges = all_edges(n)
    return _canonical_from_neighbours(_neighbour_masks(n, maker_mask, edges), _neighbour_masks(n, breaker_mask, edges))


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

    def test_n7_is_within_the_default_cap(self):
        fast = solve(7, 2, 1, d=3)
        slow = solve(7, 2, 1, d=3, use_canonical=False)
        assert fast.winner is slow.winner
        assert fast.states_visited < slow.states_visited

    def test_canonical_keys_capped_at_n8(self):
        # Past n = 8 a key may cost n! relabellings; plain keys have no cap.
        with pytest.raises(OverCapError):
            solve(9, 1, 1, d=2, edge_cap=36)


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


def _relabel(n, mask, perm):
    """The edge mask after renaming vertex v to perm[v]."""
    edges = all_edges(n)
    index = {e: i for i, e in enumerate(edges)}
    out = 0
    for i, (u, v) in enumerate(edges):
        if mask >> i & 1:
            out |= 1 << index[tuple(sorted((perm[u], perm[v])))]
    return out


def _reference_masks(n, maker_mask, breaker_mask):
    """The smallest (Maker mask, Breaker mask) over all n! relabellings."""
    return min(
        (_relabel(n, maker_mask, perm), _relabel(n, breaker_mask, perm))
        for perm in permutations(range(n))
    )


def _split(n, owners):
    """Maker and Breaker masks from one owner per edge: 0 open, 1 Maker, 2 Breaker."""
    maker = sum(1 << i for i, o in enumerate(owners) if o == 1)
    breaker = sum(1 << i for i, o in enumerate(owners) if o == 2)
    return maker, breaker


@st.composite
def _position_pairs(draw, n):
    """A position and a second one: a relabelling of the first, with one
    edge's owner changed half of the time."""
    owners = draw(st.lists(st.integers(0, 2), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    perm = draw(st.permutations(range(n)))
    moved = list(owners)
    if draw(st.booleans()):
        i = draw(st.integers(0, len(owners) - 1))
        moved[i] = (moved[i] + draw(st.integers(1, 2))) % 3
    return _split(n, owners), tuple(_relabel(n, mask, perm) for mask in _split(n, moved))


class TestRefinedKey:
    """Refined keys against the n!-relabelling reference: equal exactly
    when the reference keys are equal."""

    def test_every_split_of_k4(self):
        pairs = {}
        for owners in product(range(3), repeat=6):
            maker, breaker = _split(4, owners)
            pairs[(maker, breaker)] = (
                _canonical_masks(4, maker, breaker),
                _reference_masks(4, maker, breaker),
            )
        # Equal refined keys exactly when equal reference keys: the two
        # partitions of the 729 positions have the same classes.
        refined = {r for r, _ in pairs.values()}
        reference = {ref for _, ref in pairs.values()}
        assert len(refined) == len(reference) == len(set(pairs.values()))

    @pytest.mark.parametrize("n", [5, 6])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_splits_agree_with_reference(self, n, data):
        (m1, b1), (m2, b2) = data.draw(_position_pairs(n))
        same_refined = _canonical_masks(n, m1, b1) == _canonical_masks(n, m2, b2)
        same_reference = _reference_masks(n, m1, b1) == _reference_masks(n, m2, b2)
        assert same_refined == same_reference

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 2), min_size=21, max_size=21),
        st.permutations(range(7)),
    )
    def test_relabelling_invariance_at_n7(self, owners, perm):
        maker, breaker = _split(7, owners)
        key = _canonical_masks(7, maker, breaker)
        assert key == _canonical_masks(7, _relabel(7, maker, perm), _relabel(7, breaker, perm))
        # The key is itself a relabelling of the position.
        assert [bin(m).count("1") for m in key] == [bin(maker).count("1"), bin(breaker).count("1")]

    def test_vertex_transitive_position_at_n7(self):
        # A Maker 7-cycle: refinement splits nothing, so all 7! relabellings run.
        edges = all_edges(7)
        cycle = sum(1 << edges.index(tuple(sorted((v, (v + 1) % 7)))) for v in range(7))
        rotated = _relabel(7, cycle, [3, 1, 6, 0, 2, 5, 4])
        assert _canonical_masks(7, cycle, 0) == _canonical_masks(7, rotated, 0)


def _within(n, mask, d):
    """diameter_within on the graph of an edge mask in all_edges(n) order."""
    nbr = _neighbour_masks(n, mask, all_edges(n))
    return diameter_within([m | 1 << v for v, m in enumerate(nbr)], d)


def _reference_within(n, mask, d):
    if n == 1:
        return True  # a single vertex has diameter 0
    edges = [e for i, e in enumerate(all_edges(n)) if mask >> i & 1]
    return diameter(graph_from_edges(n, edges)) <= d


class TestDiameterWithin:
    """The closed-neighbourhood ball test against graph_metrics.diameter."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << n * (n - 1) // 2) - 1))
    ), st.integers(1, 4))
    def test_agrees_with_graph_metrics(self, graph, d):
        n, mask = graph
        assert _within(n, mask, d) == _reference_within(n, mask, d)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_pinned_graphs(self, d):
        assert _within(1, 0, d)
        for n in range(2, 9):
            edges = all_edges(n)
            index = {e: i for i, e in enumerate(edges)}
            path = sum(1 << index[(v, v + 1)] for v in range(n - 1))
            complete = (1 << len(edges)) - 1
            assert not _within(n, 0, d), f"empty K_{n}"
            assert _within(n, complete, d), f"K_{n}"
            assert _within(n, path, d) == (n - 1 <= d), f"P_{n}"
            if n >= 4:
                # Two disjoint cliques: disconnected at every d.
                halves = sum(
                    1 << i for i, (u, v) in enumerate(edges) if (u < n // 2) == (v < n // 2)
                )
                assert not _within(n, halves, d), f"split K_{n}"


class PureLexStrategy:
    """Lowest-edge player with no retained state: the reference that the
    shipped cursor-based LowestEdgeStrategy is checked against below."""

    name = "pure-lex"

    def select(self, state):
        count = state.required_claim_count(state.to_move)
        return sorted(state.unclaimed)[:count]


_HEURISTIC_IDS = ("random", "lowest-edge", "degree-greedy", "path-greedy", "esb-degree-breaker")
# Composites whose state is real history: they refuse a log that did not grow.
_HISTORY_IDS = ("d2-maker", "d2-breaker")
# Maker ids play Maker and Breaker ids Breaker; the heuristics play both sides.
_REGISTRY_CASES = [
    (sid, side)
    for sid in STRATEGY_IDS
    for side in (Player.MAKER, Player.BREAKER)
    if sid in _HEURISTIC_IDS or ("breaker" in sid) == (side is Player.BREAKER)
]


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

    @pytest.mark.parametrize(
        "sid,side",
        _REGISTRY_CASES,
        ids=[f"{sid}-as-{side.value}" for sid, side in _REGISTRY_CASES],
    )
    @pytest.mark.parametrize("first", [Player.MAKER, Player.BREAKER])
    @pytest.mark.parametrize("b", [1, 2])
    def test_registered_strategy_is_snapshot_pure(self, sid, side, first, b):
        # With b = 2 and a capping share of 1, dd-breaker-a1 has one blocking
        # claim a turn, so its capping engine runs with exclude= non-empty.
        breaker_options = {"b1": 1} if sid == "dd-breaker-a1" and b > 1 else {}
        cfg = ExperimentConfig.from_json(
            dict(
                name="registry",
                n=5,
                a=1,
                b=b,
                d=3 if sid.startswith("dd-") else 2,
                maker=sid if side is Player.MAKER else "lowest-edge",
                breaker=sid if side is Player.BREAKER else "lowest-edge",
                maker_options={"r_sizes": [1, 2]} if sid == "dd-maker" else {},
                breaker_options=breaker_options,
            )
        )
        opts = cfg.maker_options if side is Player.MAKER else cfg.breaker_options

        def build():
            return make_strategy(sid, cfg, random.Random(0), opts)

        def verify(script):
            return verify_final_property(5, 1, b, script, side, lambda snap: True, first=first)

        if sid == "random":
            # Its draws depend on the generator's history; it only stays legal.
            assert verify(build())
        elif sid in _HISTORY_IDS:
            with pytest.raises(StrategyInapplicable) as info:
                verify(build())
            assert info.type is StrategyInapplicable
        else:
            # A fresh instance builds everything from the snapshot it is shown.
            script = Differential(build(), lambda snap: build().select(snap))
            assert verify(script)
            # At b = 2 a scripted Breaker moving first meets 1 + 8 + 8*5 + 8*5*2 nodes.
            assert script.calls > (1000 if b == 1 else 100)
            if breaker_options:
                assert script.fast.annotations[0]["max_blocking_used"] == 1

    @pytest.mark.parametrize("side", [Player.MAKER, Player.BREAKER])
    def test_random_side_stays_legal_under_backtracking(self, side):
        # Its pool used to keep the previous sibling's claims out and let
        # edges claimed on this branch back in.
        side_strategy = RandomStrategy(random.Random(0))
        assert verify_final_property(5, 1, 1, side_strategy, side, lambda snap: True)


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

    @pytest.mark.parametrize("position", [-1, 3])
    def test_position_outside_universe_raises_game_error(self, position):
        """A negative position once raised ValueError from the shift in the
        taken-position test, which ran before the range check."""
        fam = family_from_sets(3, [(1, 2)])
        with pytest.raises(GameError):
            verify_family_one_sided(fam, 1, 1, lambda s: [position], Player.MAKER)
