"""Exhaustive solver and one-sided verifiers on small boards."""

import json
import random
from itertools import combinations, permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diameter_games import (
    ExperimentConfig,
    PairingBreaker,
    Player,
    box_maker_select,
    esb_breaker_select,
    family_from_sets,
    graph_from_edges,
    solve,
    verify_family_one_sided,
    verify_final_property,
    verify_one_sided,
)
from diameter_games.degree_games import FloodingBreaker
from diameter_games.exact_solver import (
    OverCapError,
    _canonical_from_neighbours,
    canonical_key,
    diameter_cutoff,
)
from diameter_games.game_core import (
    GameError,
    GameState,
    InvalidParameters,
    StrategyInapplicable,
    all_edges,
    apply_claim,
    mk_edge,
    new_game,
)
from diameter_games.graph_metrics import closed_masks, complement, diameter, diameter_within
from diameter_games.harness import STRATEGY_IDS, make_strategy
from diameter_games.heuristics import LowestEdgeStrategy, RandomStrategy


def _closed(n, mask):
    """closed_masks of the graph of an edge mask in all_edges(n) order."""
    return closed_masks(n, [e for i, e in enumerate(all_edges(n)) if mask >> i & 1])


def _canonical_masks(n, maker_mask, breaker_mask):
    """The refined key's mask pair of the position given as two edge masks in all_edges(n) order."""
    maker, breaker = ([m ^ 1 << v for v, m in enumerate(_closed(n, mask))] for mask in (maker_mask, breaker_mask))
    return _canonical_from_neighbours(maker, breaker)


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


_SOLVE_COUNTS = json.loads((Path(__file__).resolve().parent / "solve_counts.json").read_text())
_COUNT_ROWS = [dict(zip(_SOLVE_COUNTS["columns"], row)) for row in _SOLVE_COUNTS["rows"]]


class TestSolveCounts:
    """solve's whole traversal, pinned: the winner, states_visited and
    memo_entries of every exact-solve grid cell (n in 4..6, a and b in 1..2,
    d in 2..3, both first movers), and of the plain-key cells with n <= 5.
    A change that keeps the verdicts but visits or memoises other positions
    shows up here."""

    def test_table_covers_the_grid(self):
        cells = {(r["n"], r["a"], r["b"], r["d"], r["first"], r["canonical"]) for r in _COUNT_ROWS}
        grid = {
            (n, a, b, d, first, canonical)
            for canonical, ns in ((True, (4, 5, 6)), (False, (4, 5)))
            for n, a, b, d, first in product(ns, (1, 2), (1, 2), (2, 3), ("maker", "breaker"))
        }
        assert len(_COUNT_ROWS) == len(cells) == 80
        assert cells == grid

    @pytest.mark.parametrize(
        "row",
        _COUNT_ROWS,
        ids=[f"{r['n']}-{r['a']}-{r['b']}-{r['d']}-{r['first']}-{'canonical' if r['canonical'] else 'plain'}" for r in _COUNT_ROWS],
    )
    def test_pinned_cell(self, row):
        res = solve(row["n"], row["a"], row["b"], row["d"], Player(row["first"]), use_canonical=row["canonical"])
        assert (res.winner.value, res.states_visited, res.memo_entries) == (
            row["winner"],
            row["states_visited"],
            row["memo_entries"],
        )


class TestBadParameters:
    """Every exhaustive search rejects a board it cannot play with
    InvalidParameters, before any search."""

    @pytest.mark.parametrize("n,a,b,d", [(-3, 1, 1, 2), (0, 1, 1, 2), (1, 1, 1, 2), (4, 0, 1, 2), (4, 1, -1, 2), (4, 0, 0, 2), (4, 1, 1, 0)])
    def test_board_verifiers(self, n, a, b, d):
        with pytest.raises(InvalidParameters):
            verify_one_sided(n, a, b, d, PairingBreaker(), Player.BREAKER)
        if d >= 1:
            with pytest.raises(InvalidParameters):
                verify_final_property(n, a, b, PureLexStrategy(), Player.BREAKER, lambda snap: True)

    @pytest.mark.parametrize("a,b", [(0, 1), (1, 0), (-1, 1), (1, -2)])
    @pytest.mark.parametrize("side,select", [(Player.MAKER, box_maker_select), (Player.BREAKER, esb_breaker_select)])
    def test_family_verifier(self, a, b, side, select):
        fam = family_from_sets(4, [frozenset({0, 1}), frozenset({2, 3})])
        with pytest.raises(InvalidParameters, match="biases must be positive"):
            verify_family_one_sided(fam, a, b, select, side)


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
    return diameter_within(_closed(n, mask), d)


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


class TestDiameterCutoff:
    """solve's and verify_one_sided's cutoffs on the two players' closed masks."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 7).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, 2), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    ), st.integers(1, 4))
    def test_decided_exactly_when_a_bound_is_met(self, board, d):
        n, owners = board
        maker_mask, breaker_mask = _split(n, owners)
        maker, breaker = _closed(n, maker_mask), _closed(n, breaker_mask)
        reach = ((1 << len(owners)) - 1) ^ breaker_mask  # Maker's edges and the open ones
        expected = True if _within(n, maker_mask, d) else False if not _within(n, reach, d) else None
        assert diameter_cutoff(maker, breaker, d) is expected
        if 0 not in owners:
            # A full board is always decided, by Maker's own graph.
            assert expected is _within(n, maker_mask, d)

    def test_fresh_board_is_open(self):
        assert diameter_cutoff(closed_masks(4, []), closed_masks(4, []), 2) is None


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
        script = Differential(FloodingBreaker(), lambda state: FloodingBreaker().select(state))
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


    @pytest.mark.parametrize(
        "script",
        [
            lambda state: [(0, 1), (0, 1)],
            lambda state: [(0, 1), (0, 2)],
            lambda state: [(0, 5)],
            lambda state: [state.move_log[-1][1]] if state.move_log else [(0, 1)],
        ],
        ids=["duplicate", "too-many", "off-the-board", "already-claimed"],
    )
    def test_bad_scripted_claim_raises(self, script):
        scripted = _Script(script)
        with pytest.raises(GameError, match="^scripted breaker (returned a bad claim|claimed unavailable edge)"):
            verify_final_property(4, 1, 1, scripted, Player.BREAKER, lambda snap: True, first=Player.BREAKER)
        with pytest.raises(GameError):
            verify_final_property(4, 2, 1, scripted, Player.MAKER, lambda snap: True, first=Player.BREAKER)


class _Script:
    name = "script"

    def __init__(self, select):
        self.select = select


def _set_based_verify(n, a, b, scripted, side, final_predicate, prune=None, first=Player.MAKER):
    """The board verifier as it was before it played on one GameState: three
    edge sets, played and undone, and a GameState built from them for every
    snapshot.  The reference of TestBoardVerifierMatchesSetBasedDfs."""
    maker, breaker, unclaimed, log = set(), set(), set(all_edges(n)), []

    def play(to_move, picks):
        own = maker if to_move is Player.MAKER else breaker
        for e in picks:
            unclaimed.discard(e)
            own.add(e)
            log.append((to_move, e))
        ok = dfs(to_move.other())
        for e in picks:
            own.discard(e)
            unclaimed.add(e)
            log.pop()
        return ok

    def dfs(to_move):
        if prune is not None:
            decided = prune(maker, breaker, unclaimed, log)
            if decided is not None:
                return decided
        if not unclaimed:
            return bool(final_predicate(GameState(n, a, b, first, maker, breaker, to_move, log)))
        count = min(a if to_move is Player.MAKER else b, len(unclaimed))
        if to_move is not side:
            return all(play(to_move, combo) for combo in combinations(sorted(unclaimed), count))
        picks = [mk_edge(*e) for e in scripted.select(GameState(n, a, b, first, maker, breaker, to_move, log))]
        if len(picks) != count or len(set(picks)) != count or not set(picks) <= unclaimed:
            raise GameError(f"scripted {side.value} returned a bad claim {picks}")
        return play(to_move, picks)

    return dfs(first)


_DIFFERENTIAL_SCRIPTS = {
    "lowest-edge": LowestEdgeStrategy,
    "pairing": PairingBreaker,
    "flooding": FloodingBreaker,
}
_DIFFERENTIAL_CASES = [
    ("lowest-edge", Player.MAKER),
    ("lowest-edge", Player.BREAKER),
    ("pairing", Player.BREAKER),
    ("flooding", Player.BREAKER),
]


def _recorded_run(verify, n, a, b, sid, side, first, pruned, walk_all):
    """verify's verdict (or the error it raised) and, in order, every position
    shown to the scripted select, the prune and the final predicate.  With
    walk_all the final predicate is always True, so an unpruned DFS visits
    every node."""
    seen = []
    strategy = _DIFFERENTIAL_SCRIPTS[sid]()

    def position(maker, breaker, log):
        return frozenset(maker), frozenset(breaker), tuple(log)

    def select(state):
        seen.append(("select", position(state.maker_edges, state.breaker_edges, state.move_log), state.to_move))
        return strategy.select(state)

    def final_predicate(snap):
        seen.append(("final", position(snap.maker_edges, snap.breaker_edges, snap.move_log), snap.to_move))
        return walk_all or diameter_within(snap.closed(Player.MAKER), 2) == (side is Player.MAKER)

    def prune(maker, breaker, unclaimed, log):
        reach = maker | unclaimed
        seen.append(("prune", position(maker, breaker, log), frozenset(unclaimed), frozenset(reach), len(reach)))
        if diameter_within(closed_masks(n, maker), 2):
            return side is Player.MAKER
        if not diameter_within(complement(closed_masks(n, breaker)), 2):
            return side is Player.BREAKER
        return None

    try:
        outcome = verify(n, a, b, _Script(select), side, final_predicate, prune=prune if pruned else None, first=first)
    except GameError as exc:
        outcome = (type(exc), str(exc))
    return outcome, seen


class TestBoardVerifierMatchesSetBasedDfs:
    """The DFS on one live GameState, with its pushes and pops, against the
    set-based DFS it replaced: the same verdict, and the same positions, in
    the same order, at every select, prune and final predicate."""

    @pytest.mark.parametrize("sid,side", _DIFFERENTIAL_CASES, ids=[f"{s}-as-{p.value}" for s, p in _DIFFERENTIAL_CASES])
    @pytest.mark.parametrize("first", [Player.MAKER, Player.BREAKER], ids=["maker-first", "breaker-first"])
    @pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 1), (2, 2)])
    @pytest.mark.parametrize("n", [4, 5])
    def test_same_verdict_and_positions(self, n, a, b, first, sid, side):
        for pruned, walk_all in ((False, False), (False, True), (True, False)):
            ref = _recorded_run(_set_based_verify, n, a, b, sid, side, first, pruned, walk_all)
            live = _recorded_run(verify_final_property, n, a, b, sid, side, first, pruned, walk_all)
            assert live[0] == ref[0], (pruned, walk_all)
            assert len(live[1]) == len(ref[1]), (pruned, walk_all)
            assert live[1] == ref[1], (pruned, walk_all)
            assert any(call[0] == "select" for call in ref[1])


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
