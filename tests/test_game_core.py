"""Core state machine: claims, turn order, transcripts, replay."""

import json
import math
import random
import tracemalloc
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diameter_games import (
    AlreadyClaimed,
    D2SimpleMaker,
    DegreeGreedyStrategy,
    GameError,
    GameState,
    Graph,
    InvalidParameters,
    LowestEdgeStrategy,
    PathGreedyStrategy,
    Player,
    RandomStrategy,
    Transcript,
    TurnRecord,
    WrongClaimCount,
    WrongTurn,
    all_edges,
    apply_claim,
    degree_profile,
    diameter,
    diameter_at_most,
    edge_count,
    maker_graph,
    min_degree_exceeds,
    mk_edge,
    new_game,
    property_from_id,
    read_transcript,
    replay_transcript,
    run_match,
    transcript_from_jsonl,
)
from diameter_games.graph_metrics import closed_masks


def test_mk_edge_orders_endpoints():
    assert mk_edge(3, 1) == (1, 3)
    assert mk_edge(1, 3) == (1, 3)


def test_all_edges_is_lexicographic():
    edges = all_edges(4)
    assert edges == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert edges == sorted(edges)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.data())
def test_lowest_open_matches_sorted_unclaimed(n, data):
    # The reference is PureLexStrategy's rule over a plain set of the edges
    # not yet played.  Several probes per position, with and without the
    # lowest edges skipped, and positions that only gain claims: a cached
    # row that stepped over a skipped or returned edge would miss it on a
    # later probe.
    edges = all_edges(n)
    state = new_game(n, 1, 1)
    unclaimed = set(edges)
    for edge in data.draw(st.permutations(edges)) + [None]:
        if data.draw(st.booleans()):
            low = sorted(unclaimed)[:3]
            # copy(), and a state built from the players' edges as the verifiers' snapshots are
            fresh = (state.copy(), rebuilt(state))
            for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
                count = data.draw(st.integers(min_value=0, max_value=4))
                skip = data.draw(st.sets(st.sampled_from(low + edges), max_size=3))
                expected = sorted(unclaimed - skip)[:count]
                for probe in (state, *fresh):
                    assert probe.lowest_open(count, skip) == expected
        if edge is not None:
            apply_claim(state, state.to_move, [edge])
            unclaimed.discard(edge)
    assert state.lowest_open(1) == []


@pytest.mark.parametrize("n,m", [(2, 1), (3, 3), (6, 15), (10, 45)])
def test_edge_count(n, m):
    assert edge_count(n) == m
    assert len(all_edges(n)) == m


class TestNewGame:
    def test_rejects_tiny_board(self):
        with pytest.raises(InvalidParameters):
            new_game(1, 1, 1)

    @pytest.mark.parametrize("a,b", [(0, 1), (1, 0), (-1, 1)])
    def test_rejects_nonpositive_bias(self, a, b):
        with pytest.raises(InvalidParameters):
            new_game(5, a, b)

    def test_first_player_controls_to_move(self):
        state = new_game(4, 1, 1, first=Player.BREAKER)
        assert state.to_move is Player.BREAKER
        assert state.first is Player.BREAKER

    def test_starts_with_full_board(self):
        state = new_game(5, 2, 1)
        assert len(state.unclaimed) == 10
        assert not state.maker_edges and not state.breaker_edges


class TestApplyClaim:
    def test_turn_alternation(self):
        state = new_game(4, 1, 1)
        apply_claim(state, Player.MAKER, [(0, 1)])
        assert state.to_move is Player.BREAKER
        with pytest.raises(WrongTurn):
            apply_claim(state, Player.MAKER, [(0, 2)])

    def test_claim_count_must_match_bias(self):
        state = new_game(5, 2, 1)
        with pytest.raises(WrongClaimCount):
            apply_claim(state, Player.MAKER, [(0, 1)])

    def test_truncated_final_turn(self):
        # With 3 edges and bias 2, the second Maker turn gets only one edge.
        state = new_game(3, 2, 1)
        apply_claim(state, Player.MAKER, [(0, 1), (0, 2)])
        apply_claim(state, Player.BREAKER, [(1, 2)])
        assert state.required_claim_count(Player.MAKER) == 0
        assert state.is_exhausted()

    def test_truncation_claims_all_remaining(self):
        state = new_game(4, 4, 1)
        apply_claim(state, Player.MAKER, [(0, 1), (0, 2), (0, 3), (1, 2)])
        apply_claim(state, Player.BREAKER, [(1, 3)])
        # Only (2,3) is left; Maker's bias of 4 truncates to 1.
        assert state.required_claim_count(Player.MAKER) == 1
        apply_claim(state, Player.MAKER, [(2, 3)])
        assert state.is_exhausted()

    def test_double_claim_rejected(self):
        state = new_game(4, 1, 1)
        apply_claim(state, Player.MAKER, [(0, 1)])
        with pytest.raises(AlreadyClaimed):
            apply_claim(state, Player.BREAKER, [(0, 1)])

    def test_duplicate_within_turn_rejected(self):
        state = new_game(5, 2, 1)
        with pytest.raises(AlreadyClaimed):
            apply_claim(state, Player.MAKER, [(0, 1), (0, 1)])

    def test_non_canonical_edge_rejected(self):
        state = new_game(4, 1, 1)
        with pytest.raises(InvalidParameters):
            apply_claim(state, Player.MAKER, [(1, 0)])

    def test_move_log_records_every_edge(self):
        state = new_game(4, 2, 1)
        apply_claim(state, Player.MAKER, [(0, 1), (2, 3)])
        assert state.move_log == [
            (Player.MAKER, (0, 1)),
            (Player.MAKER, (2, 3)),
        ]

    @pytest.mark.parametrize(
        "claim, error",
        [
            ([(2, 3), (0, 3)], AlreadyClaimed),  # the second edge is Breaker's
            ([(2, 3), (1, 2)], AlreadyClaimed),  # the second edge is Maker's own
            ([(2, 3), (4, 1)], InvalidParameters),  # the second edge is not canonical
            ([(2, 3), (4, 4)], InvalidParameters),  # the second edge is a loop
        ],
    )
    def test_rejected_claim_changes_nothing(self, claim, error):
        state = new_game(5, 2, 1)
        apply_claim(state, Player.MAKER, [(0, 1), (1, 2)])
        apply_claim(state, Player.BREAKER, [(0, 3)])
        before = state.copy()
        with pytest.raises(error):
            apply_claim(state, Player.MAKER, claim)
        assert state == before  # masks, open count, move log and side to move
        for player in Player:
            assert state.closed(player) == before.closed(player)

    def test_disjointness_guard_fires_on_corrupted_board(self):
        state = new_game(4, 1, 1)
        breaker = state.closed(Player.BREAKER)
        breaker[0] |= 1 << 1  # Breaker's mask holds (0, 1), though no claim logged it
        breaker[1] |= 1 << 0
        before = state.copy()
        with pytest.raises(AlreadyClaimed):
            apply_claim(state, Player.MAKER, [(0, 1)])
        assert state == before

    @pytest.mark.parametrize("edge", [(0, 4), (-1, 2), (2, 9)])
    def test_edge_off_the_board_rejected(self, edge):
        state = new_game(4, 1, 1)
        with pytest.raises(AlreadyClaimed):
            apply_claim(state, Player.MAKER, [edge])
        assert state == new_game(4, 1, 1)


def test_copy_is_independent(fresh_game):
    state = fresh_game(4)
    clone = state.copy()
    apply_claim(state, Player.MAKER, [(0, 1)])
    assert (0, 1) in clone.unclaimed
    assert clone.to_move is Player.MAKER


def test_fresh_large_board_allocates_little():
    """A fresh board is the two players' masks, 2n ints: no edge is stored."""
    tracemalloc.start()
    try:
        state = new_game(3000, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert len(state.unclaimed) == edge_count(3000)
    assert state.lowest_open(2) == [(0, 1), (0, 2)]


class TestEdgeViews:
    def _board(self):
        state = new_game(6, 2, 1)
        apply_claim(state, Player.MAKER, [(0, 1), (2, 5)])
        apply_claim(state, Player.BREAKER, [(1, 4)])
        return state

    @pytest.mark.parametrize(
        "probe", [(1, 0), (5, 2), (4, 1), (3, 3), (0, 6), (-1, 2), (0, 1, 2), (0,), "ab", None, 7]
    )
    def test_membership_is_false_off_the_canonical_edges(self, probe):
        state = self._board()
        for view in (state.maker_edges, state.breaker_edges, state.unclaimed):
            assert probe not in view

    def test_views_are_sets_in_edge_order(self):
        state = self._board()
        assert list(state.maker_edges) == [(0, 1), (2, 5)]
        assert state.breaker_edges == {(1, 4)} and {(1, 4)} == state.breaker_edges
        assert state.unclaimed - {(0, 2)} == set(all_edges(6)) - {(0, 1), (2, 5), (1, 4), (0, 2)}
        assert isinstance(state.unclaimed - {(0, 2)}, set)
        assert state.maker_edges | state.breaker_edges == {(0, 1), (2, 5), (1, 4)}
        assert len(state.unclaimed) == 12 and len(state.maker_edges) == 2 and len(state.breaker_edges) == 1
        assert not hasattr(state.unclaimed, "add") and not hasattr(state.unclaimed, "discard")

    def test_views_follow_later_claims(self):
        state = self._board()
        unclaimed = state.unclaimed
        apply_claim(state, Player.MAKER, [(3, 4), (4, 5)])
        assert (3, 4) not in unclaimed and (3, 4) in state.maker_edges and len(unclaimed) == 10


def rebuilt(state):
    """A state built from `state`'s fields and its players' edges, as the verifiers' snapshots are."""
    return GameState(
        state.n, state.a, state.b, state.first, state.maker_edges, state.breaker_edges, state.to_move, state.move_log
    )


def replayed_sets(state, start=((), ())):
    """Plain sets of Maker's, Breaker's and the unclaimed edges: the
    constructor's edges `start`, then every claim of the move log."""
    owned = {Player.MAKER: set(start[0]), Player.BREAKER: set(start[1])}
    for player, edge in state.move_log:
        owned[player].add(edge)
    maker, breaker = owned[Player.MAKER], owned[Player.BREAKER]
    return maker, breaker, set(all_edges(state.n)) - maker - breaker


def check_maker_graph(state, start=((), ())):
    """maker_graph, both players' live masks, and the three edge views
    against plain sets replayed from the move log."""
    maker, breaker, unclaimed = replayed_sets(state, start)
    g, ref = maker_graph(state), Graph(state.n, frozenset(maker))
    assert g.n == ref.n and g.edges == ref.edges
    assert [g.neighbors(v) for v in range(ref.n)] == [ref.neighbors(v) for v in range(ref.n)]
    assert state.closed(Player.MAKER) == closed_masks(state.n, maker)
    assert state.closed(Player.BREAKER) == closed_masks(state.n, breaker)
    for view, edges in ((state.maker_edges, maker), (state.breaker_edges, breaker), (state.unclaimed, unclaimed)):
        assert list(view) == sorted(edges) and len(view) == len(edges) and view == edges
        assert [e in view for e in all_edges(state.n)] == [e in edges for e in all_edges(state.n)]
    assert state.is_exhausted() == (not unclaimed)


def check_open_cells(state, start=((), ())):
    """The open cells and degrees that OpenPairs and the degree strategies read
    from the two closed masks match plain sets replayed from the move log: a
    cell is open exactly when neither mask has it, and a vertex's open degree
    is n minus the bits of the union of its two rows."""
    n = state.n
    maker_set, breaker_set, unclaimed = replayed_sets(state, start)
    maker, breaker = state.closed(Player.MAKER), state.closed(Player.BREAKER)
    for u in range(n):
        taken = maker[u] | breaker[u]
        for v in range(n):
            if u != v:
                assert (not taken >> v & 1) == (mk_edge(u, v) in unclaimed)
        assert n - taken.bit_count() == sum(u in e for e in unclaimed)
        assert maker[u].bit_count() - 1 == sum(u in e for e in maker_set)
        assert breaker[u].bit_count() - 1 == sum(u in e for e in breaker_set)
        assert not maker[u] & breaker[u] & ~(1 << u)  # no cell is held by both


def play_random_turn(state, maker, breaker):
    side = state.to_move
    strategy = maker if side is Player.MAKER else breaker
    apply_claim(state, side, strategy.select(state))


DERIVED_INDEXES = pytest.mark.parametrize(
    "check", [check_maker_graph, check_open_cells], ids=["maker_graph", "open_cells"]
)


class TestMakerGraph:
    """The board, both players' closed masks, Maker's adjacency, the edge
    views and the open cells read from the masks, against plain sets
    replayed from the move log."""

    @DERIVED_INDEXES
    @pytest.mark.parametrize("n,a,b", [(6, 1, 1), (9, 2, 3), (12, 3, 1)])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_validated_graph_through_play(self, check, n, a, b, seed):
        rng = random.Random(seed)
        state = new_game(n, a, b)
        maker, breaker = RandomStrategy(rng), RandomStrategy(rng)
        check(state)
        previous = state.copy()
        while not state.is_exhausted():
            play_random_turn(state, maker, breaker)
            check(state)
            check(previous)  # an earlier copy still describes its own board
            previous = state.copy()
            check(previous)

    @DERIVED_INDEXES
    @pytest.mark.parametrize("first_look", [0, 3, 8])
    def test_index_first_built_mid_game_keeps_up(self, check, first_look):
        rng = random.Random(first_look)
        state = new_game(8, 2, 1)
        maker, breaker = RandomStrategy(rng), RandomStrategy(rng)
        for _ in range(first_look):
            play_random_turn(state, maker, breaker)
        clone = state.copy()
        check(state)
        while not state.is_exhausted():
            play_random_turn(state, maker, breaker)
            apply_claim(clone, clone.to_move, [e for _, e in state.move_log[len(clone.move_log) :]])
            check(state)
            check(clone)

    @DERIVED_INDEXES
    def test_directly_constructed_state(self, check):
        maker = {(0, 3), (1, 2), (0, 1), (3, 4)}
        breaker = {(0, 2), (2, 4)}
        state = GameState(n=5, a=1, b=1, first=Player.MAKER, maker_edges=maker, breaker_edges=breaker)
        check(state, (maker, breaker))
        apply_claim(state, Player.MAKER, [(1, 4)])
        check(state, (maker, breaker))
        apply_claim(state, Player.BREAKER, [(2, 3)])
        check(state, (maker, breaker))

    def test_earlier_graph_is_unchanged_by_later_claims(self):
        state = new_game(5, 1, 1)
        apply_claim(state, Player.MAKER, [(0, 2)])
        before = maker_graph(state)
        apply_claim(state, Player.BREAKER, [(1, 3)])
        apply_claim(state, Player.MAKER, [(0, 1)])
        apply_claim(state, Player.BREAKER, [(3, 4)])
        apply_claim(state, Player.MAKER, [(2, 4)])
        assert before.edges == {(0, 2)}
        assert [before.neighbors(v) for v in range(5)] == [[2], [], [0], [], []]
        assert maker_graph(state).neighbors(0) == [1, 2]


def maker_board(n, edges):
    """A position on K_n where Maker owns exactly `edges` and the rest is open."""
    return GameState(n=n, a=1, b=1, first=Player.MAKER, maker_edges=edges)


@st.composite
def maker_boards_up_to_9(draw):
    n = draw(st.integers(min_value=0, max_value=9))
    pool = all_edges(n)
    edges = draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []
    return maker_board(n, edges)


@settings(max_examples=300, deadline=None)
@given(maker_boards_up_to_9(), st.integers(min_value=1, max_value=4))
@example(maker_board(0, []), 1)
@example(maker_board(1, []), 2)
@example(maker_board(4, [(0, 1), (2, 3)]), 4)
@example(maker_board(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), 3)
@example(maker_board(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), 4)
@example(maker_board(3, [(0, 1), (0, 2), (1, 2)]), 0)
def test_diameter_at_most_matches_full_diameter(state, d):
    g = maker_graph(state)
    expected = g.n < 2 or diameter(g) <= d
    assert diameter_at_most(d)(state) == expected


LIVE_PROPERTY_MAKERS = {
    "random": lambda n, a, b, seed: RandomStrategy(random.Random(seed)),
    "degree-greedy": lambda n, a, b, seed: DegreeGreedyStrategy(),
    "path-greedy": lambda n, a, b, seed: PathGreedyStrategy(2),
    "d2-simple-maker": lambda n, a, b, seed: D2SimpleMaker(n, a, b),
}


@pytest.mark.parametrize("maker_id", LIVE_PROPERTY_MAKERS)
@pytest.mark.parametrize("n,a,b,seed", [(9, 1, 1, 0), (24, 2, 1, 1), (40, 2, 3, 2)])
def test_live_properties_match_graph_metrics(maker_id, n, a, b, seed):
    """After every turn of a seeded match, each property on the live board
    agrees with graph_metrics on the validated Maker graph, and with networkx,
    which shares no code with either.  From n = 24 on, every property is seen
    both failing and holding."""
    state = new_game(n, a, b)
    maker = LIVE_PROPERTY_MAKERS[maker_id](n, a, b, seed)
    breaker = RandomStrategy(random.Random(seed + 1))
    props = [diameter_at_most(2), diameter_at_most(3)] + [min_degree_exceeds(k) for k in (0, 1, 3)]
    seen = set()
    while not state.is_exhausted():
        play_random_turn(state, maker, breaker)
        g = maker_graph(state)
        full, min_degree = diameter(g), degree_profile(g).min_degree
        h = nx.Graph(sorted(state.maker_edges))
        h.add_nodes_from(range(n))
        assert full == (nx.diameter(h) if nx.is_connected(h) else math.inf)
        assert min_degree == min(deg for _, deg in h.degree)
        expected = [full <= 2, full <= 3, min_degree > 0, min_degree > 1, min_degree > 3]
        for prop, want in zip(props, expected):
            assert prop(state) == want, (prop.property_id, len(state.move_log))
            seen.add((prop.property_id, want))
    if n >= 24:
        assert len(seen) == 2 * len(props)


class TestProperties:
    def test_diameter_property_on_small_graphs(self):
        state = new_game(3, 1, 1)
        prop = diameter_at_most(2)
        assert not prop(state)
        apply_claim(state, Player.MAKER, [(0, 1)])
        apply_claim(state, Player.BREAKER, [(1, 2)])
        apply_claim(state, Player.MAKER, [(0, 2)])
        assert prop(state)

    def test_min_degree_property(self):
        state = new_game(3, 3, 1)
        prop = min_degree_exceeds(1)
        assert not prop(state)
        apply_claim(state, Player.MAKER, [(0, 1), (0, 2), (1, 2)])
        assert prop(state)

    @pytest.mark.parametrize(
        "pid", ["diameter<=2", "diameter<=3", "mindeg>0", "mindeg>17"]
    )
    def test_property_ids_parse(self, pid):
        prop = property_from_id(pid)
        assert callable(prop)
        assert prop.property_id == pid

    @pytest.mark.parametrize("pid", [
        "diameter<=", "mindeg>x", "girth>=5", "", "diameter<=x", "mindeg>",
        "diameter<=2<=3", "diameter<=-3", "mindeg>-1", "diameter<=2 ", " mindeg>1", "diameter<=+2",
    ])
    def test_bad_property_ids_rejected(self, pid):
        """Ids that used to raise ValueError, parse a prefix ("diameter<=2<=3"
        as diameter<=2) or target a negative bound now raise InvalidParameters."""
        with pytest.raises(InvalidParameters, match="property id"):
            property_from_id(pid)


class TestRunMatch:
    def test_maker_win_recorded(self, rng):
        state = new_game(5, 3, 1)
        tr = run_match(
            state,
            RandomStrategy(rng),
            RandomStrategy(rng),
            diameter_at_most(2),
            seed=1,
        )
        assert tr.winner in (Player.MAKER, Player.BREAKER)
        assert tr.rounds >= 1
        assert tr.n == 5 and tr.a == 3 and tr.b == 1

    def test_requires_fresh_state(self, rng):
        state = new_game(4, 1, 1)
        apply_claim(state, Player.MAKER, [(0, 1)])
        with pytest.raises(GameError):
            run_match(
                state,
                RandomStrategy(rng),
                RandomStrategy(rng),
                diameter_at_most(2),
            )

    def test_early_stop_halts_at_first_win(self, rng):
        state = new_game(6, 2, 1)
        tr = run_match(
            state,
            RandomStrategy(rng),
            RandomStrategy(rng),
            diameter_at_most(3),
            seed=3,
            early_stop=True,
        )
        if tr.winner is Player.MAKER:
            claimed = sum(len(rec.edges) for rec in tr.claims)
            assert claimed < edge_count(6)

    def test_observer_sees_every_completed_round(self, rng):
        calls = []
        state = new_game(5, 1, 1)
        tr = run_match(
            state,
            RandomStrategy(rng),
            RandomStrategy(rng),
            diameter_at_most(2),
            seed=5,
            early_stop=False,
            round_observer=lambda st: calls.append(len(st.move_log)),
        )
        assert len(calls) == tr.rounds
        assert calls == sorted(calls)

    def test_strategy_fault_attributed(self, rng):
        class Broken:
            name = "broken"
            annotations = []

            def select(self, state):
                raise GameError("boom")

        state = new_game(4, 1, 1)
        tr = run_match(state, Broken(), RandomStrategy(rng), diameter_at_most(2))
        assert tr.fault is Player.MAKER
        assert tr.winner is Player.BREAKER

    def test_fault_verdict_is_judged_on_the_recorded_board(self):
        # Maker's second claim takes (2, 3), then fails on Breaker's (0, 3).
        # The rejected claim must leave no trace: with (2, 3) on the board
        # every vertex has a Maker edge and the recorded verdict would be True,
        # while the transcript, which lacks the claim, replays to False.
        class Scripted:
            name = "scripted"

            def __init__(self):
                self.turns = iter([[(0, 1), (0, 2)], [(2, 3), (0, 3)]])

            def select(self, state):
                return next(self.turns)

        state = new_game(4, 2, 1)
        tr = run_match(state, Scripted(), LowestEdgeStrategy(), min_degree_exceeds(0), early_stop=False)
        assert tr.fault is Player.MAKER
        assert tr.winner is Player.BREAKER and not tr.verdict
        assert state.maker_edges == {(0, 1), (0, 2)}
        _, verdict = replay_transcript(tr, property_from_id(tr.property_id))
        assert verdict == tr.verdict


class TestTranscripts:
    def _round_trip(self, tr: Transcript) -> Transcript:
        return transcript_from_jsonl(tr.to_jsonl())

    def test_jsonl_round_trip(self, rng):
        state = new_game(5, 2, 1)
        tr = run_match(
            state, RandomStrategy(rng), RandomStrategy(rng), diameter_at_most(2), seed=7
        )
        back = self._round_trip(tr)
        assert back.winner is tr.winner
        assert back.claims == tr.claims
        assert back.to_jsonl() == tr.to_jsonl()

    def test_jsonl_lines_are_json(self, rng):
        state = new_game(4, 1, 1)
        tr = run_match(
            state, RandomStrategy(rng), RandomStrategy(rng), diameter_at_most(2), seed=9
        )
        for line in tr.to_jsonl().strip().splitlines():
            json.loads(line)

    def test_write_and_read(self, tmp_path, rng):
        state = new_game(5, 1, 2)
        tr = run_match(
            state,
            RandomStrategy(rng),
            RandomStrategy(rng),
            min_degree_exceeds(1),
            seed=11,
        )
        path = tmp_path / "match.jsonl"
        tr.write(path)
        assert read_transcript(path).to_jsonl() == tr.to_jsonl()

    def test_replay_agrees_with_recorded_verdict(self, rng):
        for seed in range(6):
            state = new_game(6, 2, 1)
            tr = run_match(
                state,
                RandomStrategy(rng),
                RandomStrategy(rng),
                diameter_at_most(2),
                seed=seed,
            )
            _, verdict = replay_transcript(tr, property_from_id(tr.property_id))
            assert verdict == (tr.winner is Player.MAKER)


# --- claim-line encoder -------------------------------------------------------

TRANSCRIPT_DIR = Path(__file__).resolve().parent.parent / "transcripts"


def _reference_claim_line(rec: TurnRecord) -> str:
    """The json.dumps encoding of a claim record, which to_jsonl writes by hand."""
    return json.dumps(
        {"type": "claim", "turn": rec.turn, "player": rec.player.value, "edges": [list(e) for e in rec.edges]},
        sort_keys=True,
        separators=(",", ":"),
    )


class _ClaimsTakenEdge:
    """Claims (0, 1), then (0, 2), which lowest-edge Breaker has taken by then."""

    name = "claims-taken-edge"

    def __init__(self):
        self.turns = iter([[(0, 1)], [(0, 2)]])

    def select(self, state):
        return next(self.turns)


def _seeded_match(n, a, b, first, early_stop, seed):
    state = new_game(n, a, b, first=first)
    return run_match(
        state,
        RandomStrategy(random.Random(seed)),
        RandomStrategy(random.Random(seed + 1)),
        diameter_at_most(2),
        seed=seed,
        early_stop=early_stop,
    )


def _faulted_match():
    tr = run_match(new_game(5, 1, 1), _ClaimsTakenEdge(), LowestEdgeStrategy(), diameter_at_most(2))
    assert tr.fault is Player.MAKER and len(tr.claims) == 2
    return tr


def _early_stopped_match():
    tr = _seeded_match(12, 3, 1, Player.MAKER, True, 4)
    assert tr.verdict and sum(len(rec.edges) for rec in tr.claims) < edge_count(12)
    return tr


def _hand_built_transcript():
    """Vertex labels of 1 to 4 digits, on a board no match here reaches."""
    claims = [
        TurnRecord(turn=1, player=Player.BREAKER, edges=[(0, 7), (8, 9)]),
        TurnRecord(turn=2, player=Player.MAKER, edges=[(5, 42), (10, 99)]),
        TurnRecord(turn=3, player=Player.BREAKER, edges=[(99, 100), (123, 999)]),
        TurnRecord(turn=4, player=Player.MAKER, edges=[(999, 1000), (1234, 9999)]),
    ]
    return Transcript(
        n=10_000, a=2, b=2, first=Player.BREAKER, maker_id="scripted", breaker_id="scripted",
        seed=None, property_id="diameter<=2", claims=claims, verdict=False,
        winner=Player.BREAKER, rounds=2,
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: _seeded_match(7, 1, 1, Player.MAKER, False, 0),
        lambda: _seeded_match(7, 1, 1, Player.BREAKER, False, 1),
        lambda: _seeded_match(9, 2, 3, Player.MAKER, False, 2),
        lambda: _seeded_match(9, 3, 2, Player.BREAKER, False, 3),
        _early_stopped_match,
        _faulted_match,
        _hand_built_transcript,
    ],
    ids=["maker-first", "breaker-first", "bias-2-3", "bias-3-2-breaker-first", "early-stop", "fault", "hand-built"],
)
def test_claim_lines_match_json_encoder(make):
    """Every claim line is byte for byte what json.dumps writes, and the text round-trips."""
    tr = make()
    text = tr.to_jsonl()
    lines = text.splitlines()
    assert lines[1:-1] == [_reference_claim_line(rec) for rec in tr.claims]
    back = transcript_from_jsonl(text)
    assert back.claims == tr.claims
    assert back.to_jsonl() == text


@pytest.mark.parametrize("path", sorted(TRANSCRIPT_DIR.glob("*.jsonl")), ids=lambda p: p.name)
def test_shipped_transcript_reserialises_byte_identically(path):
    text = path.read_text()
    tr = read_transcript(path)
    assert [_reference_claim_line(rec) for rec in tr.claims] == text.splitlines()[1:-1]
    assert tr.to_jsonl() == text


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=7),
    a=st.integers(min_value=1, max_value=3),
    b=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_match_is_reproducible(n, a, b, seed):
    """Same seeds, same strategies, byte-identical transcript."""
    import random

    runs = []
    for _ in range(2):
        state = new_game(n, a, b)
        tr = run_match(
            state,
            RandomStrategy(random.Random(seed)),
            RandomStrategy(random.Random(seed + 1)),
            diameter_at_most(2),
            seed=seed,
            early_stop=False,
        )
        runs.append(tr.to_jsonl())
    assert runs[0] == runs[1]
