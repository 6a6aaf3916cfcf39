"""Core state machine: claims, turn order, transcripts, replay."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diameter_games import (
    AlreadyClaimed,
    GameError,
    InvalidParameters,
    Player,
    RandomStrategy,
    Transcript,
    WrongClaimCount,
    WrongTurn,
    all_edges,
    apply_claim,
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
from diameter_games.game_core import LexCursor


def test_mk_edge_orders_endpoints():
    assert mk_edge(3, 1) == (1, 3)
    assert mk_edge(1, 3) == (1, 3)


def test_all_edges_is_lexicographic():
    edges = all_edges(4)
    assert edges == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert edges == sorted(edges)


def test_lex_cursor_takes_lowest_free_edges_once():
    cursor = LexCursor(4)
    unclaimed = set(all_edges(4)) - {(0, 2)}
    assert cursor.take(unclaimed, 2) == [(0, 1), (0, 3)]
    assert cursor.next_free(unclaimed, skip={(1, 2)}) == (1, 3)
    assert cursor.take(unclaimed, 5) == [(2, 3)]
    assert cursor.next_free(unclaimed) is None
    cursor.reset()
    assert cursor.take(unclaimed, 1) == [(0, 1)]


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


def test_copy_is_independent(fresh_game):
    state = fresh_game(4)
    clone = state.copy()
    apply_claim(state, Player.MAKER, [(0, 1)])
    assert (0, 1) in clone.unclaimed
    assert clone.to_move is Player.MAKER


class TestProperties:
    def test_diameter_property_on_small_graphs(self):
        state = new_game(3, 1, 1)
        prop = diameter_at_most(2)
        assert not prop(maker_graph(state))
        apply_claim(state, Player.MAKER, [(0, 1)])
        apply_claim(state, Player.BREAKER, [(1, 2)])
        apply_claim(state, Player.MAKER, [(0, 2)])
        assert prop(maker_graph(state))

    def test_min_degree_property(self):
        state = new_game(3, 3, 1)
        prop = min_degree_exceeds(1)
        apply_claim(state, Player.MAKER, [(0, 1), (0, 2), (1, 2)])
        assert prop(maker_graph(state))

    @pytest.mark.parametrize(
        "pid", ["diameter<=2", "diameter<=3", "mindeg>0", "mindeg>17"]
    )
    def test_property_ids_parse(self, pid):
        prop = property_from_id(pid)
        assert callable(prop)

    @pytest.mark.parametrize("pid", ["diameter<=", "mindeg>x", "girth>=5", ""])
    def test_bad_property_ids_rejected(self, pid):
        with pytest.raises((InvalidParameters, ValueError)):
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
