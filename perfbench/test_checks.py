"""Tests of the benchmark's own output checks.

    python3 -m pytest -q perfbench/test_checks.py

Each check must accept the program's real output and reject a tampered
copy of it, and each weak scripted side must be refuted by its verifier.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402


def match_text(spec: dict) -> str:
    record, failure, _ = workloads.match_op(spec, lambda replay: None).run(None)
    assert failure is None
    return record


@pytest.fixture(scope="module")
def full_game():
    return match_text(workloads.SimFull(0).spec(30, 7, 0))


@pytest.fixture(scope="module")
def breaker_win():
    return match_text(workloads.SimEarlyStop(0).spec(30, "degree-greedy", 3))


def tamper(text: str, edit) -> str:
    records = [json.loads(line) for line in text.splitlines()]
    edit(records)
    return "\n".join(json.dumps(r) for r in records) + "\n"


def test_real_transcripts_pass(full_game, breaker_win):
    replay = checks.replay_transcript(full_game, early_stop=False)
    assert replay["foot"]["verdict"] is True
    replay = checks.replay_transcript(breaker_win, early_stop=True)
    assert replay["foot"]["winner"] == "breaker"


def test_edge_claimed_twice_is_rejected(full_game):
    def edit(records):
        records[3]["edges"][0] = records[1]["edges"][0]

    with pytest.raises(CheckFailed, match="claimed twice"):
        checks.replay_transcript(tamper(full_game, edit), early_stop=False)


@pytest.mark.parametrize("game", ["full_game", "breaker_win"])
def test_flipped_verdict_is_rejected(game, request):
    def edit(records):
        foot = records[-1]
        foot["verdict"] = not foot["verdict"]
        foot["winner"] = "maker" if foot["verdict"] else "breaker"

    with pytest.raises(CheckFailed, match="recomputed"):
        checks.replay_transcript(tamper(request.getfixturevalue(game), edit), early_stop=False)


def test_wrong_turn_size_is_rejected(full_game):
    def edit(records):
        records[1]["edges"] = records[1]["edges"][:1]

    with pytest.raises(CheckFailed, match="expected 2"):
        checks.replay_transcript(tamper(full_game, edit), early_stop=False)


def test_unfinished_breaker_win_is_rejected(breaker_win):
    def edit(records):
        del records[-3:-1]
        records[-1]["rounds"] -= 1

    with pytest.raises(CheckFailed, match="unclaimed"):
        checks.replay_transcript(tamper(breaker_win, edit), early_stop=True)


def test_low_minimum_degree_breaks_the_guarantee():
    sim = workloads.SimFull(0)
    replay = {"maker_adj": checks.adjacency(200, [(0, v) for v in range(1, 200)])}
    with pytest.raises(CheckFailed, match="minimum degree"):
        sim.guarantee(replay)


def test_wrong_solver_value_is_rejected():
    reference = workloads.ExactSolve(0).reference()
    values = {key: reference[key] for key in reference if key[0] == 5}
    checks.check_solve_values(values, reference)
    values[(5, 1, 1, 2, "maker")] = "maker"
    with pytest.raises(CheckFailed):
        checks.check_solve_values(values, reference)


def test_non_monotone_values_are_rejected():
    values = {(5, 1, 1, 3, "maker"): "maker", (5, 2, 1, 3, "maker"): "breaker"}
    with pytest.raises(CheckFailed, match="Maker wins"):
        checks.check_monotone(values)


def test_minimax_small_boards():
    assert checks.minimax(3, 1, 1, 2, "maker") == "maker"
    assert checks.minimax(4, 1, 1, 2, "maker") == "breaker"
    assert checks.minimax(4, 2, 1, 2, "maker") == "maker"


@pytest.mark.parametrize(
    "op",
    [
        workloads.pairing_op(5, weak=True),
        workloads.expansion_op(5, 1, 3, 1, 1, weak=True),
        workloads.family_op("weak-family-breaker", 3, [(1, 2)], 1, 1, workloads.lowest_position,
                            workloads.Player.BREAKER, False),
        workloads.family_op("weak-family-maker", 4, [(0, 1), (2, 3)], 1, 1, workloads.lowest_position,
                            workloads.Player.MAKER, False),
    ],
    ids=["one-sided", "final-property", "family-breaker", "family-maker"],
)
def test_weak_sides_are_refuted(op):
    record, failure, ok = op.run(None)
    assert failure is None and ok is False
    op.check(ok)
    with pytest.raises(CheckFailed):
        op.check(True)
