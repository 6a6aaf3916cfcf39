"""The traced benchmark's layer patches against the program they rebind.

perfbench/spans.py::layer_patches rebinds module-level names of the
program (game_core.apply_claim, game_core.maker_graph, harness.run_match)
and wraps the target property and the strategies.  A traced match must
write the same transcript, byte for byte, as an untraced one.  This test
reads perfbench's modules and changes nothing there, so renaming or
deleting a name the benchmark rebinds fails here.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path[:0] = [str(PERFBENCH)]

import spans  # noqa: E402
import workloads  # noqa: E402
from diameter_games import game_core, harness  # noqa: E402


@pytest.mark.parametrize(
    "spec",
    [
        workloads.SimEarlyStop(0).spec(30, "degree-greedy", 3),
        workloads.SimFull(0).spec(30, 7, 0),
    ],
    ids=["sim-early-stop", "sim-full"],
)
def test_traced_match_is_byte_identical(spec):
    rebound = (game_core.apply_claim, game_core.maker_graph, harness.run_match)
    op = workloads.match_op(spec, lambda replay: None)
    untraced, failure, _ = op.run(None)
    assert failure is None
    tracer = spans.Tracer()
    traced, failure, _ = op.run(tracer)
    assert failure is None
    assert traced == untraced
    _, _, calls = tracer.totals()
    assert calls["game_core.run_match"] == 1
    assert calls["game_core.apply_claim"] > 0 and calls["graph_metrics.property"] > 0
    # The property reads the live board: run_match builds no Maker graph.
    assert "game_core.maker_graph" not in calls
    assert (game_core.apply_claim, game_core.maker_graph, harness.run_match) == rebound
