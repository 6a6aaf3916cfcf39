#!/usr/bin/env python3
"""Benchmark of the diameter-games program, run from the root of a checkout.

    python3 perfbench/run.py --workload sim-full --seed 1 --seconds 25 --trace 0

It imports the program from ./src, builds the workload's inputs from
--seed, and plays whole rounds of the workload's operations until another
round would overrun --seconds.  Times are corrected for the host's speed
while they were taken (speed.py).  With --trace 0 the last line of standard
output is a JSON object with the end-to-end metrics (setup_s, wall_s,
peak_rss_mb).  With --trace 1 every round is played untraced and then
traced, the two runs' outputs must be byte-identical, and the metrics are
the per-layer ones, also printed as a table above the last line.  Every operation's output is checked by the
benchmark's own code (checks.py); see README.md.
"""

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedMeter

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 7


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="set up, print 'ready' and exit")
    return p.parse_args()


def import_program():
    if not (SRC / "diameter_games" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'diameter_games'}; run from a checkout's root")
    sys.path.insert(0, str(SRC))
    import diameter_games

    if Path(diameter_games.__file__).resolve().parent != (SRC / "diameter_games").resolve():
        sys.exit(f"perfbench: imported {diameter_games.__file__}, not the checkout's source")


def set_up(args):
    """Import the program, build the run's operations and warm up."""
    import_program()
    import workloads  # imports the program, so only after import_program()

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    ops = workload.ops()
    workload.warmup()
    return workloads, workload, ops


def setup_samples(args) -> list[tuple[float, float]]:
    """Process start to the first timed operation, in fresh processes.

    Each sample is (raw seconds, seconds corrected by the child's own
    speed samples during its set-up)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        word, *numbers = line.split()
        if word != "ready" or proc.returncode != 0:
            sys.exit(f"perfbench: set-up run failed with code {proc.returncode}")
        paused, slowdown = map(float, numbers)
        samples.append((elapsed, (elapsed - paused) / slowdown))
    return samples


def play(op, tracer, meter=None):
    """Run one operation; returns (record, failure, payload, seconds, slowdown).

    With a meter, seconds leave out the meter's own samples and slowdown is
    the host's during the operation; without one, slowdown is 1."""

    def call():
        try:
            return op.run(tracer)
        except Exception as exc:  # an operation that raises counts as failed; the run goes on
            traceback.print_exc(file=sys.stderr)
            return f"raised {type(exc).__name__}: {exc}", "raised", None

    if meter is not None:
        (record, failure, payload), seconds, slowdown = meter.run(call)
        return record, failure, payload, seconds, slowdown
    start = time.perf_counter()
    record, failure, payload = call()
    return record, failure, payload, time.perf_counter() - start, 1.0


def layer_metrics(tracer, first_span: int, round_wall: float, untraced: list[float],
                  slowdowns: list[float]) -> dict:
    """Per-layer values of one traced round; `untraced` and `slowdowns` are the
    untraced round's per-operation times and host slowdowns."""
    untraced_wall = sum(untraced)
    total, own, calls = tracer.totals(first_span)
    counts = tracer.counts
    claims = counts.get("game_core.claims", 0)
    apply_s = total.get("game_core.apply_claim", 0.0)
    scripted = counts.get("exact_solver.scripted_nodes", 0)
    m = {
        "harness.self_s": own.get("harness.run_experiment", 0.0),
        "harness.observer_s": total.get("harness.observer", 0.0),
        "game_core.apply_claim_s": apply_s,
        "game_core.claims": claims,
        "game_core.apply_claim_us_per_claim": 1e6 * apply_s / claims if claims else 0.0,
        "game_core.maker_graph_s": total.get("game_core.maker_graph", 0.0),
        "game_core.maker_graph_calls": calls.get("game_core.maker_graph", 0),
        "game_core.run_match_self_s": own.get("game_core.run_match", 0.0),
        "graph_metrics.property_s": total.get("graph_metrics.property", 0.0),
        "graph_metrics.property_calls": calls.get("graph_metrics.property", 0),
        "graph_metrics.has_expansion_s": total.get("graph_metrics.has_expansion", 0.0),
        "graph_metrics.has_expansion_calls": calls.get("graph_metrics.has_expansion", 0),
        "graph_metrics.graph_from_edges_s": total.get("graph_metrics.graph_from_edges", 0.0),
    }
    for layer in ("degree_games", "heuristics", "diameter2", "expansion_games", "potential_engine"):
        m[f"{layer}.select_s"] = total.get(f"{layer}.select", 0.0)
        m[f"{layer}.select_calls"] = calls.get(f"{layer}.select", 0)
    m.update({
        "exact_solver.solve_s": total.get("exact_solver.solve", 0.0),
        "exact_solver.states_visited": counts.get("exact_solver.states_visited", 0),
        "exact_solver.memo_entries": counts.get("exact_solver.memo_entries", 0),
        "exact_solver.verify_self_s": own.get("exact_solver.verify", 0.0),
        "exact_solver.scripted_nodes": scripted,
        "exact_solver.scripted_distinct_share": (
            counts.get("exact_solver.scripted_distinct", 0) / scripted if scripted else 0.0
        ),
        "trace.wall_s": round_wall,
        "trace.overhead_s": round_wall - untraced_wall,
        "host.slowdown": untraced_wall / sum(t / slow for t, slow in zip(untraced, slowdowns)),
    })
    return m


UNITS = {"_s": "s", "_calls": "count", "_share": "share", "_us_per_claim": "us", "slowdown": "x"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main() -> int:
    args = parse_args()
    if args.setup_only:
        meter = SpeedMeter()
        _, _, slowdown = meter.run(lambda: set_up(args))
        print(f"ready {meter.paused} {slowdown}", flush=True)
        return 0
    workloads, workload, ops = set_up(args)
    setup = setup_samples(args)
    meter = SpeedMeter()

    from spans import Tracer

    tracer = Tracer() if args.trace else None
    attempted = failed = 0
    correct = True
    first_records: list[str] | None = None
    times: list[list[float]] = []
    slowdowns: list[list[float]] = []
    costs: list[float] = []
    per_round: list[dict] = []
    failures: list[dict] = []
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        outcomes = [play(op, None, meter) for op in ops]
        times.append([o[3] for o in outcomes])
        slowdowns.append([o[4] for o in outcomes])
        records = [o[0] for o in outcomes]
        if first_records is None:
            first_records = records
        elif records != first_records:
            correct = False
            print(f"perfbench: round {len(times) - 1} gave other outputs than round 0", file=sys.stderr)
        if tracer is not None:
            first_span = len(tracer.start)
            tracer.counts = {}
            traced_wall = 0.0
            for op_id, (op, record) in enumerate(zip(ops, records)):
                tracer.op_id = op_id
                traced_record, traced_failure, _payload, seconds, _ = play(op, tracer)
                traced_wall += seconds
                attempted += 1
                failed += traced_failure is not None
                if traced_record != record:
                    correct = False
                    print(f"perfbench: {op.label}: traced output differs from untraced", file=sys.stderr)
            per_round.append(layer_metrics(tracer, first_span, traced_wall, times[-1], slowdowns[-1]))
        for op, (record, failure, payload, _seconds, _slowdown) in zip(ops, outcomes):
            attempted += 1
            if failure is None:
                try:
                    op.check(payload)
                except workloads.checks.CheckFailed as exc:
                    failure = f"check failed: {exc}"
                    correct = False
            if failure is not None:
                failed += 1
                failures.append({"round": len(times) - 1, "op": op.label, "failure": failure})
                print(f"perfbench: {op.label}: {failure}", file=sys.stderr)
        costs.append(time.perf_counter() - round_start)
        if time.perf_counter() - started + statistics.median(costs) > args.seconds:
            break
    try:
        workload.final_check()
    except workloads.checks.CheckFailed as exc:
        correct = False
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)

    if tracer is None:
        # Each operation's median corrected time over the run's rounds, which all play the same inputs.
        corrected = [[t / slow for t, slow in zip(ts, ss)] for ts, ss in zip(times, slowdowns)]
        values = {
            "setup_s": (statistics.median(c for _raw, c in setup), "s"),
            "wall_s": (sum(statistics.median(column) for column in zip(*corrected)), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        values = {k: (statistics.median(r[k] for r in per_round), unit_of(k)) for k in per_round[0]}
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    digest = hashlib.sha256("\n".join(first_records).encode()).hexdigest()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "digest": digest,
        "setup_samples": setup, "operations": [op.label for op in ops], "op_seconds": times,
        "op_slowdowns": slowdowns,
        "per_round": per_round, "failures": failures,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(run_record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    print(f"digest {digest} rounds {len(times)}")
    if tracer is not None:
        for name, (value, unit) in values.items():
            print(f"{name:40} {value:14.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
