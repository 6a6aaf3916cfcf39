#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's median and quartiles.

    python3 perfbench/spread.py --seeds 1-10 [--workloads sim-full exact-solve] [--trace 1]

Runs one process at a time, from the checkout root, with BENCHMARK.json's
command and run_seconds.  For every workload and metric it prints the
median, the first and third quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median, which BENCHMARK.json's bound must exceed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            runs.append(result)
            print(workload, seed, json.dumps(result), file=sys.stderr, flush=True)
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med if med else 0.0, "values": values}
            bound = bounds.get(name)
            note = "" if bound is None else f"  bound {bound}  ({(q3 - q1) / med / bound:.2f} of it)"
            print(f"{workload:15} {name:40} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {rows[name]['spread']:.4f}{note}")
        report[workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": rows,
        }
        print(f"{workload:15} correct {report[workload]['correct']}  attempted {report[workload]['attempted']}"
              f"  failed {report[workload]['failed']}", flush=True)
    out = Path(".perfbench") / f"spread-trace{args.trace}-seeds{args.seeds[0]}-{args.seeds[-1]}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
