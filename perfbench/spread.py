#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1,2,3 [--seconds S] [--trace 0|1]

For every metric it prints the median of the runs and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the bound BENCHMARK.json gives it and
bound/3, the steadiness target.  Runs are sequential so that they do not
compete for the machine.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds.split(","):
        out = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", args.workload,
             "--seed", seed, "--seconds", str(seconds), "--trace", args.trace],
            capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: run not correct", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)
    print(f"{'metric':34} {'median':>14} {'iqr/med':>9} {'bound':>6} {'bound/3':>8}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        b = f"{bound:6.3f} {bound / 3:8.4f}" if bound is not None else ""
        print(f"{name:34} {med:14.6g} {spread:9.4f} {b}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
