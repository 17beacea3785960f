#!/usr/bin/env python3
"""Determinism probe: does each workload's digest survive OCAMLRUNPARAM=R?

    python3 perfbench/probe.py [--seed N] [--workloads a,b]

Runs every workload once with the default hash seed and once with
randomized hashing (OCAMLRUNPARAM=R) and compares the per-run digest
lines, which hold only simulated statistics.  This is information, not
a gate: the exit code is 0 whether or not the digests match.
"""

import argparse
import os
import subprocess

WORKLOADS = ["fanout", "sharded_reads", "faulty_wan", "sync_contended"]


def digests(workload, seed, randomized):
    env = dict(os.environ)
    if randomized:
        env["OCAMLRUNPARAM"] = "R"
    out = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, env=env, check=True)
    return [l for l in out.stdout.splitlines() if l.startswith("digest ")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()
    for w in args.workloads.split(","):
        default = digests(w, args.seed, False)
        randomized = digests(w, args.seed, True)
        same = default == randomized
        print(f"{w}: {'identical' if same else 'DIFFERS'} under OCAMLRUNPARAM=R")
        if not same:
            for a, b in zip(default, randomized):
                if a != b:
                    print(f"  default:    {a}\n  randomized: {b}")


if __name__ == "__main__":
    main()
