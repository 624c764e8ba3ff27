#!/usr/bin/env python3
"""Run the benchmark over several workloads and seeds, saving each run's output.

    python3 perfbench/sweep.py --out .bench_runs/a [--workloads w1,w2]
                               [--seeds 1-10] [--trace 0] [--seconds N]

Runs the command from BENCHMARK.json once per (workload, seed), one at a
time, from the repository root, and stores each run's stdout as
<out>/<workload>-s<seed>-t<trace>.out. Compare sets with compare.py.
Standard library only.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_range(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="directory for the run outputs")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10", type=seed_range)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--seconds", default=str(bench["run_seconds"]))
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    failures = 0
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", args.seconds, "--trace", args.trace,
            ]
            started = time.monotonic()
            run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            took = time.monotonic() - started
            path = os.path.join(args.out, f"{workload}-s{seed}-t{args.trace}.out")
            with open(path, "w") as f:
                f.write(run.stdout)
            status = "ok" if run.returncode == 0 else f"exit {run.returncode}"
            print(f"{workload} seed {seed}: {status} in {took:.1f}s", flush=True)
            if run.returncode != 0:
                failures += 1
                sys.stderr.write(run.stderr[-2000:])
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
