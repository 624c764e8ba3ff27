#!/usr/bin/env python3
"""Summarise one set of benchmark runs, or compare two, against BENCHMARK.json.

    python3 perfbench/compare.py RUNS_A [RUNS_B]

Each RUNS directory holds run outputs as written by sweep.py (any *.out
file whose last line is a result). For every workload and metric this
prints the median and quartiles of each set. With one set it also prints the
spread (interquartile range over median) against the metric's bound. With
two, it says whether B's median is within the bound of A's: "agree", "worse"
or "better", and "unresolved" where either set's spread exceeds the bound.
Runs of one workload and seed, traced or not, must report the same output
digest. Exits 1 if any end-to-end metric is worse or any digests differ.
Standard library only.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory, digests):
    """{(workload, trace): {metric: [values]}} from a directory of runs.

    Also collects each run's replay digest into `digests`, keyed by
    (workload, seed): traced and untraced runs of one seed must agree.
    """
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.out"))):
        with open(path) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        if len(lines) < 2:
            print(f"skipping {path}: no result", file=sys.stderr)
            continue
        prov = json.loads(lines[-2])["provenance"]
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"skipping {path}: incorrect run", file=sys.stderr)
            continue
        key = (prov["workload"], bool(prov["trace"]))
        digests.setdefault((prov["workload"], prov["seed"]), set()).add(prov["replay"]["digest"])
        metrics = runs.setdefault(key, {})
        for name, m in result["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    digests = {}
    sets = [load(d, digests) for d in sys.argv[1:]]
    worse = False
    for (workload, seed), seen in sorted(digests.items()):
        if len(seen) > 1:
            print(f"{workload} seed {seed}: output digests differ between runs: {sorted(seen)}")
            worse = True
    for key in sorted(sets[0]):
        workload, traced = key
        print(f"== {workload}{' (traced)' if traced else ''}")
        for name, values in sets[0][key].items():
            m = spec.get(name, {})
            bound = m.get("bound")
            a = summary(values)
            line = f"  {name:32} n={len(values):2} {a[0]:12.5g} [{a[1]:.5g}, {a[2]:.5g}]"
            if len(sets) == 1:
                if bound is not None:
                    line += f"  spread {a[3]:.3f} / bound {bound} ({a[3] / bound:.2f} of it)"
                print(line)
                continue
            other = sets[1].get(key, {}).get(name)
            if not other:
                print(line + "  (missing in B)")
                continue
            b = summary(other)
            line += f"  -> {b[0]:12.5g} [{b[1]:.5g}, {b[2]:.5g}]"
            if bound is None:
                print(line)
                continue
            sign = 1 if m["better"] == "lower" else -1
            change = sign * (b[0] - a[0]) / a[0] if a[0] else 0.0
            verdict = "worse" if change > bound else "better" if change < -bound else "agree"
            if max(a[3], b[3]) > bound and name != "setup_s":
                verdict += " (unresolved: spread above bound)"
            if verdict.startswith("worse"):
                worse = True
            print(f"{line}  {change:+.3f} {verdict}")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
