#!/usr/bin/env python3
"""Steadiness check for the benchmark.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workloads a,b] [--seconds S]

Runs `perfbench/run.py` (untraced) `--runs` times per workload with a new
seed each time, in `--sets` sets, and prints for every end-to-end metric
each set's median and quartiles, the interquartile spread as a share of the
median against the metric's bound (target: below a third of it), and the
drift of each later set's median from the first's against the bound. It
also prints each set's share of failed operations. Exits 1 if a spread or
a drift exceeds its bound, or the failed shares differ. The shares are
compared exactly: a workload is kept only if its operations never fail, or
one fails in every round, so its share is the same in every run. Prints a markdown table for the README with
--markdown.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: run.py exited {out.returncode}")
    return json.loads(lines[-1])


def stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--markdown", action="store_true")
    args = ap.parse_args()

    metrics = spec["end_to_end"]
    ok = True
    table = []
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = args.first_seed + 1000 * s + i
                r = run_once(workload, seed, args.seconds)
                runs.append(r)
                vals = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
                print(f"{workload} set {s + 1} seed {seed}: {vals}", file=sys.stderr)
            sets.append(runs)
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        if len(set(shares)) > 1:
            ok = False
        print(f"\n{workload}: failed share per set {shares}"
              f"{'' if len(set(shares)) == 1 else '  <-- DIFFER'}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            per_set = [stats([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            first = per_set[0][0]
            cells = []
            for k, (med, q1, q3) in enumerate(per_set):
                spread = (q3 - q1) / med
                worse = (first - med) / first if m["better"] == "higher" else (med - first) / first
                spread_ok = spread <= bound
                drift_ok = k == 0 or worse <= bound
                ok &= spread_ok and drift_ok
                flag = "" if spread_ok and drift_ok else "  <-- OVER BOUND"
                target = "" if spread < bound / 3 else " (above bound/3)"
                print(f"  {name:14s} set {k + 1}: median {med:.5g} q1 {q1:.5g} q3 {q3:.5g}"
                      f" spread {spread:.3f}{target} drift {worse:+.3f} bound {bound}{flag}")
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] {100 * spread:.1f}%")
            table.append(f"| {workload} | {name} | " + " | ".join(cells) + f" | {bound} |")
    if args.markdown:
        heads = " | ".join(f"set {k + 1}: median [q1, q3] spread" for k in range(args.sets))
        print(f"\n| workload | metric | {heads} | bound |")
        print("|---|---|" + "---|" * args.sets + "---|")
        print("\n".join(table))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
