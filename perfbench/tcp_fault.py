#!/usr/bin/env python3
"""Tally of the TCP final-gather fault.

    python3 perfbench/tcp_fault.py [--runs 60] [--first-seed 1] [--toy]

Runs `--runs` TCP 1x2 training runs, seeds `--first-seed` upwards. Each is a
fresh master process with two slave processes, running the program's own
`run_tcp_master_monitored` and `run_tcp_slave` at the make-up of
`inproc-1x2-sync-exchange`. Every saved ensemble gets the benchmark's
property checks. Prints one line per failed run and, last, one JSON object:
the runs, those the master ended as `MasterAbort::SlaveDead`, and those that
failed otherwise. Exits 1 if the build fails or a run fails otherwise.

This is not a benchmark workload: the fault ends a few percent of these
runs at random, so their failed share differs from one set of runs to the
next. See perfbench/README.md.
"""

import argparse
import json
import shutil
import sys

import run

SLAVE_DEAD = "master aborted: slave world rank"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=60)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args()

    binary = run.build()
    if binary is None:
        return 1
    work = run.WORK_ROOT / "tcp-fault"
    slave_dead = other = 0
    try:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            shutil.rmtree(work, ignore_errors=True)
            result = run.run_child(
                [binary, "rep", "--workload", "tcp-1x2-exchange", "--seed", str(seed),
                 "--work", work] + (["--toy"] if args.toy else []))
            if result is not None and result["ok"]:
                continue
            error = "crashed" if result is None else result["error"]
            if error.startswith(SLAVE_DEAD):
                slave_dead += 1
            else:
                other += 1
            print(f"seed {seed}: {error}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"runs": args.runs, "slave_dead": slave_dead, "other_failures": other}))
    return 1 if other else 0


if __name__ == "__main__":
    sys.exit(main())
