#!/usr/bin/env python3
"""End-to-end training benchmark for lipizzaner-rs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--toy]

Run from the repository root. Builds the `perfbench` package (cargo,
offline, into $CARGO_TARGET_DIR or `.bench_build`), then:

  --trace 0  repeats whole training runs of the workload, each in a fresh
             process, for about S seconds and reports the medians of the
             end-to-end metrics;
  --trace 1  runs the workload once untraced, then the traced run, and
             reports the per-layer metrics with the attribution residual.

Distributed workloads first train the same config and seed with the
sequential driver; every run's saved ensemble must equal it byte for byte.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".perfbench_work"
# Workloads checked against a sequential-driver run of the same config.
NEEDS_REFERENCE = ("inproc-1x2-sync-exchange", "inproc-1x2-async-ckpt")
# No child may outlive this; the whole run must end within 180 s.
CHILD_TIMEOUT_S = 150


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Build the measuring binary and return its path (None on failure)."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH_DIR / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    binary = target / "release" / "perfbench"
    if done.returncode != 0 or not binary.is_file():
        log("build failed")
        return None
    return binary


def run_child(argv):
    """Run one measuring process in its own process group; return the JSON
    object it printed last, or None if it failed. The group is killed on
    timeout so no slave process outlives its master."""
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"timed out: {' '.join(map(str, argv))}")
        return None
    finally:
        # Reap anything the child left in its group (its slaves).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = [l for l in out.splitlines() if l.startswith("{")]
    if proc.returncode != 0 or not lines:
        log(f"exit {proc.returncode}: {' '.join(map(str, argv))}")
        return None
    return json.loads(lines[-1])


class Tally:
    """Operations attempted and failed, and whether every output checked."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def record(self, result):
        """Count one operation. A crash is a failure; a run that completed
        but whose output failed its checks is a failure and incorrect."""
        self.attempted += 1
        if result is None:
            self.failed += 1
            return False
        if not result.get("ok", False):
            log(f"check failed: {result.get('error')}")
            self.failed += 1
            self.correct = False
            return False
        return True


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end(reps):
    """Medians over the repetitions of the end-to-end metrics."""
    med = statistics.median
    return {
        "samples_per_s": med([r["samples"] / r["loop_s"] for r in reps]),
        "wall_s": med([r["wall_s"] for r in reps]),
        "setup_s": med([r["setup_s"] for r in reps]),
        "peak_rss_mb": med([r["peak_rss_kb"] / 1024.0 for r in reps]),
    }


def main():
    bench = spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="tiny networks and data (the benchmark's own tests)")
    args = ap.parse_args()

    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    binary = build()
    if binary is None:
        return 1
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, binary, work, e2e_units, layer_units)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, binary, work, e2e_units, layer_units):
    common = ["--workload", args.workload, "--seed", str(args.seed)] + (
        ["--toy"] if args.toy else [])
    tally = Tally()
    reference = []
    if args.workload in NEEDS_REFERENCE:
        ref = work / "reference.lpz"
        if not tally.record(run_child([binary, "reference", *common, "--out", ref])):
            log("the sequential reference run failed")
            return 1
        reference = ["--reference", ref]

    def rep(i):
        result = run_child([binary, "rep", *common, "--work", work / f"rep{i}", *reference])
        tally.record(result)
        return result

    if args.trace:
        untraced = rep(0)
        if untraced is None:
            return 1
        traced = run_child([binary, "trace", *common, "--work", work / "trace",
                            "--untraced-loop-s", repr(untraced["loop_s"]),
                            "--untraced-out", untraced["out"]])
        tally.record(traced)
        if traced is None:
            return 1
        values, wanted = traced["metrics"], layer_units
    else:
        reps, durations = [], []
        start = time.monotonic()
        while True:
            t = time.monotonic()
            r = rep(len(durations))
            durations.append(time.monotonic() - t)
            if r is not None and r["ok"]:
                reps.append(r)
            # Start another run only if it should end within the budget.
            if time.monotonic() - start + statistics.median(durations) > args.seconds:
                break
        if not reps:
            return 1
        values, wanted = end_to_end(reps), e2e_units
        log(f"{len(reps)} runs: " + ", ".join(
            f"{k}={v:.4g}" for k, v in values.items()))

    missing = [m for m in wanted if values.get(m) is None]
    if missing:
        log(f"missing metrics: {missing}")
        return 1
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
