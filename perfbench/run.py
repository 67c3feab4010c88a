#!/usr/bin/env python3
"""Benchmark stabparts end to end (and, traced, layer by layer).

    python3 perfbench/run.py --workload paper --seed 1 --seconds 15 --trace 0

Run from the repository root.  The package is imported from ./src.  One run
sets the workload up repeatedly for a second (each time importing the
package afresh and building the seeded inputs), computes the oracle's
answers, then runs whole rounds of the workload's operations, closed loop
with one client, until the operations have taken --seconds.  Every answer is
checked.  An untraced run then sets up for another second, so that setup_s,
the median set-up, samples the machine at both ends of the run.  `--workload all`
runs each workload in its own process, one after another.

--trace 0 prints the end-to-end metrics; --trace 1 runs untraced rounds for
half of --seconds, then traced rounds for the other half, prints the
per-layer metrics (per round) with trace.overhead_s, and writes the spans to
perfbench/out/.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUPS = 3  # each batch of set-ups has at least this many,
SETUP_SECONDS = 1.0  # taking at least this long together

sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def fresh_import() -> None:
    """Import stabparts from ./src, dropping any earlier import first."""
    for name in [m for m in sys.modules if m == "stabparts" or m.startswith("stabparts.")]:
        del sys.modules[name]
    import stabparts
    import stabparts.cli  # noqa: F401  (also imports stabparts.verify)

    if not os.path.abspath(stabparts.__file__).startswith(SRC + os.sep):
        raise ImportError(f"stabparts imported from {stabparts.__file__}, not {SRC}")


class Tally:
    """Operation outcomes and timings over whole rounds."""

    def __init__(self):
        self.rounds: list[tuple[float, float]] = []  # (wall, cpu) of each round
        self.op_seconds: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.wrong: list[str] = []

    def run(self, ops, checks, seconds: float, rec=None) -> None:
        spent = 0.0
        while True:
            gc.collect()
            wall = cpu = 0.0
            for i, (label, call) in enumerate(ops):
                if rec is not None:
                    rec.begin_op(self.attempted)
                self.attempted += 1
                c0, t0 = time.process_time(), time.perf_counter()
                try:
                    result = call()
                except Exception as exc:  # a failed operation is counted, not fatal
                    t1, c1 = time.perf_counter(), time.process_time()
                    self.failed += 1
                    message = (str(exc).splitlines() or [""])[0][:160]
                    self.failures[f"{label}: {type(exc).__name__}: {message}"] += 1
                else:
                    t1, c1 = time.perf_counter(), time.process_time()
                    try:
                        checks[i](result)
                    except Exception as exc:
                        self.wrong.append(f"{label}: {type(exc).__name__}: {exc}")
                self.op_seconds.append(t1 - t0)
                wall += t1 - t0
                cpu += c1 - c0
            self.rounds.append((wall, cpu))
            spent += wall
            if spent >= seconds:
                return


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in a fresh process; one JSON line with every result."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


def set_up(args, workdir: str, setups: list[float]):
    """A batch of timed set-ups, appended to setups; the last workload built."""
    spent = []
    while len(spent) < SETUPS or sum(spent) < SETUP_SECONDS:
        t0 = time.perf_counter()
        fresh_import()
        workload = WORKLOADS[args.workload](args.seed, workdir)
        spent.append(time.perf_counter() - t0)
    setups += spent
    return workload


def run(args, workdir: str) -> int:
    setups: list[float] = []
    workload = set_up(args, workdir, setups)
    checks = workload.checks()
    ops = workload.ops()

    tally = Tally()
    if not args.trace:
        tally.run(ops, checks, args.seconds)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        set_up(args, workdir, setups)  # the rounds are over: a fresh import is safe
        walls = [w for w, _ in tally.rounds]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(c for _, c in tally.rounds), "s"),
            "peak_rss_mb": (peak_rss, "MB"),
        }
        # printed, not gated: see README.md, "Operation latency"
        print(f"op_p50_ms {1000 * statistics.median(tally.op_seconds):.3f} ms "
              f"(over {len(tally.op_seconds)} operations)")
        if len(tally.op_seconds) >= 200:  # at least ten samples beyond it
            p95 = statistics.quantiles(tally.op_seconds, n=20)[-1]
            print(f"op_p95_ms {1000 * p95:.3f} ms")
    else:
        tally.run(ops, checks, args.seconds / 2)
        untraced = statistics.median(w for w, _ in tally.rounds)
        baseline_rounds = len(tally.rounds)
        rec = tracing.Recorder()
        patches = tracing.install(rec)
        try:
            tally.run(ops, checks, args.seconds / 2, rec)
        finally:
            patches.restore()
        traced_rounds = tally.rounds[baseline_rounds:]
        metrics = tracing.layer_metrics(rec, len(traced_rounds))
        metrics["trace.overhead_s"] = (
            statistics.median(w for w, _ in traced_rounds) - untraced, "s")
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        rec.write(path)
        print(f"spans: {len(rec.spans)} written to {os.path.relpath(path, ROOT)}")

    print(f"workload {args.workload}, seed {args.seed}: {len(tally.rounds)} rounds of "
          f"{len(ops)} operations; attempted {tally.attempted}, failed {tally.failed}")
    for failure, times in sorted(tally.failures.items()):
        print(f"  failed x{times}  {failure}")
    for message in tally.wrong[:20]:
        print(f"  WRONG  {message}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
