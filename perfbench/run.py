#!/usr/bin/env python3
"""End-to-end scaling benchmark for hyperviper.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The first run configures and builds the
Release `hyperviper` and the layer tracer under $CARGO_TARGET_DIR (default
`.bench_build`); later runs only rebuild what changed.

--trace 0 (default) measures the workload end to end with tracing off and
prints the end-to-end metrics. --trace 1 runs the in-process traced replay
on the same seeded inputs and prints the per-layer metrics. Either way the
last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads: scale-verify, fuzz-campaign. The default seed is 1; seed 9001 is
held out for checking a claimed gain. See perfbench/NOTES.md for what each
workload measures and why.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
from common import BenchError, build, build_dir, nproc, run_context, tail  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1


class Bench:
    """What every workload needs: paths, binaries, seed and job count."""

    def __init__(self, root, hv, tracer, workdir, seed):
        self.root, self.hv, self.tracer = root, hv, tracer
        self.workdir, self.seed = workdir, seed
        self.jobs = nproc()


def end_to_end(outcome, setup_s):
    p50 = statistics.median(outcome.ms)
    tail_ms, pct, n = tail(outcome.ms)
    metrics = {
        "verdict_p50_ms": (p50, "ms"),
        "verdict_tail_ms": (tail_ms, "ms"),
        "throughput_per_s": (outcome.work / outcome.elapsed_s, "1/s"),
        "peak_rss_mb": (outcome.rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
        "growth_per_doubling": (outcome.growth, "ratio"),
    }
    lines = [f"  {k:20s} {v:12.4f} {u}" for k, (v, u) in metrics.items()]
    lines[0] += f"   (n={n})"
    lines[1] += f"   (p{pct:.2f}, n={n}, 10 samples beyond)"
    lines.insert(0, f"  {'fail_ratio':20s} {outcome.failed / outcome.attempted:12.4f} ratio"
                    f"   ({outcome.failed} of {outcome.attempted} units)")
    return metrics, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    load_at_start = os.getloadavg()
    root = os.getcwd()
    try:
        hv, tracer = build(root)
        workdir = os.path.join(build_dir(root), "work",
                               f"{args.workload}-{args.seed}-{os.getpid()}")
        os.makedirs(workdir)
        try:
            b = Bench(root, hv, tracer, workdir, args.seed)
            workload = WORKLOADS[args.workload](b)
            if args.trace:
                correct, attempted, failed, metrics, lines = layers.traced_run(b, workload)
            else:
                setup_s = workload.setup()
                outcome = workload.measure(args.seconds)
                metrics, lines = end_to_end(outcome, setup_s)
                lines += ["  " + n for n in outcome.notes]
                lines += ["  FAIL " + e for e in outcome.errors]
                correct = outcome.failed == 0
                attempted, failed = outcome.attempted, outcome.failed
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as e:
        print(f"perfbench: error: {e}", file=sys.stderr)
        return 2

    context = run_context(root, args.seed, load_at_start)
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "context": context,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results_dir = os.path.join(build_dir(root), "results")
    os.makedirs(results_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-"
                           f"trace{args.trace}-{stamp}-{os.getpid()}.json"), "w") as f:
        json.dump(result, f, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in context.items() if k != "seed"))
    print("\n".join(lines))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
