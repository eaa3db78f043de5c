#!/usr/bin/env python3
"""Checks that the layer tracer fails on a wrong known answer.

    python3 perfbench/selfcheck.py

Run from the root of a checkout; it builds like run.py. The tracer runs each
program three times and keeps only the traced pass's errors; the traced pass
goes first for even plan items and second for odd ones. So the check gives
it two programs with deliberately wrong known answers, one at an even and
one at an odd index, and expects both to be reported; then the same two
with their right answers, and expects none. Exits 0 when both hold.
"""

import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import BenchError, build, build_dir, nproc  # noqa: E402

PROGRAMS = (("examples/programs/figure1_commute.hv", "verified"),
            ("examples/programs/figure1_reject.hv", "REJECTED"))
FLIP = {"verified": "REJECTED", "REJECTED": "verified"}


def trace(tracer, workdir, items):
    """Runs the tracer on `items` ((path, expect) pairs); returns its
    summary object."""
    plan = os.path.join(workdir, "plan")
    with open(plan, "w") as f:
        f.write(f"jobs {nproc()}\n")
        for path, expect in items:
            f.write(f"program {path} {os.path.abspath(path)} {expect}\n")
    proc = subprocess.run([tracer, plan, os.path.join(workdir, "spans.jsonl")],
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"trace_layers failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    root = os.getcwd()
    try:
        _, tracer = build(root)
        workdir = os.path.join(build_dir(root), "work", f"selfcheck-{os.getpid()}")
        os.makedirs(workdir)
        try:
            wrong = trace(tracer, workdir, [(p, FLIP[e]) for p, e in PROGRAMS])
            right = trace(tracer, workdir, PROGRAMS)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as e:
        print(f"selfcheck: error: {e}", file=sys.stderr)
        return 2

    ok = True
    for index, (path, expect) in enumerate(PROGRAMS):
        want = f"{path}: verdict {expect}, expected {FLIP[expect]}"
        if want not in wrong["errors"]:
            print(f"FAIL: wrong answer at plan index {index} not reported: {want}")
            ok = False
    if wrong["correct"]:
        print("FAIL: tracer reported correct with wrong known answers")
        ok = False
    if not right["correct"] or right["errors"]:
        print(f"FAIL: tracer reported errors with right answers: {right['errors']}")
        ok = False
    print("selfcheck: " + ("OK" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
