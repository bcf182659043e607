#!/usr/bin/env python3
"""Compare the traced layers of two checkouts on one benchmark workload.

Runs ``bench/run.py --trace 1`` once in each checkout, parent first, and
reads each run's per-layer metrics from the last JSON line it prints.  It
prints every ``calls_per_op`` metric whose value differs, then every
traced function's ``self_ms_per_op`` side by side (functions with no calls
on either side are left out).  It exits 1 when a traced function that the
parent calls reads 0 calls in the change: such a layer usually has not
stopped running but moved out of the tracer's sight (a renamed function,
or a caller that reaches it another way), and its self time has moved
into its caller's.

    python3 scripts/trace_diff.py PARENT CHANGE --workload float_chains --seed 7 --seconds 8
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

CALLS = ".calls_per_op"
SELF_MS = ".self_ms_per_op"


def run_traced(checkout, args) -> dict:
    """``{metric name: value}`` of one traced run in ``checkout``."""
    argv = [sys.executable, "bench/run.py", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1"]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True).stdout
    metrics = json.loads(out.splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()}


def compare(parent: dict, change: dict):
    """``(calls, self_ms, vanished)`` for two ``{metric: value}`` dicts.

    - ``calls``: ``(metric, parent, change)`` for every metric ending in
      ``calls_per_op`` whose values differ, a metric missing on one side
      reading None there;
    - ``self_ms``: ``(function, parent, change)`` self milliseconds per op
      for every traced function called on either side;
    - ``vanished``: the traced functions with nonzero ``calls_per_op`` in
      ``parent`` and 0 (or no metric) in ``change``.

    Rows follow the parent's metric order, then metrics only the change has.
    """
    names = list(parent) + [n for n in change if n not in parent]
    calls, self_ms, vanished = [], [], []
    for name in names:
        if not name.endswith("calls_per_op"):
            continue
        before, after = parent.get(name), change.get(name)
        if before != after:
            calls.append((name, before, after))
        if name.endswith(CALLS):
            function = name[:-len(CALLS)]
            if before and not after:
                vanished.append(function)
            if before or after:
                key = function + SELF_MS
                self_ms.append((function, parent.get(key), change.get(key)))
    return calls, self_ms, vanished


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.4g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    args = parser.parse_args(argv)
    parent, change = (run_traced(checkout, args) for checkout in (args.parent, args.change))
    calls, self_ms, vanished = compare(parent, change)
    print(f"{args.workload} seed {args.seed}: calls_per_op that differ (parent -> change)")
    for name, before, after in calls:
        print(f"  {name}: {_fmt(before)} -> {_fmt(after)}")
    if not calls:
        print("  none")
    print("self_ms_per_op (parent, change)")
    for function, before, after in self_ms:
        print(f"  {function:<44} {_fmt(before):>9} {_fmt(after):>9}")
    for function in vanished:
        print(f"vanished: {function} has calls in the parent and none in the change")
    return 1 if vanished else 0


if __name__ == "__main__":
    sys.exit(main())
