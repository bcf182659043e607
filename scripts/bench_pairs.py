#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

Runs ``bench/run.py`` (untraced) in each checkout in turn; odd pairs run
the parent first, even pairs the change.  Each run's result is the last
JSON line it prints.  For every end-to-end metric of ``BENCHMARK.json``
(read from the change's checkout) it prints each side's median and
quartiles, the parent's interquartile range and the pairs each side wins
in the metric's ``better`` direction; ties count for neither side.  Each
row ends with the metric's verdict (``verdict``): ``gain``, ``worse``,
``unresolved`` or ``within bound``.
Before the pairs it prints each checkout's bytecode condition, which
moves every ``cli_scenes`` reading: whether its children write bytecode
and how many package modules already have a ``.pyc``.  After them it
times 15 alternating ``bench/run.py --setup-only`` children per checkout
and prints each side's unscaled median wall time and IQR: a check on
``setup_s``, which scales each child by reference samples that can fall
in two modes and so split the sides by chance.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload exact_sweep --seed 7 --pairs 10 --seconds 8
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_RUNS = 15  # --setup-only children per checkout


def run_bench(checkout, args) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def setup_walls(parent, change, args, runs=SETUP_RUNS) -> dict:
    """Unscaled wall times in seconds of ``runs`` ``bench/run.py
    --setup-only`` children per checkout, keyed "parent" and "change": the
    process that ``setup_s`` times, run in alternating order as the pairs
    are (parent first in odd rounds)."""
    argv = [sys.executable, "bench/run.py", "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    checkouts = {"parent": parent, "change": change}
    walls = {"parent": [], "change": []}
    for i in range(1, runs + 1):
        for side in ("parent", "change") if i % 2 else ("change", "parent"):
            start = time.perf_counter()
            subprocess.run(argv, cwd=checkouts[side], capture_output=True, check=True)
            walls[side].append(time.perf_counter() - start)
    return walls


def setup_line(walls) -> str:
    """One line on ``setup_walls``: each side's median and IQR in ms and the
    change's median against the parent's."""
    (p1, p, p3), (c1, c, c3) = quartiles(walls["parent"]), quartiles(walls["change"])
    return (f"setup raw ({len(walls['parent'])} --setup-only children per side, unscaled wall): "
            f"parent {p * 1e3:.1f} ms (IQR {(p3 - p1) * 1e3:.1f}) -> change {c * 1e3:.1f} ms "
            f"(IQR {(c3 - c1) * 1e3:.1f}) ({(c - p) / p:+.1%})")


def bytecode_condition(checkout, env) -> str:
    """One line on the bytecode that ``checkout``'s benchmark children see.

    They run ``sys.executable`` without ``-B`` and with ``env``, so they
    write bytecode unless ``PYTHONDONTWRITEBYTECODE`` is a non-empty string
    there; a ``.pyc`` counts when ``src/conconic/__pycache__`` holds one
    for a package module under this interpreter's cache tag.
    """
    package = Path(checkout) / "src" / "conconic"
    tag = sys.implementation.cache_tag
    modules = sorted(package.glob("*.py"))
    cached = sum((package / "__pycache__" / f"{m.stem}.{tag}.pyc").is_file() for m in modules)
    flag = env.get("PYTHONDONTWRITEBYTECODE", "")
    writes = "do not write" if flag else "write"
    return (f"bytecode {checkout}: children {writes} bytecode (PYTHONDONTWRITEBYTECODE={flag!r}); "
            f"{cached}/{len(modules)} package modules have a {tag} .pyc")


def quartiles(values):
    """(q1, median, q3), the quartiles interpolated within the sample."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent, change, metrics):
    """One row per ``(name, better)`` metric over paired runs: the metric,
    each side's quartiles, the parent's IQR and each side's pair wins."""
    rows = []
    for name, better in metrics:
        p = [run["metrics"][name]["value"] for run in parent]
        c = [run["metrics"][name]["value"] for run in change]
        sign = 1 if better == "higher" else -1
        gains = [sign * (b - a) for a, b in zip(p, c)]
        pq, cq = quartiles(p), quartiles(c)
        rows.append({"metric": name, "parent": pq, "change": cq, "parent_iqr": pq[2] - pq[0],
                     "change_wins": sum(g > 0 for g in gains),
                     "parent_wins": sum(g < 0 for g in gains), "pairs": len(gains)})
    return rows


def verdict(row, better: str, bound: float) -> str:
    """The verdict on one ``summarize`` row, by the rule for claiming a gain
    and for bounding a regression.

    ``gain``: the change wins at least 9/10 of the pairs, and its median is
    better than the parent's by more than the parent's IQR.  ``worse``: its
    median is worse than the parent's by more than ``bound`` times the
    parent's median.  ``unresolved``: the parent's IQR is wider than that
    bound and the change does not win every pair.  Otherwise ``within
    bound``.
    """
    parent = row["parent"][1]
    gain = (row["change"][1] - parent) * (1 if better == "higher" else -1)
    limit = bound * abs(parent)
    if 10 * row["change_wins"] >= 9 * row["pairs"] and gain > row["parent_iqr"]:
        return "gain"
    if -gain > limit:
        return "worse"
    if row["parent_iqr"] > limit and row["change_wins"] < row["pairs"]:
        return "unresolved"
    return "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]
    specs = {m["name"]: m for m in spec["end_to_end"]}
    for checkout in (args.parent, args.change):
        print(bytecode_condition(checkout, os.environ), flush=True)
    runs = {"parent": [], "change": []}
    for i in range(1, args.pairs + 1):
        for side in ("parent", "change") if i % 2 else ("change", "parent"):
            result = run_bench(getattr(args, side), args)
            runs[side].append(result)
            values = " ".join(f"{n}={result['metrics'][n]['value']:.4g}" for n, _ in metrics)
            print(f"pair {i} {side}: failed {result['failed']}/{result['attempted']} {values}", flush=True)
    for row in summarize(runs["parent"], runs["change"], metrics):
        p, c, m = row["parent"], row["change"], specs[row["metric"]]
        print(f"{row['metric']}: parent {p[1]:.4g} [{p[0]:.4g}, {p[2]:.4g}] -> change {c[1]:.4g} "
              f"[{c[0]:.4g}, {c[2]:.4g}] ({(c[1] - p[1]) / p[1]:+.1%}); parent IQR {row['parent_iqr']:.4g}; "
              f"wins change {row['change_wins']}/{row['pairs']}, parent {row['parent_wins']}/{row['pairs']}; "
              f"{verdict(row, m['better'], m['bound'])}")
    print(setup_line(setup_walls(args.parent, args.change, args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
