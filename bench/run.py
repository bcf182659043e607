#!/usr/bin/env python3
"""Seeded benchmark of conconic: end-to-end metrics, or per-layer metrics
from a traced run.

Run from the root of a repository checkout (no install needed; the package
is imported from ``src/``):

    python3 bench/run.py --workload exact_sweep --seed 1 --seconds 25 --trace 0

Workloads: exact_sweep, float_chains, cli_scenes, sextuple_oracles (see
bench/README.md).  Every operation's output is checked against its known
truth; an operation that raises or fails its check counts as failed.

--trace 0  times operations for --seconds seconds (at least MIN_OPS of
           them) and reports ops_per_s, op_ms_p50, op_ms_p90, setup_s and
           peak_rss_mb.
--trace 1  repeats a fixed list of operations, alternating an untraced
           pass with a traced pass, for --seconds seconds, and reports
           per-function calls and self time per operation, a few ratios,
           the tracing overhead, and the interpreter and import floors.

Times are rescaled to a nominal machine speed measured between blocks of
work (see speed.py).  The environment (git rev, Python, platform, nproc,
interpreter start time) is printed on the line before the result, and
everything, unscaled timings and spans of the first traced pass included,
is written under .bench_out/.  The last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import array
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"

MIN_OPS = 100          # p90 then leaves at least ten operations beyond it
BLOCK_S = 0.2          # operations between two reference samples, in seconds
DEADLINE_S = 150.0     # give up (without a result) past this wall time
SETUP_REPEATS = 7
FLOOR_REPEATS = 7

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


# known float-mode defects, counted per pass of the traced run (workloads.py)
NOTE_SPECS = (
    ("scene.chart_criterion_mismatch", "count", "lower"),
    ("scene.float_verdict_disagree", "count", "lower"),
)


def per_layer_specs():
    """(name, unit, better) of every metric the traced run reports."""
    specs = []
    for key in tracing.TRACED_KEYS:
        specs.append((f"{key}.calls_per_op", "calls/op", "lower"))
        specs.append((f"{key}.self_ms_per_op", "ms/op", "lower"))
        if key == "linalg.det":
            specs += [(f"{key}.{b}_calls_per_op", "calls/op", "lower")
                      for b in tracing.DET_BACKENDS]
        elif key == "conics.conic_through_points":
            specs.append((f"{key}.nonunique_frac", "ratio", "lower"))
        elif key == "generate.solve_concurrent_params":
            specs.append((f"{key}.accept_frac", "ratio", "higher"))
        elif key == "poncelet.trace_chain":
            specs.append((f"{key}.steps_per_chain", "steps/chain", "lower"))
    specs += [
        ("cli.interpreter_ms", "ms", "lower"),
        ("cli.import_ms", "ms", "lower"),
        *NOTE_SPECS,
        ("fail_frac", "ratio", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return specs


# ----- environment -----------------------------------------------------------


def git_rev() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _wall(argv, env=None) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


def scaled_wall(scale, argv, env=None) -> float:
    """Rescaled wall seconds of one child process."""
    wall = _wall(argv, env)
    return wall * scale.factor()


def cli_floors(scale, repeats: int):
    """Median rescaled ms of a bare interpreter start and of ``import conconic``
    on top of it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    bare, imported = [], []
    for _ in range(repeats):
        bare.append(scaled_wall(scale, [sys.executable, "-c", "pass"]))
        imported.append(scaled_wall(scale, [sys.executable, "-c", "import conconic"], env))
    floor = statistics.median(bare) * 1e3
    return floor, statistics.median(imported) * 1e3 - floor


def environment(interpreter_ms: float) -> dict:
    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cli.interpreter_ms": interpreter_ms,
        "reference_nominal_ms": speed.NOMINAL_S * 1e3,
    }


# ----- running operations --------------------------------------------------


class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def run(self, wl, fn, i) -> float:
        """Run and check operation i; return its seconds (check excluded)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(i)
        except Exception as err:  # a raising operation is a failed operation
            elapsed = time.perf_counter() - t0
            problem = f"{type(err).__name__}: {err}"
        else:
            elapsed = time.perf_counter() - t0
            try:
                problem = wl.check(i, out)
            except Exception as err:  # malformed output fails the check
                problem = f"check raised {type(err).__name__}: {err}"
        if problem is not None:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"op {i}: {problem}")
        return elapsed


def p90(samples):
    """Nearest-rank 90th percentile."""
    ordered = sorted(samples)
    return ordered[-(-9 * len(ordered) // 10) - 1]


def op_time_stats(times):
    return {
        "ops_per_s": len(times) / sum(times),
        "op_ms_p50": statistics.median(times) * 1e3,
        "op_ms_p90": p90(times) * 1e3,
    }


def measure(wl, tally, scale, seconds, started):
    """Time operations in blocks of about BLOCK_S seconds, rescaling each
    block by the reference samples on either side of it."""
    raw, scaled, block = array.array("d"), array.array("d"), []
    t0 = block_t0 = time.perf_counter()
    i = 0
    while True:
        now = time.perf_counter()
        done = now - t0 >= seconds and len(raw) + len(block) >= MIN_OPS
        if block and (done or now - block_t0 >= BLOCK_S):
            factor = scale.factor()
            raw.extend(block)
            scaled.extend(t * factor for t in block)
            block = []
            block_t0 = time.perf_counter()
        if done:
            return op_time_stats(scaled), op_time_stats(raw), len(raw)
        if now - started > DEADLINE_S:
            raise RuntimeError(f"only {len(raw) + len(block)} operations in "
                               f"{DEADLINE_S:.0f}s; p90 needs {MIN_OPS}")
        block.append(tally.run(wl, wl.op, i))
        i += 1


def setup_seconds(args, scale) -> float:
    """Median rescaled wall time of a fresh process that imports and sets up."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    return statistics.median(scaled_wall(scale, argv) for _ in range(SETUP_REPEATS))


def traced_run(wl, tally, tracer, scale, seconds):
    """Alternate untraced and traced passes over the fixed operation list."""
    ops = range(wl.trace_ops)
    untraced = traced = 0.0
    passes = 0
    notes = wl.notes.copy()
    t0 = time.perf_counter()
    while passes == 0 or time.perf_counter() - t0 < seconds:
        start = time.perf_counter()
        for i in ops:
            tally.run(wl, wl.traced_op, i)
        untraced += (time.perf_counter() - start) * scale.factor()
        tracer.install()
        try:
            start = time.perf_counter()
            for i in ops:
                tracer.op_id = i
                tally.run(wl, wl.traced_op, i)
            elapsed = time.perf_counter() - start
        finally:
            tracer.uninstall()
        factor = scale.factor()
        traced += elapsed * factor
        tracer.fold(factor)
        passes += 1
    notes_per_pass = {k: (wl.notes[k] - notes[k]) / (2 * passes) for k in wl.notes}
    return passes, traced / untraced - 1.0, notes_per_pass


def layer_metrics(tracer, n_ops, overhead, notes, floors, tally):
    calls, self_s = tracer.calls, tracer.self_s
    values = {}
    for key in tracing.TRACED_KEYS:
        values[f"{key}.calls_per_op"] = calls[key] / n_ops
        values[f"{key}.self_ms_per_op"] = self_s[key] * 1e3 / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    for backend in tracing.DET_BACKENDS:
        values[f"linalg.det.{backend}_calls_per_op"] = tracer.det_backends[backend] / n_ops
    fit = "conics.conic_through_points"
    values[f"{fit}.nonunique_frac"] = ratio(tracer.raised[fit, "NonUniqueConic"], calls[fit])
    solved = "generate.concurrency_solved_instance"
    accepted = calls[solved] - sum(n for (k, _), n in tracer.raised.items() if k == solved)
    draws = "generate.solve_concurrent_params"
    values[f"{draws}.accept_frac"] = ratio(accepted, calls[draws])
    chain = "poncelet.trace_chain"
    finished = calls[chain] - sum(n for (k, _), n in tracer.raised.items() if k == chain)
    values[f"{chain}.steps_per_chain"] = ratio(tracer.chain_steps, finished)
    values["cli.interpreter_ms"], values["cli.import_ms"] = floors
    for name, _, _ in NOTE_SPECS:
        values[name] = notes.get(name, 0)
    values["fail_frac"] = ratio(tally.failed, tally.attempted)
    values["trace.overhead_frac"] = overhead
    specs = per_layer_specs()
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in specs}


# ----- entry point -----------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)  # child process timed for setup_s
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "conconic" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        wl.setup()
        if args.setup_only:
            return 0
        scale = speed.Scale()
        interpreter_ms, import_ms = cli_floors(scale, FLOOR_REPEATS if args.trace else 3)
        env = environment(interpreter_ms)
        setup_s = setup_seconds(args, scale)
        tally = Tally()
        for i in range(wl.warmup_ops):
            tally.run(wl, wl.op, i)
        if args.trace:
            tracer = tracing.Tracer()
            passes, overhead, notes = traced_run(wl, tally, tracer, scale, args.seconds)
            metrics = layer_metrics(tracer, passes * wl.trace_ops, overhead, notes,
                                    (interpreter_ms, import_ms), tally)
            extra = {"passes": passes, "ops_per_pass": wl.trace_ops}
        else:
            timed, raw, n_ops = measure(wl, tally, scale, args.seconds, started)
            rss_kb = (wl.peak_child_kb if args.workload == "cli_scenes"
                      else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            values = dict(timed, setup_s=setup_s, peak_rss_mb=rss_kb / 1024.0)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
            extra = {"timed_ops": n_ops, "unscaled": raw, "notes": dict(wl.notes)}
        extra["reference_ms"] = [t * 1e3 for t in scale.samples]
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, env=env, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, failures=tally.messages, **extra)
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if args.trace:
        tracer.write_spans(stem.with_suffix(".spans.tsv"))
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
