#!/usr/bin/env python3
"""Count the interpreted work of benchmark operations, deterministically.

Runs operations ``0 .. N-1`` of one workload of ``bench/workloads.py``
(loaded by path and only read) under ``sys.settrace`` with
``f_trace_opcodes`` set on every frame.  The workload's warm-up operations
run first, untraced, as in ``bench/run.py``: a first call fills in-process
caches such as the ``abc`` subclass cache.  The garbage collector is off
while counting, so that no Python ``gc`` callback that a library installed
enters the count when a collection happens to run.  It prints the Python
opcodes and the calls (frame entries, generator resumptions included) per
operation, then the top K functions by self opcodes: the opcodes run in
that function's own frames, not in its callees.  Each operation's output
is checked against its known truth outside the counted span.

The counts repeat exactly from run to run, so a change of a few percent in
interpreted work shows at once, where paired wall-clock runs of
``scripts/bench_pairs.py`` resolve about ±3% on a 2-vCPU machine.  They
see no time spent in C (big-integer arithmetic, ``math.gcd``,
``math.sqrt``, builtins such as ``sorted``), so they complement timed
pairs and do not replace them.  Dev-only and stdlib-only.

    python3 scripts/op_count.py --workload exact_sweep --seed 7 --ops 500 --top 15
"""

import argparse
import gc
import importlib.util
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_workloads():
    """``bench/workloads.py`` as a module, with the package from ``src/``."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def count(workload: str, seed: int, ops: int):
    """``(opcodes, calls, failed)``: per-function ``Counter``s of self
    opcodes and calls over operations ``0 .. ops-1`` after the warm-up,
    keyed by ``module.qualname``, and the number of operations whose check
    failed."""
    opcodes, calls = Counter(), Counter()

    def local(frame, event, arg):
        if event == "opcode":
            opcodes[frame.f_code] += 1
        return local

    def on_call(frame, event, arg):
        calls[frame.f_code] += 1
        frame.f_trace_opcodes = True
        return local

    failed = 0
    with tempfile.TemporaryDirectory() as workdir:
        wl = load_workloads().WORKLOADS[workload](seed, Path(workdir))
        wl.setup()
        try:
            for i in range(wl.warmup_ops):
                wl.traced_op(i)
            gc.disable()
            for i in range(ops):
                sys.settrace(on_call)
                try:
                    out = wl.traced_op(i)
                finally:
                    sys.settrace(None)
                failed += wl.check(i, out) is not None
        finally:
            gc.enable()
            wl.close()
    return _by_name(opcodes), _by_name(calls), failed


def _by_name(counts: Counter) -> Counter:
    named = Counter()
    for code, n in counts.items():
        named[f"{_module_of(code)}.{getattr(code, 'co_qualname', code.co_name)}"] += n
    return named


def _module_of(code) -> str:
    path = Path(code.co_filename)
    if path.suffix != ".py":
        return code.co_filename
    parts = path.with_suffix("").parts
    if "conconic" in parts:
        return ".".join(parts[parts.index("conconic"):])
    return path.stem


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--ops", type=int, default=100)
    parser.add_argument("--top", type=int, default=15)
    args = parser.parse_args(argv)
    opcodes, calls, failed = count(args.workload, args.seed, args.ops)
    n = args.ops
    total = sum(opcodes.values())
    print(f"{args.workload} seed {args.seed}: {n} ops, {failed} failed")
    print(f"opcodes/op {total / n:.1f}  calls/op {sum(calls.values()) / n:.1f}")
    print(f"{'self opcodes/op':>16} {'share':>6} {'calls/op':>9}  function")
    for name, k in opcodes.most_common(args.top):
        print(f"{k / n:16.1f} {k / total:6.1%} {calls[name] / n:9.1f}  {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
