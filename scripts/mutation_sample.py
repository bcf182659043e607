#!/usr/bin/env python3
"""Run a seeded sample of single-site mutants of the package against tests.

A site is one place in ``src/conconic/`` (``__init__.py`` left out) where
one operator of this fixed set applies:

- ``+`` <-> ``-`` and ``*`` <-> ``/`` (binary and augmented operators);
- a comparison swapped with its non-strict or strict form and with its
  negation (``<`` -> ``<=`` and ``>=``; ``==`` -> ``!=``; ``is`` -> ``is
  not``; ``in`` -> ``not in``; and back);
- ``and`` <-> ``or``, and a dropped ``not``;
- the numeric constants 0, 1, 2 -> 1, 0, 3 (ints and floats alike).

Every (site, replacement) pair is one mutant.  ``--module`` and
``--function`` keep the mutants of some modules (``conics``) or functions
(``_meet_coords``, ``Conic.dual``: the qualified name of the innermost
enclosing function, comma separated); ``--seed`` and ``-n`` draw N of them
without replacement by ``random.Random(seed)``, and the draw is the same
on every run.

Each mutant is written into its own copy of the checkout (the module is
re-emitted by ``ast.unparse``) and the given tests run there with ``pytest
-x``, at most two at a time.  A mutant is killed when the run fails or
takes over ``TIMEOUT_S`` (a mutant can loop for ever).  The unmutated copy
runs first and must pass.  It prints the kill rate and each survivor's
``file:line`` and mutation.  Dev-only and stdlib-only (``ast``,
``subprocess``); it takes minutes.

    python3 scripts/mutation_sample.py --seed 1 -n 40 --function _meet_coords,_quadratic_root_pairs \\
        --tests tests/test_conics.py tests/test_poncelet.py
"""

import argparse
import ast
import random
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "conconic"
MAX_WORKERS = 2  # a hard cap: each worker runs a whole pytest process
TIMEOUT_S = 300.0

SWAPPED_BINOPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
SWAPPED_COMPARISONS = {
    ast.Lt: (ast.LtE, ast.GtE), ast.LtE: (ast.Lt, ast.Gt),
    ast.Gt: (ast.GtE, ast.LtE), ast.GtE: (ast.Gt, ast.Lt),
    ast.Eq: (ast.NotEq,), ast.NotEq: (ast.Eq,),
    ast.Is: (ast.IsNot,), ast.IsNot: (ast.Is,),
    ast.In: (ast.NotIn,), ast.NotIn: (ast.In,),
}
SWAPPED_BOOLOPS = {ast.And: ast.Or, ast.Or: ast.And}
SWAPPED_CONSTANTS = {0: 1, 1: 0, 2: 3}
SYMBOLS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Lt: "<", ast.LtE: "<=",
    ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not",
    ast.In: "in", ast.NotIn: "not in", ast.And: "and", ast.Or: "or",
}


def _children(node):
    """``(field, index, child)`` of every AST child, in field order
    (``index`` is None for a single child)."""
    for field, value in ast.iter_fields(node):
        if isinstance(value, list):
            for i, child in enumerate(value):
                if isinstance(child, ast.AST):
                    yield field, i, child
        elif isinstance(value, ast.AST):
            yield field, None, value


def _mutations(node):
    """``(description, apply)`` of each mutation at ``node``; ``apply(parent,
    field, index)`` changes the tree in place."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPPED_BINOPS:
        new = SWAPPED_BINOPS[type(node.op)]
        yield f"{SYMBOLS[type(node.op)]} -> {SYMBOLS[new]}", lambda *_: setattr(node, "op", new())
    elif isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            for new in SWAPPED_COMPARISONS[type(op)]:
                yield (f"{SYMBOLS[type(op)]} -> {SYMBOLS[new]}",
                       lambda *_, i=i, new=new: node.ops.__setitem__(i, new()))
    elif isinstance(node, ast.BoolOp):
        new = SWAPPED_BOOLOPS[type(node.op)]
        yield f"{SYMBOLS[type(node.op)]} -> {SYMBOLS[new]}", lambda *_: setattr(node, "op", new())
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        def drop(parent, field, index):
            if index is None:
                setattr(parent, field, node.operand)
            else:
                getattr(parent, field)[index] = node.operand
        yield "not x -> x", drop
    elif (isinstance(node, ast.Constant) and type(node.value) in (int, float)
          and node.value in SWAPPED_CONSTANTS):
        new = type(node.value)(SWAPPED_CONSTANTS[node.value])
        yield f"{node.value!r} -> {new!r}", lambda *_: setattr(node, "value", new)


def _walk(tree):
    """``(node, parent, field, index, qualname)`` of every node below
    ``tree``, depth first in field order; ``qualname`` is the dotted name of
    the innermost enclosing function (classes included), "" at module level."""
    stack = [(child, tree, field, index, "", "") for field, index, child in reversed(list(_children(tree)))]
    while stack:
        node, parent, field, index, prefix, function = stack.pop()
        yield node, parent, field, index, function
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            prefix = f"{prefix}{node.name}"
            if not isinstance(node, ast.ClassDef):
                function = prefix
            prefix += "."
        for child_field, child_index, child in reversed(list(_children(node))):
            stack.append((child, node, child_field, child_index, prefix, function))


def _is_docstring(node, parent) -> bool:
    return (isinstance(parent, ast.Expr) and isinstance(node, ast.Constant)
            and isinstance(node.value, str))


def enumerate_mutants(root: Path, modules=None, functions=None):
    """Every mutant of the package under ``root`` as ``(path, k, line,
    function, description)``: the ``k``-th mutation met in ``_walk`` order
    in ``path`` (relative to ``root``), sorted by file name.  ``modules``
    and ``functions`` are sets of names to keep, or None for all."""
    mutants = []
    for path in sorted((root / PACKAGE).glob("*.py")):
        if path.name == "__init__.py" or (modules and path.stem not in modules):
            continue
        tree = ast.parse(path.read_text())
        k = 0
        for node, parent, _, _, function in _walk(tree):
            if _is_docstring(node, parent):
                continue
            for description, _ in _mutations(node):
                if not functions or function in functions:
                    rel = path.relative_to(root).as_posix()
                    mutants.append((rel, k, node.lineno, function, description))
                k += 1
    return mutants


def sample(root: Path, seed: int, n: int, modules=None, functions=None):
    """``n`` mutants drawn by ``random.Random(seed)`` without replacement,
    in enumeration order (all of them when there are no more than ``n``)."""
    mutants = enumerate_mutants(root, modules, functions)
    if n >= len(mutants):
        return mutants
    picked = random.Random(seed).sample(range(len(mutants)), n)
    return [mutants[i] for i in sorted(picked)]


def mutated_source(root: Path, rel: str, k: int) -> str:
    """The module at ``rel`` with its ``k``-th mutation applied."""
    tree = ast.parse((root / rel).read_text())
    count = 0
    for node, parent, field, index, _ in _walk(tree):
        if _is_docstring(node, parent):
            continue
        for _, apply in _mutations(node):
            if count == k:
                apply(parent, field, index)
                return ast.unparse(ast.fix_missing_locations(tree)) + "\n"
            count += 1
    raise IndexError(f"{rel} has no mutation {k}")


def _copy_checkout(dest: Path):
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_*", ".benchmarks"))


def run_tests(checkout: Path, tests) -> str:
    """"pass", "fail" or "timeout" for one pytest run in ``checkout``."""
    argv = [sys.executable, "-B", "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(argv, cwd=checkout, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if done.returncode == 0 else "fail"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("-n", type=int, required=True, help="mutants to draw")
    parser.add_argument("--module", help="comma-separated module names, e.g. conics,poncelet")
    parser.add_argument("--function", help="comma-separated qualified function names")
    parser.add_argument("--tests", nargs="+", default=["tests"], help="pytest paths, run with -x")
    parser.add_argument("--workdir", type=Path,
                        help="where the copies go, created if missing (a fresh temporary directory by default)")
    args = parser.parse_args(argv)
    if args.workdir:
        args.workdir.mkdir(parents=True, exist_ok=True)

    modules = set(args.module.split(",")) if args.module else None
    functions = set(args.function.split(",")) if args.function else None
    mutants = sample(ROOT, args.seed, args.n, modules, functions)
    if not mutants:
        print("no mutation site matches the filters", file=sys.stderr)
        return 2

    workdir = Path(tempfile.mkdtemp(prefix="mutants-", dir=args.workdir))
    try:
        _copy_checkout(workdir / "base")
        start = time.perf_counter()
        if run_tests(workdir / "base", args.tests) != "pass":
            print("the unmutated tests do not pass; no mutant is run", file=sys.stderr)
            return 2
        base_s = time.perf_counter() - start

        def run(item):
            i, (rel, k, *_rest) = item
            copy = workdir / f"m{i}"
            shutil.copytree(workdir / "base", copy)
            (copy / rel).write_text(mutated_source(ROOT, rel, k))
            try:
                return run_tests(copy, args.tests)
            finally:
                shutil.rmtree(copy, ignore_errors=True)

        with ThreadPoolExecutor(max_workers=MAX_WORKERS) as pool:
            outcomes = list(pool.map(run, enumerate(mutants)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    survivors = [m for m, outcome in zip(mutants, outcomes) if outcome == "pass"]
    killed = len(mutants) - len(survivors)
    print(f"seed {args.seed}: {killed}/{len(mutants)} mutants killed ({100 * killed / len(mutants):.1f}%), "
          f"{outcomes.count('timeout')} by timeout; unmutated run {base_s:.1f} s")
    for rel, k, line, function, description in survivors:
        print(f"survived  {rel}:{line}  {function or '<module>'}  {description}  (#{k})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
