#!/usr/bin/env python3
"""Fuzz the three ``conconic`` commands in process with mutated valid inputs.

Each case starts from a valid scene (``verify``) or argument vector
(``morley``, ``poncelet``), replaces one or two of its values by edge
values from a fixed pool, may drop or add a key or a value, draws a flag
set, and runs ``conconic.cli.main`` on it with stdout and stderr captured.
A breach of one of these invariants is printed with the input that
reproduces it:

- no exception escapes ``main``;
- the exit code is 0, 1 or 2;
- stderr on exit 1 starts with ``error:`` (an argparse usage error prints
  its usage first and ends with ``conconic <command>: error: ...``);
- every ``--json`` report of ``verify`` on exit 0 or 2 round-trips through
  ``report_from_dict``;
- ``--svg`` writes a complete file on exit 0 or 2.

An exit-1 message of ``verify`` that names no scene field is printed as a
note, not as a breach: ROADMAP item 18 lists the messages that still do
not.  Case ``k`` of a seed is drawn by its own ``random.Random``, so it
reads the same on every run whatever N is.  Dev-only and stdlib-only.

    python3 scripts/fuzz_cli.py --seed 1 -n 500 --command verify
"""

import argparse
import contextlib
import copy
import io
import json
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from conconic.cli import main as cli_main  # noqa: E402
from conconic.scene import report_from_dict, report_to_dict  # noqa: E402

COMMANDS = ("verify", "morley", "poncelet")

# edge values for one JSON leaf of a scene
SCENE_VALUES = [
    0, -0.0, 1, -1, 2, 0.5, -2.5, "1/2", "-3/4", "0", 1e308, -1e308, 5e-324, 1e-17, 10**400,
    "1/0", "nan", "inf", "1e400", "-1e400", "x", "", "½", " 7 ", None, True, [], {}, [1, 2],
    "9" * 5000, "rational", "float", "isogonal", "through_points",
]
# edge values for one comma-separated number of an argument
ARG_VALUES = [
    "0", "-0.0", "1", "-1", "2", "1/3", "-2.5", "1e308", "-1e308", "5e-324", "1e400", "nan", "inf",
    "x", "", "1/0", "1e5", "1e-17", " 3", "½",
]
TOLERANCES = (["1e-9", "1e-6", "1e-3", "1e-12"], ["1e-17", "1e-300", "0.7", "0", "-1", "nan", "inf", "abc"])

BASE_SCENES = [
    {"triangle": [["0", "0"], ["4", "0"], ["1", "3"]],
     "feet": {"params": ["1/3", "2/5", "3/7", "1/2", "1/2", "1/2"]}},
    {"mode": "float", "triangle": [[0, 0], [4, 0], [1, 3]],
     "feet": {"params": [0.3, 0.2, 0.5, 0.25, 0.4, 0.2]}},
    {"mode": "rational", "triangle": [["0", "0"], ["4", "0"], ["0", "3"]],
     "feet": {"generator": "isogonal", "params": ["1/2", "1/2", "1/2"]}},
    {"mode": "float", "triangle": [[0, 0], [4, 0], [1, 3]],
     "feet": {"generator": "isotomic", "params": [0.3, 0.4, 0.45]}},
    {"triangle": [["0", "0"], ["4", "0"], ["0", "3"]],
     "feet": {"generator": "through_points", "points": [["1", "1"], ["1/2", "1"]]}},
    {"mode": "float", "epsilon": 1e-9, "triangle": [[0, 0], [5, 1], [2, 4]],
     "feet": {"generator": "through_points", "points": [[2, 1.5], [2.5, 2]]}},
]
BASE_TRIANGLES = [["0,0", "4,0", "0,3"], ["0,0", "4,0", "1,3"], ["-1,0", "1,0", "0,2"], ["0,0", "5,1", "2,4"]]
BASE_CONICS = [
    ("1,0,1,0,0,-4", "1,0,1,0,0,-1"),  # concentric circles, chains close at n = 3
    ("1,0,1,0,0,-4", "1,0,1,0,0,-1.69"),
    ("1,0,1,0,0,-4", "1,0,-1,0,0,-1"),  # an inner hyperbola
    ("1,0,-1,0,0,-1", "1,0,1,0,0,-0.25"),  # an outer hyperbola
]
# the scene fields that an exit-1 message of ``verify`` may name
SCENE_FIELDS = ("triangle", "vertex", "feet", "foot", "params", "points", "point", "generator", "mode",
                "epsilon", "scene", "JSON")


def _pick(rng: random.Random, common, rare, p: float = 0.1):
    """A value from ``rare`` with probability ``p``, else from ``common``."""
    return rng.choice(rare if rng.random() < p else common)


def _paths(value, path=()):
    """The paths of every value inside a JSON value, itself included."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _replace(value, path, new):
    if not path:
        return new
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return value


def _get(value, path):
    for key in path:
        value = value[key]
    return value


def _mutate_scene(rng: random.Random):
    """A base scene with 0 to 2 values replaced from ``SCENE_VALUES`` (a
    number or a string mostly, a whole list or object at times), then at
    times one key or list entry dropped and one key added."""
    scene = copy.deepcopy(rng.choice(BASE_SCENES))
    for _ in range(rng.choice((0, 1, 1, 2))):
        paths = list(_paths(scene))[1:]
        leaves = [p for p in paths if not isinstance(_get(scene, p), (dict, list))]
        path = rng.choice(paths if rng.random() < 0.15 or not leaves else leaves)
        scene = _replace(scene, path, copy.deepcopy(rng.choice(SCENE_VALUES)))
    containers = [p for p in _paths(scene) if isinstance(_get(scene, p), (dict, list)) and _get(scene, p)]
    if rng.random() < 0.1 and containers:
        container = _get(scene, rng.choice(containers))
        if isinstance(container, dict):
            del container[rng.choice(sorted(container, key=str))]
        else:
            container.pop(rng.randrange(len(container)))
    if rng.random() < 0.05 and isinstance(scene, dict):
        scene[rng.choice(("extra", "mode", "epsilon"))] = rng.choice(SCENE_VALUES)
    return scene


def _mutate_values(rng: random.Random, values: list) -> list:
    values = list(values)
    for _ in range(rng.choice((0, 1, 1, 2))):
        values[rng.randrange(len(values))] = rng.choice(ARG_VALUES)
    if rng.random() < 0.05:
        values.pop(rng.randrange(len(values)))
    elif rng.random() < 0.05:
        values.append(rng.choice(ARG_VALUES))
    return values


def _output_flags(rng: random.Random) -> list:
    flags = ["--json"] if rng.random() < 0.5 else []
    return flags + (["--svg", "out.svg"] if rng.random() < 0.3 else [])


def _tolerance_flags(rng: random.Random, names) -> list:
    return [token for name in names if rng.random() < 0.2 for token in (name, _pick(rng, *TOLERANCES, p=0.3))]


def draw(command: str, seed: int, k: int):
    """Case ``k`` of ``command`` at ``seed``: ``(argv, scene)``.  ``argv``
    names the scene file ``scene.json`` and the drawing ``out.svg``;
    ``scene`` is the JSON value of the scene file, or None."""
    rng = random.Random(f"{seed}:{command}:{k}")
    if command == "verify":
        argv = ["verify", "scene.json"]
        if rng.random() < 0.25:
            argv += ["--mode", _pick(rng, ("rational", "float"), ("exact", ""))]
        return argv + _tolerance_flags(rng, ("--epsilon",)) + _output_flags(rng), _mutate_scene(rng)
    if command == "morley":
        vertices = [",".join(_mutate_values(rng, v.split(","))) if rng.random() < 0.5 else v
                    for v in rng.choice(BASE_TRIANGLES)]
        if rng.random() < 0.05:
            vertices.pop()
        argv = ["morley", "--triangle", rng.choice((" ", ";")).join(vertices)]
        if rng.random() < 0.2:
            argv += ["--poncelet-samples", _pick(rng, ("1", "2", "0"), ("-1", "x"))]
        return argv + _tolerance_flags(rng, ("--epsilon", "--closure-tol")) + _output_flags(rng), None
    outer, inner = (",".join(_mutate_values(rng, c.split(","))) if rng.random() < 0.3 else c
                    for c in rng.choice(BASE_CONICS))
    argv = ["poncelet", "--outer", outer, "--inner", inner]
    mode = rng.random()
    if mode < 0.5:
        start = _pick(rng, ("2,0", "2,0,1", "0,2", "-2,0", "1,1,0"), ("1.5,0", "x,0", "2", "2,0,0"), p=0.2)
        argv += ["--start", start, "--max-steps", _pick(rng, ("5", "12", "30"), ("2", "-1"))]
    elif mode < 0.97:
        argv += ["--expected-n", _pick(rng, ("3", "4", "5"), ("2", "x")),
                 "--samples", _pick(rng, ("1", "2", "3"), ("0", "-2"))]
    return argv + _tolerance_flags(rng, ("--epsilon", "--closure-tol")) + _output_flags(rng), None


def run(argv: list, workdir: Path):
    """``(code, out, err, escaped)`` of ``main`` on ``argv`` with its file
    names placed in ``workdir``; ``escaped`` is the exception that left
    ``main``, or None."""
    names = {"scene.json": str(workdir / "scene.json"), "out.svg": str(workdir / "out.svg")}
    out, err = io.StringIO(), io.StringIO()
    code = escaped = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main([names.get(token, token) for token in argv])
        except (Exception, SystemExit) as exc:  # any escape is the breach reported
            escaped = exc
    return code, out.getvalue(), err.getvalue(), escaped


def _usage_error(command: str, err: str) -> bool:
    lines = err.splitlines()
    return (len(lines) >= 2 and lines[0].startswith("usage: conconic")
            and lines[-1].startswith(f"conconic {command}: error: "))


def check(argv: list, workdir: Path):
    """``(code, breaches, notes)`` of one run of ``argv``: its exit code, the
    invariants it breaks, and a note when a ``verify`` exit-1 message names
    no field."""
    svg = workdir / "out.svg"
    if svg.exists():
        svg.unlink()
    code, out, err, escaped = run(argv, workdir)
    if escaped is not None:
        return code, [f"exception escaped main: {type(escaped).__name__}: {escaped}"], []
    if code not in (0, 1, 2):
        return code, [f"exit code {code!r}"], []
    breaches, notes = [], []
    if code == 1:
        if not (err.startswith("error:") or _usage_error(argv[0], err)):
            breaches.append(f"exit 1 without an error line: {err[:200]!r}")
        elif argv[0] == "verify" and err.startswith("error:") and not any(f in err for f in SCENE_FIELDS):
            notes.append(f"exit 1 names no scene field: {err.strip()[:200]}")
        return code, breaches, notes
    if argv[0] == "verify" and "--json" in argv:
        try:
            data = json.loads(out)
            again = report_to_dict(report_from_dict(data))
        except Exception as exc:  # any failure to read the report back is the breach
            breaches.append(f"--json report does not round-trip: {type(exc).__name__}: {exc}")
        else:
            if json.dumps(again, sort_keys=True) != json.dumps(data, sort_keys=True):
                breaches.append("--json report changes through report_from_dict")
    if "--svg" in argv:
        text = svg.read_text(encoding="utf-8") if svg.exists() else ""
        if not (text.startswith('<?xml version="1.0" encoding="UTF-8"?>\n<svg ') and text.endswith("</svg>\n")):
            breaches.append(f"--svg wrote an incomplete file ({len(text)} characters) on exit {code}")
    return code, breaches, notes


def fuzz(command: str, seed: int, n: int):
    """``(breaches, notes, codes)`` over cases ``0 .. n-1``: lists of ``(k,
    argv, scene, message)``, and the count of each exit code (None for an
    escaped exception)."""
    breaches, notes, codes = [], [], Counter()
    with tempfile.TemporaryDirectory(prefix="fuzz-cli-") as tmp:
        workdir = Path(tmp)
        for k in range(n):
            argv, scene = draw(command, seed, k)
            if scene is not None:
                (workdir / "scene.json").write_text(json.dumps(scene), encoding="utf-8")
            code, found, noted = check(argv, workdir)
            codes[code] += 1
            breaches += [(k, argv, scene, message) for message in found]
            notes += [(k, argv, scene, message) for message in noted]
    return breaches, notes, codes


def _describe(k: int, argv: list, scene, message: str) -> str:
    """One case as printed: its message, then the argument vector and the
    whole scene file that reproduce it."""
    text = f"case {k}: {message}\n  argv: {json.dumps(argv)}"
    return text if scene is None else f"{text}\n  scene.json: {json.dumps(scene)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("-n", type=int, required=True, help="cases to run")
    parser.add_argument("--command", choices=COMMANDS, required=True)
    args = parser.parse_args(argv)
    breaches, notes, codes = fuzz(args.command, args.seed, args.n)
    for item in breaches:
        print("BREACH " + _describe(*item))
    for item in notes:
        print("note   " + _describe(*item))
    mix = ", ".join(f"{code}: {count}" for code, count in sorted(codes.items(), key=str))
    print(f"{args.command} seed {args.seed}: {args.n} cases (exit codes {mix}), "
          f"{len(breaches)} breaches, {len(notes)} notes")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
