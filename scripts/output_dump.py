#!/usr/bin/env python3
"""Print one sha256 digest per family of library outputs for one seed.

The seeded inputs are exact cevian configurations from the five generator
families (solved, isogonal, isotomic, through two points, perturbed), the
float copies of the same configurations, point and line sextuples (one in
four engineered onto or tangent to a conic), five-point draws for the
sixth-foot solver, float triangles for the trisector configuration, and
circle pairs whose chains close at n = 3..8.  Every output is recorded by
``repr``, which round-trips both ``Fraction`` and ``float``, so one
changed bit changes its family's digest.  Running the script at two commits and comparing the
lines checks that a change which must not alter any output does not.

Families:
    verdicts, residuals, witnesses, charts
        exact configurations: holds/degenerate flags, residuals, witness
        coefficients, and chart b1/c2/p/q/criterion;
    feet
        the triangle and feet of every exact configuration, then per draw
        a random triangle (every other one pushed through an integer map,
        so its points have varied last coordinates), three feet on it and
        their isogonal and isotomic images;
    float_verdicts, float_residuals, float_witnesses, float_charts
        the same records for the float copies;
    sextuples
        conconic / conconic_by_fit on point sextuples, cotangent on line
        sextuples;
    sixth_feet, float_sixth_feet
        solve_sixth_foot on exact draws and on their float copies;
    morley
        morley_config on float triangles (angles in 15-150 and 1-178
        degrees, alternating): the Morley triangle, the four holds flags
        and residuals, both conics and the two centres;
    chains
        porism_check steps and gaps on those conic pairs (n = 3) and on
        circle pairs, one circle inside the other, that close at n = 3..8;
    chain_points
        the coordinates of every vertex and link of the chains that
        porism_check traces for the chains family;
    svg
        the sha256 of render_configuration on exact configurations with
        their first two witnesses, of render_morley, and of render_chain on
        the first of those conic pairs and on every circle pair;
    cli
        conconic.cli.main run in process over a fixed list of command lines
        (verify on rational and float scenes in every feet shape, morley,
        poncelet in porism and start-point mode): the exit code, stdout,
        stderr and the sha256 of the SVG written.  It does not depend on
        the seed.

With ``--seeds A-B`` it prints one sha256 instead: that of the lines the
seeds A to B print one after another, which is what piping a loop of
``--seed`` runs to ``sha256sum`` reads.

Usage:
    python3 scripts/output_dump.py --seed 1
    python3 scripts/output_dump.py --seeds 1-20
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conconic import (
    Conic,
    Triangle,
    build_config,
    check_conditions,
    conconic,
    conconic_by_fit,
    cotangent,
    find_point_on_conic,
    isogonal_feet,
    isotomic_feet,
    morley_config,
    porism_check,
    render_chain,
    render_configuration,
    render_morley,
    solve_sixth_foot,
    to_chart,
    trace_chain,
)
from conconic import cli
from conconic.cevians import foot_point
from conconic.errors import GeometryError
from conconic.poncelet import spread_on_conic
from conconic.generate import (
    SIDES,
    concurrency_solved_instance,
    conconic_sextuple,
    conjugate_instance,
    cotangent_sextuple,
    float_copy,
    float_triangle,
    perturbed_failing_instance,
    random_fraction,
    random_line_sextuple,
    random_projective_map,
    random_sextuple,
    random_triangle,
    sixth_foot_draw,
    through_point_instance,
)

FAMILIES = ("solved", "isogonal", "isotomic", "through", "perturbed")
CONFIGS = 50     # exact configurations, cycling through FAMILIES
SEXTUPLES = 64   # point and line sextuples, alternating
DRAWS = 200      # sixth-foot draws
TRIANGLES = 20   # float triangles for the trisector configuration
SAMPLES = 5      # porism_check starting points per conic pair
DRAWINGS = 4     # render_configuration and render_morley drawings each


def op_rng(seed: int, i: int) -> random.Random:
    """The per-operation generator of ``bench/workloads.py``: configuration
    record i sees the inputs of ``exact_sweep`` operation i."""
    return random.Random(seed * 1_000_003 + i)


def instance(rnd: random.Random, family: str):
    if family == "solved":
        return concurrency_solved_instance(rnd)[:2]
    if family == "through":
        return through_point_instance(rnd)[:2]
    if family == "perturbed":
        return perturbed_failing_instance(rnd)
    return conjugate_instance(rnd, family)


def coeffs(conic):
    return None if conic is None else conic.coeffs


def config_records(tri, feet, out, prefix):
    try:
        cfg = build_config(tri, feet)
        report = check_conditions(cfg)
    except GeometryError as err:
        for family in ("verdicts", "residuals", "witnesses", "charts"):
            out[prefix + family].append(type(err).__name__)
        return
    verdicts = (report.outer6, report.inner6, report.tangent6, report.concurrent)
    out[prefix + "verdicts"].append(repr([(v.holds, v.degenerate) for v in verdicts]))
    out[prefix + "residuals"].append(repr([v.residual for v in verdicts]))
    out[prefix + "witnesses"].append(repr([coeffs(v.witness_conic) for v in verdicts[:3]]))
    try:
        chart = to_chart(cfg)
        record = (chart.b1, chart.c2, chart.p, chart.q, None if chart.degenerate else chart.criterion)
    except GeometryError as err:
        record = type(err).__name__
    out[prefix + "charts"].append(repr(record))


def attempt(fn, *args):
    try:
        return fn(*args)
    except GeometryError as err:
        return type(err).__name__


def verdict_record(verdict):
    if isinstance(verdict, str):
        return verdict
    return (verdict.holds, verdict.residual, coeffs(verdict.witness_conic), verdict.degenerate)


def sextuple_records(rnd: random.Random, i: int, out):
    positive = (i // 2) % 4 == 0
    if i % 2 == 0:
        pts = conconic_sextuple(rnd) if positive else random_sextuple(rnd)
        record = (verdict_record(attempt(conconic, pts)), attempt(conconic_by_fit, pts))
    else:
        lines = cotangent_sextuple(rnd) if positive else random_line_sextuple(rnd)
        record = verdict_record(attempt(cotangent, lines))
    out["sextuples"].append(repr(record))


def conjugate_record(rnd: random.Random, i: int) -> str:
    tri = random_triangle(rnd)
    if i % 2:
        tri = Triangle(*map(random_projective_map(rnd).apply, tri.vertices))
    try:
        triple = tuple(foot_point(tri, side, random_fraction(rnd)) for side in SIDES)
    except ZeroDivisionError as err:  # a vertex at infinity: every vertex is on some side
        return repr((tri, type(err).__name__))
    return repr((tri, triple, attempt(isogonal_feet, tri, triple), attempt(isotomic_feet, tri, triple)))


def sixth_foot_record(tri, five, side):
    result = attempt(solve_sixth_foot, tri, five, side)
    return repr(result if isinstance(result, str) else [p.coords for p in result])


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def floats(p):
    return [float(v) for v in p.coords]


def morley_record(data):
    if isinstance(data, str):
        return data
    report, cfg = data.report, data.config
    verdicts = (report.outer6, report.inner6, report.tangent6, report.concurrent)
    return (
        [floats(p) for p in (cfg.U1, cfg.V1, cfg.W1)],
        [(v.holds, v.residual) for v in verdicts],
        data.inner_conic.coeffs,
        data.cevian_conic.coeffs,
        floats(data.centers.first),
        floats(data.centers.second),
    )


def circle_pair(rnd: random.Random, n: int):
    """Two concentric circles at a random centre, radii R and R cos(pi/n),
    so that every chain between them closes at step n."""
    radius = rnd.uniform(1.0, 5.0)
    cx, cy = rnd.uniform(-3.0, 3.0), rnd.uniform(-3.0, 3.0)

    def circle(r):
        return Conic.from_coeffs((1.0, 0.0, 1.0, -2.0 * cx, -2.0 * cy, cx * cx + cy * cy - r * r))

    return circle(radius), circle(radius * math.cos(math.pi / n)), n


def chain_coords(outer, inner, n):
    """Vertex and link coordinates of the chains ``porism_check(outer,
    inner, n, SAMPLES)`` traces, one record per starting point."""
    chains = (trace_chain(outer, inner, start, n) for start in spread_on_conic(outer, SAMPLES))
    return [([p.coords for p in c.points], [l.coords for l in c.links]) for c in chains]


def chain_svg(outer, inner, n):
    chain = trace_chain(outer, inner, find_point_on_conic(outer), n)
    return render_chain(outer, inner, chain)


TRIANGLE = [["0", "0"], ["4", "0"], ["0", "3"]]
SCENES = {
    "params": {"triangle": TRIANGLE, "feet": {"params": ["1/3", "2/5", "3/7", "1/2", "1/2", "1/2"]}},
    "isogonal": {"triangle": TRIANGLE, "feet": {"generator": "isogonal", "params": ["1/3", "2/5", "1/2"]}},
    "isotomic": {"triangle": TRIANGLE, "feet": {"generator": "isotomic", "params": ["3/10", "9/20", "61/100"]}},
    "through_points": {
        "triangle": TRIANGLE,
        "feet": {"generator": "through_points", "points": [["1", "1/2"], ["3/2", "1"]]},
    },
}
OUTER, INNER3 = "1,0,1,0,0,-4", "1,0,1,0,0,-1"
COMMANDS = (
    [["verify", f"{name}-{mode}.json"] + flags
     for name in SCENES for mode in ("rational", "float") for flags in ([], ["--json", "--svg", "out.svg"])]
    + [
        ["verify", "params-rational.json", "--mode", "float", "--json"],
        ["morley", "--triangle", "0,0 4,0 0,3", "--json", "--poncelet-samples", "10", "--svg", "out.svg"],
        ["morley", "--triangle", "0,0 5,1 2,4", "--poncelet-samples", "10"],
        ["poncelet", "--outer", OUTER, "--inner", INNER3, "--expected-n", "3", "--samples", "5",
         "--json", "--svg", "out.svg"],
        ["poncelet", "--outer", OUTER, "--inner", "1,0,1,0,0,-2", "--expected-n", "3", "--samples", "5"],
        ["poncelet", "--outer", OUTER, "--inner", INNER3, "--start", "2,0", "--json", "--svg", "out.svg"],
        ["poncelet", "--outer", OUTER, "--inner", "1,0,1,0,0,-2", "--start", "0,2", "--max-steps", "20"],
        ["poncelet", "--outer", OUTER, "--inner", INNER3],
        ["morley", "--triangle", "0,0 4,0", "--json"],
    ]
)


def cli_records():
    """Exit code, stdout, stderr and SVG digest of each of ``COMMANDS``, run
    in a scratch directory that holds the scene files."""
    records = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, scene in SCENES.items():
                for mode in ("rational", "float"):
                    Path(f"{name}-{mode}.json").write_text(json.dumps({**scene, "mode": mode}))
            for argv in COMMANDS:
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(argv)
                svg = Path("out.svg")
                digest = sha(svg.read_text()) if svg.exists() else None
                svg.unlink(missing_ok=True)
                records.append(repr((code, stdout.getvalue(), stderr.getvalue(), digest)))
        finally:
            os.chdir(cwd)
    return records


def seed_range(text: str) -> range:
    """The seeds of an ``A-B`` argument, both ends included."""
    first, sep, last = text.partition("-")
    try:
        seeds = range(int(first), int(last) + 1)
    except ValueError:
        seeds = range(0)
    if not sep or not seeds:
        raise argparse.ArgumentTypeError(f"expected A-B with integers A <= B, got {text!r}")
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--seed", type=int, help="print each family's digest for this seed (default 1)")
    group.add_argument("--seeds", type=seed_range, help="A-B: print one digest over seeds A to B")
    args = parser.parse_args(argv)
    if args.seeds is None:
        print("\n".join(seed_lines(1 if args.seed is None else args.seed)))
    else:
        print(sha("".join(line + "\n" for seed in args.seeds for line in seed_lines(seed))))
    return 0


def seed_lines(seed: int) -> list:
    """The lines ``--seed seed`` prints: each family, its record count and
    its digest."""
    names = ("verdicts", "residuals", "witnesses", "charts")
    out = {prefix + name: [] for prefix in ("", "float_") for name in names}
    out.update(feet=[], sextuples=[], sixth_feet=[], float_sixth_feet=[], morley=[], chains=[], chain_points=[], svg=[])
    for i in range(CONFIGS):
        tri, feet = instance(op_rng(seed, i), FAMILIES[i % len(FAMILIES)])
        out["feet"].append(repr((tri, feet)))
        config_records(tri, feet, out, "")
        config_records(float_copy(tri), float_copy(feet), out, "float_")
    for i in range(SEXTUPLES):
        sextuple_records(op_rng(seed, i), i, out)
    for i in range(DRAWS):
        out["feet"].append(conjugate_record(op_rng(seed, i), i))
        tri, five, side = sixth_foot_draw(op_rng(seed, i))
        out["sixth_feet"].append(sixth_foot_record(tri, five, side))
        ffive = tuple(map(float_copy, five))
        out["float_sixth_feet"].append(sixth_foot_record(float_copy(tri), ffive, side))
    for i in range(DRAWINGS):
        tri, feet = instance(op_rng(seed, i), FAMILIES[i % len(FAMILIES)])
        cfg = build_config(tri, feet)
        report = check_conditions(cfg)
        witnesses = (report.outer6.witness_conic, report.inner6.witness_conic)
        out["svg"].append(sha(render_configuration(cfg, witnesses)))
    pairs = []
    for i in range(TRIANGLES):
        low, high = (15.0, 150.0) if i % 2 == 0 else (1.0, 178.0)
        data = attempt(morley_config, float_triangle(op_rng(seed, i), low, high))
        out["morley"].append(repr(morley_record(data)))
        if not isinstance(data, str):
            pairs.append((data.inner_conic, data.cevian_conic, 3))
            if len(pairs) <= DRAWINGS:
                out["svg"].append(sha(render_morley(data)))
    circles = [circle_pair(op_rng(seed, i), n) for i, n in enumerate(range(3, 9))]
    for outer, inner, n in pairs + circles:
        report = attempt(porism_check, outer, inner, n, SAMPLES)
        out["chains"].append(repr(report if isinstance(report, str) else (report.steps, report.gaps)))
        out["chain_points"].append(repr(attempt(chain_coords, outer, inner, n)))
    for outer, inner, n in pairs[:1] + circles:
        out["svg"].append(sha(attempt(chain_svg, outer, inner, n)))
    out["cli"] = cli_records()
    lines = []
    for family, records in out.items():
        digest = sha("\n".join(records))
        lines.append(f"{family:<18} {len(records):>4}  {digest}")
    return lines


if __name__ == "__main__":
    sys.exit(main())
