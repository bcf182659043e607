#!/usr/bin/env python3
"""End-to-end trisector demo: configuration report, conics, and chain closure.

Builds the angle-trisector cevian configuration for one triangle, prints the
small-triangle geometry and the four condition residuals, then traces chains
between the two derived conics to confirm they close after three steps.

Usage:
    python3 scripts/trisector_demo.py
    python3 scripts/trisector_demo.py --triangle "0,0 4,0 0,3" --svg demo.svg
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conconic import HPoint, Triangle, morley_config, porism_check, render_morley
from conconic.morley import equilateral_side_spread


def parse_triangle(text: str) -> Triangle:
    pairs = text.split()
    if len(pairs) != 3:
        raise SystemExit(f"expected three 'x,y' vertices, got {text!r}")
    points = [HPoint.from_xy(*(float(w) for w in pair.split(","))) for pair in pairs]
    return Triangle(*points)


def describe_point(p: HPoint) -> str:
    x, y = p.to_xy()
    return f"({x:+.6f}, {y:+.6f})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--triangle", default="0,0 4,0 0,3",
                        help="three vertices as 'x,y x,y x,y'")
    parser.add_argument("--samples", type=int, default=25,
                        help="number of chain start points for the closure check")
    parser.add_argument("--svg", type=Path, default=None,
                        help="write a diagram of the configuration here")
    args = parser.parse_args(argv)

    tri = parse_triangle(args.triangle)
    data = morley_config(tri)

    print("triangle:")
    for name, vertex in zip("ABC", (tri.A, tri.B, tri.C)):
        print(f"  {name} = {describe_point(vertex)}")

    u1, v1, w1 = data.config.U1, data.config.V1, data.config.W1
    mean, spread = equilateral_side_spread(tri)
    print("\ninner trisector triangle:")
    for name, vertex in zip(("U1", "V1", "W1"), (u1, v1, w1)):
        print(f"  {name} = {describe_point(vertex)}")
    print(f"  side length   = {mean:.12f}")
    print(f"  rel. spread   = {spread:.3e}   (equilateral up to roundoff)")

    print("\ncondition residuals for the six trisector feet:")
    for name in ("outer6", "inner6", "tangent6", "concurrent"):
        verdict = getattr(data.report, name)
        status = "holds" if verdict.holds else "FAILS"
        print(f"  {name:<10} {status:<6} residual = {float(verdict.residual):.3e}")

    print("\ncenters:")
    print(f"  first  (trisector-triangle) = {describe_point(data.centers.first)}")
    print(f"  second (cevian concurrency) = {describe_point(data.centers.second)}")

    print("\nderived conics (quadratic-form coefficients):")
    print(f"  through inner points: {tuple(float(c) for c in data.inner_conic.coeffs)}")
    print(f"  tangent to cevians:   {tuple(float(c) for c in data.cevian_conic.coeffs)}")

    report = porism_check(data.inner_conic, data.cevian_conic,
                          expected_n=3, num_samples=args.samples)
    print(f"\nchain closure between the two conics ({args.samples} start points):")
    print(f"  all chains close after 3 steps: {report.all_closed}")
    print(f"  worst closure gap: {report.max_gap:.3e}")
    histogram = {}
    for step in report.steps:
        histogram[step] = histogram.get(step, 0) + 1
    print(f"  closure-step histogram: {dict(sorted(histogram.items(), key=str))}")

    if args.svg is not None:
        args.svg.write_text(render_morley(data), encoding="utf-8")
        print(f"\nwrote diagram to {args.svg}")

    ok = data.report.all_hold and report.all_closed and spread < 1e-9
    print("\nRESULT:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
