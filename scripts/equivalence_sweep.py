#!/usr/bin/env python3
"""Cross-validate the conconicity and cotangency tests on random inputs.

Three independent routes decide whether six points lie on a common conic:
the 6x6 determinant of their quadratic monomial rows, fitting a conic to
five of the points and testing the sixth, and the classical hexagon
collinearity criterion.  On every engineered positive, the determinant
route's witness (signed 5x5 minors in integers) must also equal the
nullspace fit through the same five points.  Dually, the determinant route
for six lines is checked against diagonal concurrency of the tangent
hexagon.  The sweep mixes engineered positives with generic sextuples
(which are almost never conconic) and tallies agreement; any disagreement
is printed in full.

Usage:
    python3 scripts/equivalence_sweep.py --count 2000 --seed 7
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conconic import (
    brianchon_concurrent,
    conconic,
    conconic_by_fit,
    conic_through_points,
    cotangent,
    pascal_collinear,
)
from conconic.errors import NonUniqueConic
from conconic.generate import (
    conconic_sextuple,
    cotangent_sextuple,
    random_line_sextuple,
    random_sextuple,
)


def nullspace_fit(pts):
    """The nullspace fit through the five points the determinant route
    fits its witness through: the first five, else the first five-subset
    (leaving out point 0, 1, ...) that determines a conic."""
    for hold_out in (5, 0, 1, 2, 3, 4):
        try:
            return conic_through_points([p for i, p in enumerate(pts) if i != hold_out])
        except NonUniqueConic:
            continue
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=2000,
                        help="instances per family")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    rnd = random.Random(args.seed)
    mismatches = 0

    t0 = time.perf_counter()
    tallies = {"det=fit": 0, "det=hexagon": 0, "positives": 0, "witness=fit": 0, "engineered": 0}
    for k in range(args.count):
        engineered = k % 3 == 0
        pts = conconic_sextuple(rnd) if engineered else random_sextuple(rnd)
        verdict = conconic(pts)
        det_verdict = verdict.holds
        fit_verdict = conconic_by_fit(pts)
        hex_verdict = pascal_collinear(pts)
        tallies["det=fit"] += det_verdict == fit_verdict
        tallies["det=hexagon"] += det_verdict == hex_verdict
        tallies["positives"] += det_verdict
        if det_verdict != fit_verdict or det_verdict != hex_verdict:
            mismatches += 1
            print(f"MISMATCH points det={det_verdict} fit={fit_verdict} "
                  f"hexagon={hex_verdict}\n  {pts}")
        if engineered:
            tallies["engineered"] += 1
            fitted = nullspace_fit(pts)
            same = verdict.witness_conic is not None and verdict.witness_conic == fitted
            tallies["witness=fit"] += same
            if not same:
                mismatches += 1
                print(f"MISMATCH witness {verdict.witness_conic} fit={fitted}\n  {pts}")
    dt = time.perf_counter() - t0
    print(f"point sextuples ({args.count} instances, {dt:.1f}s):")
    print(f"  determinant vs fit-and-test:     {tallies['det=fit']}/{args.count}")
    print(f"  determinant vs hexagon verdict:  {tallies['det=hexagon']}/{args.count}")
    print(f"  engineered + accidental positives: {tallies['positives']}")
    print(f"  witness minors vs nullspace fit:   {tallies['witness=fit']}/{tallies['engineered']}")

    t0 = time.perf_counter()
    line_tallies = {"det=diagonals": 0, "positives": 0}
    for k in range(args.count):
        lines = cotangent_sextuple(rnd) if k % 3 == 0 else random_line_sextuple(rnd)
        det_verdict = cotangent(lines).holds
        diag_verdict = brianchon_concurrent(lines)
        line_tallies["det=diagonals"] += det_verdict == diag_verdict
        line_tallies["positives"] += det_verdict
        if det_verdict != diag_verdict:
            mismatches += 1
            print(f"MISMATCH lines det={det_verdict} diagonals={diag_verdict}\n  {lines}")
    dt = time.perf_counter() - t0
    print(f"line sextuples ({args.count} instances, {dt:.1f}s):")
    print(f"  determinant vs diagonal concurrency: {line_tallies['det=diagonals']}/{args.count}")
    print(f"  engineered + accidental positives:   {line_tallies['positives']}")

    print(f"\ntotal mismatches: {mismatches}")
    return 0 if mismatches == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
