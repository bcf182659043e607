"""Acceptance gate: nine criteria with pinned tolerances and budgets.

Each criterion is one test function, so a verbose run prints exactly one
pass/fail line per criterion.  Instance families are generated from fixed
seeds; the families built for criteria 1-3 are reused by criterion 4.
"""

import math
import random
import time

import pytest

from conconic import (
    Conic,
    HPoint,
    Triangle,
    brianchon_concurrent,
    build_config,
    check_conditions,
    conconic,
    conconic_by_fit,
    concurrency,
    conic_through_points,
    cotangent,
    join,
    morley_config,
    pascal_collinear,
    porism_check,
    to_chart,
    trace_chain,
)
from conconic.generate import (
    concurrency_solved_instance,
    conjugate_instance,
    conconic_sextuple,
    cotangent_sextuple,
    float_triangle,
    perturbed_failing_instance,
    random_line_sextuple,
    random_sextuple,
    through_point_instance,
)
from conconic.morley import equilateral_side_spread

N_EXACT = 200
N_FLOAT = 100


@pytest.fixture(scope="module")
def solved_family():
    rnd = random.Random(101)
    t0 = time.perf_counter()
    out = [concurrency_solved_instance(rnd) for _ in range(N_EXACT)]
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def conjugate_families():
    out = {}
    for seed, kind in ((202, "isogonal"), (203, "isotomic")):
        rnd = random.Random(seed)
        t0 = time.perf_counter()
        out[kind] = ([conjugate_instance(rnd, kind) for _ in range(N_EXACT)],
                     time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def through_family():
    rnd = random.Random(404)
    t0 = time.perf_counter()
    out = [through_point_instance(rnd) for _ in range(N_EXACT)]
    return out, time.perf_counter() - t0


def test_criterion_1_solved_configurations_agree_exactly(solved_family):
    instances, gen_time = solved_family
    t0 = time.perf_counter()
    for tri, feet, _ in instances:
        report = check_conditions(build_config(tri, feet))
        assert report.booleans == (True, True, True, True)
        for verdict in (report.outer6, report.inner6, report.tangent6, report.concurrent):
            assert verdict.residual == 0
    elapsed = gen_time + (time.perf_counter() - t0)
    assert elapsed < 60.0
    print(f"criterion 1: {N_EXACT}/{N_EXACT} solved instances, four conditions "
          f"identical with exact zero residuals, {elapsed:.1f}s")


def test_criterion_2_conjugate_families_are_conconic(conjugate_families):
    for kind in ("isogonal", "isotomic"):
        instances, gen_time = conjugate_families[kind]
        t0 = time.perf_counter()
        for tri, feet in instances:
            report = check_conditions(build_config(tri, feet))
            assert report.all_hold
            assert report.outer6.residual == 0
        elapsed = gen_time + (time.perf_counter() - t0)
        assert elapsed < 30.0
        print(f"criterion 2: {N_EXACT}/{N_EXACT} {kind} instances conconic "
              f"with exact zero residual, {elapsed:.1f}s")


def test_criterion_3_through_point_families_hold_with_double_line(through_family):
    instances, gen_time = through_family
    t0 = time.perf_counter()
    for tri, feet, p1, p2 in instances:
        report = check_conditions(build_config(tri, feet))
        assert report.all_hold
        witness = report.inner6.witness_conic
        assert witness is not None
        assert witness.classify() == "double_line"
        assert witness.contains(p1) and witness.contains(p2)
    elapsed = gen_time + (time.perf_counter() - t0)
    assert elapsed < 30.0
    print(f"criterion 3: {N_EXACT}/{N_EXACT} through-point instances hold with "
          f"exact double-line witnesses, {elapsed:.1f}s")


def test_criterion_4_chart_criterion_matches_concurrency(
    solved_family, conjugate_families, through_family
):
    holding = [(tri, feet) for tri, feet, _ in solved_family[0]]
    holding += conjugate_families["isogonal"][0]
    holding += conjugate_families["isotomic"][0]
    holding += [(tri, feet) for tri, feet, _, _ in through_family[0]]
    for tri, feet in holding:
        chart = to_chart(build_config(tri, feet))
        assert not chart.degenerate
        assert chart.p == chart.q

    rnd = random.Random(505)
    for _ in range(N_EXACT):
        tri, feet = perturbed_failing_instance(rnd)
        chart = to_chart(build_config(tri, feet))
        assert not chart.degenerate
        assert chart.p != chart.q
    print(f"criterion 4: chart criterion p = q on all {len(holding)} holding "
          f"instances and p != q on {N_EXACT}/{N_EXACT} perturbed ones")


def test_criterion_5_float_trisector_configurations():
    rnd = random.Random(606)
    t0 = time.perf_counter()
    for _ in range(N_FLOAT):
        tri = float_triangle(rnd, 15.0, 150.0)
        _, spread = equilateral_side_spread(tri)
        assert spread < 1e-10
        data = morley_config(tri)
        u1, v1, w1 = data.config.U1, data.config.V1, data.config.W1
        residual = concurrency(join(tri.A, u1), join(tri.B, v1), join(tri.C, w1)).residual
        assert abs(residual) < 1e-9
        assert abs(data.report.outer6.residual) < 1e-8
        assert abs(data.report.inner6.residual) < 1e-8
        assert abs(data.report.tangent6.residual) < 1e-8
        assert data.report.all_hold
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 5: {N_FLOAT}/{N_FLOAT} float trisector configurations within "
          f"tolerance (spread<1e-10, center<1e-9, residuals<1e-8), {elapsed:.1f}s")


def test_criterion_6_chains_close_on_fitted_conics():
    rnd = random.Random(707)
    t0 = time.perf_counter()
    for _ in range(20):
        tri = float_triangle(rnd, 15.0, 150.0)
        data = morley_config(tri)
        report = porism_check(data.inner_conic, data.cevian_conic,
                              expected_n=3, num_samples=25, closure_tol=1e-7)
        assert report.all_closed
        assert report.steps == (3,) * 25
        assert report.max_gap < 1e-7
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 6: 20/20 trisector conic pairs close all 25-sample chains "
          f"at step 3 with gap < 1e-7, {elapsed:.1f}s")


def test_criterion_7_concentric_closure_calibration():
    outer = Conic.from_coeffs((1.0, 0.0, 1.0, 0.0, 0.0, -4.0))
    t0 = time.perf_counter()
    for n in range(3, 9):
        r = 2.0 * math.cos(math.pi / n)
        inner = Conic.from_coeffs((1.0, 0.0, 1.0, 0.0, 0.0, -r * r))
        report = porism_check(outer, inner, expected_n=n, num_samples=20, closure_tol=1e-9)
        assert report.all_closed, n
        assert report.steps == (n,) * 20
        assert report.max_gap < 1e-9
        perturbed = Conic.from_coeffs((1.0, 0.0, 1.0, 0.0, 0.0, -(1.01 * r) ** 2))
        chain = trace_chain(outer, perturbed, HPoint(2.0, 0.0, 1.0), max_steps=100)
        assert not chain.closed
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 7: concentric chains close at exactly n for n=3..8 "
          f"(gap < 1e-9); 1%-perturbed radii never close in 100 steps, {elapsed:.1f}s")


def test_criterion_8_two_conconicity_routes_agree():
    rnd = random.Random(808)
    t0 = time.perf_counter()
    agreements = 0
    for k in range(1000):
        pts = conconic_sextuple(rnd) if k % 4 == 0 else random_sextuple(rnd)
        verdict = conconic(pts)
        assert verdict.holds == conconic_by_fit(pts)
        if k % 4 == 0:
            # the determinant route's witness (the bracket conic through
            # five of the points) is the nullspace fit through the same five
            assert verdict.witness_conic == conic_through_points(pts[:5])
        agreements += 1
    elapsed = time.perf_counter() - t0
    assert agreements == 1000
    assert elapsed < 30.0
    print(f"criterion 8: determinant and fit-then-test routes agree on "
          f"{agreements}/1000 random sextuples, {elapsed:.1f}s")


def test_criterion_9_classical_incidence_checks_agree():
    rnd = random.Random(909)
    pascal_hits = 0
    for k in range(500):
        pts = conconic_sextuple(rnd) if k % 2 == 0 else random_sextuple(rnd)
        assert pascal_collinear(pts) == conconic(pts).holds
        pascal_hits += 1
    brianchon_hits = 0
    for k in range(500):
        lines = cotangent_sextuple(rnd) if k % 2 == 0 else random_line_sextuple(rnd)
        assert brianchon_concurrent(lines) == cotangent(lines).holds
        brianchon_hits += 1
    assert pascal_hits == 500 and brianchon_hits == 500
    print(f"criterion 9: hexagon collinearity agrees on {pascal_hits}/500 point "
          f"instances; diagonal concurrency agrees on {brianchon_hits}/500 line instances")
