import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings

import conconic.cevians as cevians
import conconic.conics as conics
import conconic.projective as projective
from conconic import (
    CevianFeet,
    HPoint,
    ProofChart,
    incident,
    projective_gap,
    Triangle,
    build_config,
    cevians_through_point,
    check_conditions,
    conconic,
    isogonal_feet,
    isotomic_feet,
    solve_sixth_foot,
    to_chart,
    validate_feet,
)
from conconic.conics import Conic, conic_through_points
from conconic.errors import (
    ChartDegenerate,
    CoincidentCevians,
    DegenerateTriangle,
    DuplicatePoints,
    FootOffSide,
    GeometryError,
    IrrationalResult,
    LineOnConic,
    NoRealSolution,
    NonUniqueConic,
    PointAtVertex,
    PointOnSide,
    SideOnConic,
    TheoremConsistencyError,
)
from conconic.generate import (
    EXACT_FAMILIES,
    concurrency_solved_instance,
    conjugate_instance,
    exact_instance,
    feet_from_params,
    float_copy,
    foot_point,
    perturbed_failing_instance,
    random_triangle,
    sixth_foot_draw,
    solve_concurrent_params,
    through_point_instance,
)
from conconic.scalars import exact_sqrt

from conftest import exact_triangles, unit_interval_fractions

RIGHT_345 = Triangle(HPoint(0, 0, 1), HPoint(4, 0, 1), HPoint(0, 3, 1))


def median_feet(tri):
    return tuple(foot_point(tri, side, Fraction(1, 2)) for side in ("BC", "CA", "AB"))


def test_triangle_rejects_collinear_vertices():
    with pytest.raises(DegenerateTriangle):
        Triangle(HPoint(0, 0, 1), HPoint(1, 1, 1), HPoint(2, 2, 1))


def test_validate_feet_catches_off_side_and_vertices():
    feet = feet_from_params(RIGHT_345, [Fraction(1, 3)] * 3 + [Fraction(2, 3)] * 3)
    validate_feet(RIGHT_345, feet)
    # a foot away from its side line
    bad = CevianFeet(
        A1=HPoint(1, 1, 1), A2=feet.A2, B1=feet.B1, B2=feet.B2, C1=feet.C1, C2=feet.C2
    )
    with pytest.raises(FootOffSide):
        validate_feet(RIGHT_345, bad)
    # a foot at a vertex
    at_vertex = feet_from_params(
        RIGHT_345, [Fraction(0), Fraction(1, 3), Fraction(1, 3), Fraction(2, 3), Fraction(2, 3), Fraction(2, 3)]
    )
    with pytest.raises(FootOffSide):
        validate_feet(RIGHT_345, at_vertex)


FOOT_SIDES = {"A": "BC", "B": "CA", "C": "AB"}


def per_foot_error(tri, checks, eps=1e-9):
    """The ``FootOffSide`` message of the per-foot rule on ``(foot, side,
    off, at)`` checks in order: each foot on its side line by ``incident``,
    then away from A, B and C by ``coincident``; None when all pass."""
    for foot, side, off, at in checks:
        if not incident(foot, tri.side_line(side), eps):
            return f"{off} does not lie on side {side}"
        for vertex, vname in zip(tri.vertices, "ABC"):
            if projective.coincident(foot, vertex, eps):
                return f"{at} coincides with vertex {vname}"
    return None


def bad_foot(rnd, tri, foot):
    """A seeded replacement for ``foot``: a random point (mostly off the
    side) or a vertex, exact or float, or a float point within 1e-13 of a
    vertex or of the foot."""
    kind = rnd.choice(("off", "vertex", "near vertex", "near foot"))
    if kind == "off":
        p = HPoint(rnd.randint(-20, 20), rnd.randint(-20, 20), rnd.randint(1, 5))
    elif kind == "vertex":
        p = rnd.choice(tri.vertices)
    else:
        base = rnd.choice(tri.vertices) if kind == "near vertex" else foot
        x, y, z = map(float, base.coords)
        return HPoint(x * (1 + 1e-13) + 1e-14, y, z)
    return rnd.choice((p, float_copy(p)))


@pytest.mark.parametrize("call, message", [
    (lambda: feet_from_params(RIGHT_345, [Fraction(1, 2)] * 5), "six side parameters are required"),
    (lambda: feet_from_params(RIGHT_345, [Fraction(1, 2)] * 6).triple(3), "triple index must be 1 or 2"),
], ids=["five-params", "third-triple"])
def test_feet_input_checks_name_the_problem(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_validate_feet_names_the_first_offending_foot_as_the_per_foot_rule():
    names = ("A1", "A2", "B1", "B2", "C1", "C2")
    outcomes = Counter()
    for seed in range(80):
        rnd = random.Random(seed)
        tri, feet, _ = concurrency_solved_instance(rnd)
        ftri, ffeet = float_copy(tri), float_copy(feet)
        for t, f in ((tri, feet), (ftri, ffeet), (tri, ffeet), (ftri, feet)):
            replaced = rnd.sample(names, rnd.randint(0, 2))
            changed = f.replace(**{n: bad_foot(rnd, t, getattr(f, n)) for n in replaced})
            checks = [(getattr(changed, n), FOOT_SIDES[n[0]], f"foot {n}", f"foot {n}") for n in names]
            expected = per_foot_error(t, checks)
            if expected is None:
                validate_feet(t, changed)
            else:
                with pytest.raises(FootOffSide) as err:
                    validate_feet(t, changed)
                assert str(err.value) == expected
            outcomes[expected and expected.split()[2]] += 1  # None, "does" (not lie) or "coincides"
            # the conjugate generators check their three feet by the same rule
            triple = changed.triple(1)
            expected = per_foot_error(t, [(p, s, "foot", f"foot on {s}") for p, s in zip(triple, ("BC", "CA", "AB"))])
            if expected is None:
                isotomic_feet(t, triple)
            else:
                with pytest.raises(FootOffSide) as err:
                    isotomic_feet(t, triple)
                assert str(err.value) == expected
    # passing feet, feet off their side and feet at a vertex all occur
    assert set(outcomes) == {None, "does", "coincides"}


def test_median_feet_oracle():
    a1, b1, c1 = median_feet(RIGHT_345)
    assert a1 == HPoint(2, Fraction(3, 2), 1)
    assert b1 == HPoint(0, Fraction(3, 2), 1)
    assert c1 == HPoint(2, 0, 1)


def test_isogonal_median_foot_oracle():
    # frozen: the isogonal image of the BC midpoint of the 3-4-5 right
    # triangle has barycentric weights (0 : 9 : 16), i.e. (36/25, 48/25)
    out = isogonal_feet(RIGHT_345, median_feet(RIGHT_345))
    assert out[0] == HPoint(Fraction(36, 25), Fraction(48, 25), 1)


def test_symmedian_feet_oracle():
    out = isogonal_feet(RIGHT_345, median_feet(RIGHT_345))
    assert out == (
        HPoint(36, 48, 25),
        HPoint(0, 48, 41),
        HPoint(18, 0, 17),
    )


def test_incenter_feet_oracle():
    # frozen: angle bisector feet of the 3-4-5 right triangle
    feet = cevians_through_point(RIGHT_345, HPoint(1, 1, 1))
    assert feet == (
        HPoint(Fraction(12, 7), Fraction(12, 7), 1),
        HPoint(0, Fraction(4, 3), 1),
        HPoint(Fraction(3, 2), 0, 1),
    )


def test_cevians_through_point_validation():
    with pytest.raises(PointAtVertex):
        cevians_through_point(RIGHT_345, HPoint(0, 0, 1))
    with pytest.raises(PointOnSide):
        cevians_through_point(RIGHT_345, HPoint(2, 0, 1))


@given(exact_triangles(), unit_interval_fractions, unit_interval_fractions, unit_interval_fractions)
@settings(max_examples=40, deadline=None)
def test_isogonal_is_an_involution(tri, ta, tb, tc):
    first = tuple(foot_point(tri, side, t) for side, t in zip(("BC", "CA", "AB"), (ta, tb, tc)))
    out = isogonal_feet(tri, first)
    assert isogonal_feet(tri, out) == first


@given(exact_triangles(), unit_interval_fractions, unit_interval_fractions, unit_interval_fractions)
@settings(max_examples=40, deadline=None)
def test_isotomic_is_an_involution_and_mirrors_parameters(tri, ta, tb, tc):
    first = tuple(foot_point(tri, side, t) for side, t in zip(("BC", "CA", "AB"), (ta, tb, tc)))
    out = isotomic_feet(tri, first)
    assert isotomic_feet(tri, out) == first
    # the isotomic foot sits at the mirrored side parameter 1 - t
    assert out[0] == foot_point(tri, "BC", 1 - ta)
    assert out[1] == foot_point(tri, "CA", 1 - tb)
    assert out[2] == foot_point(tri, "AB", 1 - tc)


def test_build_config_derived_points_oracle():
    # medians meet at the centroid, so all first-index derived points
    # collapse onto it
    tri = RIGHT_345
    first = median_feet(tri)
    second = isogonal_feet(tri, first)
    cfg = build_config(tri, CevianFeet.from_triples(first, second))
    centroid = HPoint(Fraction(4, 3), 1, 1)
    assert cfg.X1 == cfg.Y1 == cfg.Z1 == centroid
    # and the second-index points collapse onto the symmedian point
    assert cfg.X2 == cfg.Y2 == cfg.Z2 == HPoint(Fraction(18, 25), Fraction(24, 25), 1)


def test_duplicate_triples_degrade_gracefully():
    # when the second triple repeats the first, the three six-element
    # determinants vanish trivially (repeated rows) while the concurrency
    # condition is a genuine Ceva-style constraint that generically fails;
    # the report surfaces this instead of raising, because the theorem's
    # distinctness hypotheses are violated
    tri = RIGHT_345
    params = [Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)] * 2
    feet = feet_from_params(tri, params)
    cfg = build_config(tri, feet)
    report = check_conditions(cfg)
    assert report.booleans[:3] == (True, True, True)
    assert not report.concurrent.holds
    assert not report.agree


def test_four_conditions_hold_on_solved_instance(rnd):
    tri, feet, _ = concurrency_solved_instance(rnd)
    report = check_conditions(build_config(tri, feet))
    assert report.agree and report.all_hold
    for verdict in (report.outer6, report.inner6, report.tangent6, report.concurrent):
        assert verdict.residual == 0
    assert report.outer6.witness_conic is not None


def test_solved_params_satisfy_carnot_and_all_conditions(rnd):
    # Carnot's criterion for six feet on the sides: prod(t) == prod(1 - t)
    solved = 0
    while solved < 200:
        tri = random_triangle(rnd)
        params = solve_concurrent_params(rnd)
        if params is None:
            continue
        solved += 1
        assert math.prod(params) == math.prod(1 - t for t in params), params
        report = check_conditions(build_config(tri, feet_from_params(tri, params)))
        assert report.all_hold, params


def test_four_conditions_fail_on_perturbed_instance(rnd):
    tri, feet = perturbed_failing_instance(rnd)
    report = check_conditions(build_config(tri, feet))
    assert report.agree and not report.all_hold
    for verdict in (report.outer6, report.inner6, report.tangent6, report.concurrent):
        assert verdict.residual != 0


def test_conjugate_families_hold(rnd):
    for kind in ("isogonal", "isotomic"):
        tri, feet = conjugate_instance(rnd, kind)
        report = check_conditions(build_config(tri, feet))
        assert report.all_hold
        assert report.outer6.residual == 0


def test_through_point_family_holds_with_double_line_witness(rnd):
    tri, feet, p1, p2 = through_point_instance(rnd)
    cfg = build_config(tri, feet)
    report = check_conditions(cfg)
    assert report.all_hold
    witness = report.inner6.witness_conic
    assert witness is not None
    assert witness.classify() == "double_line"
    assert witness.contains(p1) and witness.contains(p2)


def test_collapsed_configuration_reports_instead_of_raising():
    # one concurrent triple (medians) collapses the derived points, which
    # makes the six-derived-point determinant vanish while the other three
    # conditions genuinely fail; the report must surface the disagreement
    # rather than raise, because the distinctness hypotheses are violated
    tri = RIGHT_345
    params = [Fraction(1, 3), Fraction(2, 5), Fraction(3, 7),
              Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)]
    cfg = build_config(tri, feet_from_params(tri, params))
    report = check_conditions(cfg)
    assert not report.agree
    assert report.booleans == (False, True, False, False)


def test_exact_pipeline_never_computes_a_float_scale(monkeypatch, rnd):
    import conconic.cevians as cevians
    import conconic.conics as conics
    import conconic.projective as projective

    instances = [concurrency_solved_instance(rnd)[:2], through_point_instance(rnd)[:2]]
    circle = conics.Conic.from_coeffs((1, 0, 1, 0, 0, -1))

    def no_scale(*args):
        raise AssertionError("an exact zero test computed a float scale")

    for module in (projective, conics, cevians):
        monkeypatch.setattr(module, "row_norm", no_scale)
    monkeypatch.setattr(conics, "_frob", no_scale)
    for tri, feet in instances:
        cfg = build_config(tri, feet)
        report = check_conditions(cfg)
        assert report.all_hold and to_chart(cfg).criterion
        assert all(report.outer6.witness_conic.contains(p) for p in feet.outer)
    assert circle.contains(HPoint(3, 4, 5)) and circle.is_tangent(projective.HLine(1, 0, -1))


def test_exact_duplicate_free_disagreement_raises(monkeypatch):
    # force an artificial disagreement on a duplicate-free exact instance:
    # the guard must refuse to return an inconsistent report
    import conconic.cevians as cevians

    tri, feet, _ = concurrency_solved_instance(__import__("random").Random(5))
    cfg = build_config(tri, feet)

    real = cevians._six_point_verdict

    def lying(points, distinct, eps):
        verdict = real(points, distinct, eps)
        return type(verdict)(residual=verdict.residual, holds=not verdict.holds,
                             witness_conic=None, degenerate=verdict.degenerate)

    monkeypatch.setattr(cevians, "_six_point_verdict", lying)
    with pytest.raises(TheoremConsistencyError):
        cevians.check_conditions(cfg)


def _pairwise_dedupe(items, eps=1e-9):
    kept = []
    for item in items:
        if not any(projective.coincident(item, seen, eps) for seen in kept):
            kept.append(item)
    return kept


def test_exact_dedupe_keeps_first_occurrences_like_the_pairwise_scan():
    # scaled copies are equal after canonicalization; the kept items are
    # the first occurrences themselves, in input order
    rnd = random.Random(23)
    pool = [(1, 2, 1), (2, 4, 2), (-3, 0, 1), (0, 0, 1), (5, -1, 7), (-10, 2, -14), (1, 1, 0)]
    for _ in range(200):
        items = [HPoint(*rnd.choice(pool)) for _ in range(rnd.randint(1, 9))]
        got = conics._dedupe(items, 1e-9)
        want = _pairwise_dedupe(items)
        assert len(got) == len(want) and all(g is w for g, w in zip(got, want))


def test_dedupe_of_mixed_exact_and_float_items_takes_the_tolerance_route():
    # the float copy is within tolerance of the exact point but not equal
    near = HPoint(1.0, 2.0 + 1e-12, 1.0)
    items = [HPoint(1, 2, 1), HPoint(3, 1, 1), near, HPoint(3.0, 1.0, 1.0)]
    assert near.coords != HPoint(1, 2, 1).coords
    got = conics._dedupe(items, 1e-9)
    assert got == _pairwise_dedupe(items) == items[:2]


@pytest.mark.parametrize("exact", [True, False])
def test_three_distinct_points_among_six_get_the_line_pair_through_the_first(exact):
    # P, Q, R not collinear, each twice: the witness is PQ with PR
    p, q, r = HPoint(0, 0, 1), HPoint(4, 0, 1), HPoint(1, 3, 1)
    if not exact:
        p, q, r = (float_copy(x) for x in (p, q, r))
    points = (p, q, r, q, p, r)
    distinct = conics._dedupe(points, 1e-9)
    assert distinct == [p, q, r]
    verdict = conics._six_point_verdict(points, distinct, 1e-9)
    assert verdict.holds and verdict.degenerate
    assert verdict.witness_conic == Conic.from_line_pair(projective.join(p, q), projective.join(p, r))
    assert verdict.witness_conic.classify() == "line_pair"


@pytest.mark.parametrize("params", [
    [0.5, 1e-6, 0.5, 0.5, 0.5, 0.5],      # B1 next to C
    [0.5, 0.5, 0.5, 0.5, 0.5, 1 - 1e-6],  # C2 next to B
])
def test_a_foot_next_to_a_vertex_escapes_the_chart_at_a_coarse_tolerance(params):
    # the chart sends B and C to infinity; one foot within 1e-6 of one of
    # them is finite at the default tolerance and at infinity at 1e-3
    tri = Triangle(HPoint(0.0, 0.0, 1.0), HPoint(4.0, 0.0, 1.0), HPoint(0.0, 3.0, 1.0))
    cfg = build_config(tri, feet_from_params(tri, params))
    assert not to_chart(cfg).degenerate
    with pytest.raises(ChartDegenerate, match="a normalized foot escaped to infinity in the chart"):
        to_chart(cfg, 1e-3)


def test_solve_sixth_foot_recovers_deleted_foot(rnd):
    tri, feet, params = concurrency_solved_instance(rnd)
    five = (feet.A1, feet.A2, feet.B1, feet.B2, feet.C1)
    solutions = solve_sixth_foot(tri, five, "AB")
    assert feet.C2 in solutions
    # the witness conic meets side AB at C1 and C2, so the determinant has
    # exactly those two roots: one repeats the fixed foot, the other
    # completes a genuinely six-point conic
    for foot in solutions:
        if foot in five:
            continue
        assert conconic(five + (foot,)).holds


def test_solve_sixth_foot_no_real_solution():
    # five points on a tiny circle force complex feet on a distant side
    tri = Triangle(HPoint(-10, -1, 1), HPoint(10, -1, 1), HPoint(0, 12, 1))
    circle5 = (
        HPoint(1, 0, 1),
        HPoint(0, 1, 1),
        HPoint(-1, 0, 1),
        HPoint(3, 4, 5),
        HPoint(-3, 4, 5),
    )
    with pytest.raises(NoRealSolution):
        solve_sixth_foot(tri, circle5, "BC")


def test_solve_sixth_foot_side_on_conic():
    # five feet chosen on two lines, three of them on side BC: the fitted
    # family is the line pair containing BC, so every sixth foot works
    tri = Triangle(HPoint(0, 0, 1), HPoint(4, 0, 1), HPoint(0, 3, 1))
    on_bc = [foot_point(tri, "BC", t) for t in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))]
    on_ca = [foot_point(tri, "CA", t) for t in (Fraction(1, 3), Fraction(2, 3))]
    with pytest.raises(SideOnConic):
        solve_sixth_foot(tri, tuple(on_bc + on_ca), "BC")


def test_solve_sixth_foot_maps_line_on_conic_to_side_on_conic(monkeypatch):
    # intersect_line raises LineOnConic when the form vanishes on the whole
    # line; the solver reports that as SideOnConic, not as a bare error
    import conconic.cevians as cevians

    def contains_line(conic, line, eps):
        raise LineOnConic("form is zero on the line")

    monkeypatch.setattr(cevians, "intersect_line", contains_line)
    tri = Triangle(HPoint(0, 0, 1), HPoint(4, 0, 1), HPoint(0, 3, 1))
    five = (foot_point(tri, "CA", Fraction(1, 3)), foot_point(tri, "AB", Fraction(1, 2))) + (
        HPoint(1, 1, 1), HPoint(3, 2, 1), HPoint(-1, 2, 1))
    with pytest.raises(SideOnConic):
        solve_sixth_foot(tri, five, "BC")


SIDE_NAME_ERROR = "side must be one of ('BC', 'CA', 'AB')"


def test_an_unknown_side_name_is_named_as_such():
    five = tuple(foot_point(RIGHT_345, side, Fraction(1, 3)) for side in ("BC", "CA", "AB", "BC", "CA"))
    calls = (
        lambda: foot_point(RIGHT_345, "XY", Fraction(1, 2)),
        lambda: RIGHT_345.side_line("XY"),
        lambda: solve_sixth_foot(RIGHT_345, five, "XY"),
    )
    for call in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == SIDE_NAME_ERROR


def test_solve_sixth_foot_takes_repeated_feet_to_side_on_conic_by_one_rule(monkeypatch):
    # exact and float feet with a repeat stop at the solver's own gate,
    # before either backend's fit: the brackets or the elimination
    import conconic.conics as conics

    def refuse(*args, **kwargs):
        raise AssertionError("repeated feet reached the fit")

    monkeypatch.setattr(conics, "_bracket_parts", refuse)
    monkeypatch.setattr(conics, "nullspace", refuse)
    feet = [foot_point(RIGHT_345, side, Fraction(k, 5)) for side, k in (("BC", 1), ("CA", 2), ("AB", 3), ("BC", 4))]
    five = tuple(feet) + (feet[1],)
    for tri, pts in ((RIGHT_345, five), (float_copy(RIGHT_345), tuple(map(float_copy, five)))):
        with pytest.raises(SideOnConic):
            solve_sixth_foot(tri, pts, "AB")
        for wrong in (pts[:4], pts + (pts[0],)):
            with pytest.raises(ValueError) as err:
                solve_sixth_foot(tri, wrong, "AB")
            assert str(err.value) == "exactly five fixed feet are required"


def _side_quadratic(tri, five, side):
    """Coefficients (a, b, c) of f(t) = a t^2 + b t + c, the nullspace-fitted
    conic through the five points at P + t (Q - P) on the side, or None
    when the points fix no conic."""
    try:
        conic = conic_through_points(five)
    except (DuplicatePoints, NonUniqueConic):
        return None
    (px, py), (qx, qy) = (v.to_xy() for v in tri.side_endpoints(side))
    fm, f0, fp = (conic.value2((px + t * (qx - px), py + t * (qy - py), 1)) for t in (-1, 0, 1))
    return (fp + fm) / 2 - f0, (fp - fm) / 2, f0


def _sixth_foot_outcome(tri, five, side):
    try:
        return solve_sixth_foot(tri, five, side)
    except (SideOnConic, NoRealSolution, IrrationalResult) as err:
        return type(err)


def test_sixth_foot_is_the_fitted_conic_meeting_the_side():
    seen = Counter()
    for seed in range(400):
        tri, five, side = sixth_foot_draw(random.Random(seed))
        outcome = _sixth_foot_outcome(tri, five, side)
        seen[outcome if isinstance(outcome, type) else tuple] += 1
        quad = _side_quadratic(tri, five, side)
        if len(set(five)) < 5 or quad is None or not any(quad):
            assert outcome is SideOnConic, seed
            continue
        a, b, c = quad
        if a == 0:
            roots = [] if b == 0 else [-c / b]
        elif b * b - 4 * a * c < 0:
            roots = []
        else:
            root = exact_sqrt(b * b - 4 * a * c)
            if root is None:
                assert outcome is IrrationalResult, seed
                # a fixed foot on the side would be a rational root
                assert not any(incident(p, tri.side_line(side)) for p in five), seed
                continue
            roots = sorted({(-b + root) / (2 * a), (-b - root) / (2 * a)})
        if not roots:
            assert outcome is NoRealSolution, seed
            continue
        expected = tuple(foot_point(tri, side, t) for t in roots if t not in (0, 1))
        assert outcome == expected, seed
        for foot in outcome:
            assert foot in five or conconic(five + (foot,)).holds, seed
    assert seen[SideOnConic] and seen[IrrationalResult] and seen[NoRealSolution] and seen[tuple]


def test_sixth_foot_of_float_copies_matches_the_exact_feet():
    matched = 0
    for seed in range(400):
        tri, five, side = sixth_foot_draw(random.Random(seed))
        exact = _sixth_foot_outcome(tri, five, side)
        ftri, ffive = float_copy(tri), tuple(map(float_copy, five))
        floated = _sixth_foot_outcome(ftri, ffive, side)
        if exact is IrrationalResult:
            # the float copy finds the two irrational roots of f(t)
            a, b, c = (float(v) for v in _side_quadratic(tri, five, side))
            root = math.sqrt(b * b - 4 * a * c)
            ts = sorted(((-b + root) / (2 * a), (-b - root) / (2 * a)))
            exact = tuple(foot_point(ftri, side, t) for t in ts)
        if isinstance(exact, type):
            assert floated is exact, seed
            continue
        assert isinstance(floated, tuple) and len(floated) == len(exact), seed
        for got, want in zip(floated, exact):
            assert projective_gap(got, want) < 1e-7, seed
        matched += len(exact)
    assert matched


def test_chart_frozen_oracle():
    tri = RIGHT_345
    first = median_feet(tri)
    cfg = build_config(tri, CevianFeet.from_triples(first, isogonal_feet(tri, first)))
    chart = to_chart(cfg)
    assert chart.b1 == Fraction(25, 16)
    assert chart.c2 == Fraction(9, 25)
    assert chart.p == chart.q == Fraction(9, 16)
    assert chart.criterion


def test_a_chart_with_an_auxiliary_point_at_infinity_meets_the_criterion_when_both_are():
    assert ProofChart(b1=1, c2=2, p=None, q=None).criterion
    assert not ProofChart(b1=1, c2=2, p=None, q=3).criterion


def test_chart_criterion_tracks_concurrency(rnd):
    # p = q on conconic instances, p != q on perturbed ones: exactly in
    # rational mode, and up to the relative tolerance on float copies
    for _ in range(10):
        tri, feet, _ = concurrency_solved_instance(rnd)
        for instance in ((tri, feet), (float_copy(tri), float_copy(feet))):
            chart = to_chart(build_config(*instance))
            assert chart.criterion
    for _ in range(10):
        tri, feet = perturbed_failing_instance(rnd)
        for instance in ((tri, feet), (float_copy(tri), float_copy(feet))):
            chart = to_chart(build_config(*instance))
            if chart.degenerate:
                continue
            assert not chart.criterion


def _chart_outcome(route, cfg):
    """The chart's four values with their types, or its error's type and message."""
    try:
        chart = route(cfg, 1e-9)
    except GeometryError as err:
        return type(err).__name__, str(err)
    return [(value, type(value)) for value in (chart.b1, chart.c2, chart.p, chart.q)]


def test_exact_chart_from_brackets_matches_the_map_route_on_the_five_families():
    # to_chart reads an exact configuration's chart from 3x3 brackets; the
    # float route, the chart map itself, is the reference on the same input
    for seed in range(200):
        rnd = random.Random(seed)
        for family in EXACT_FAMILIES:
            cfg = build_config(*exact_instance(rnd, family))
            assert cfg.exact
            want = _chart_outcome(cevians._map_chart, cfg)
            assert _chart_outcome(to_chart, cfg) == want, (seed, family)
            assert [type(value) for value, _ in want] == [Fraction] * 4


def test_exact_chart_from_brackets_matches_the_map_route_on_small_denominator_params():
    compared = 0
    for seed in range(300):
        rnd = random.Random(seed)
        tri = random_triangle(rnd)
        params = [Fraction(rnd.randint(-4, 7), rnd.randint(1, 3)) for _ in range(6)]
        try:
            cfg = build_config(tri, feet_from_params(tri, params))
        except GeometryError:
            continue
        assert _chart_outcome(to_chart, cfg) == _chart_outcome(cevians._map_chart, cfg), seed
        compared += 1
    assert compared > 100


def test_exact_chart_from_brackets_raises_the_map_route_error_on_a_collinear_frame():
    first = median_feet(RIGHT_345)
    cfg = build_config(RIGHT_345, CevianFeet.from_triples(first, isogonal_feet(RIGHT_345, first)))
    # C1 moved onto BC: B, C and C1 are collinear
    cfg = cfg.replace(feet=cfg.feet.replace(C1=HPoint(4, 3, 2)))
    message = "chart frame cannot be built: three of the four source points are collinear"
    for route in (to_chart, cevians._map_chart):
        with pytest.raises(ChartDegenerate) as exc:
            route(cfg, 1e-9)
        assert str(exc.value) == message


def test_exact_chart_from_brackets_matches_the_map_route_on_hand_built_configurations():
    # small integer points with no foot on its side: every way the chart can
    # fail or put p or q at infinity occurs, and both routes agree on each
    first = median_feet(RIGHT_345)
    base = build_config(RIGHT_345, CevianFeet.from_triples(first, isogonal_feet(RIGHT_345, first)))
    rnd = random.Random(5)
    seen = Counter()
    for _ in range(2000):
        coords = [tuple(rnd.randint(-2, 2) for _ in range(3)) for _ in range(9)]
        if not all(any(c) for c in coords):
            continue
        points = [HPoint(*c) for c in coords]
        try:
            tri = Triangle(*points[:3])
        except DegenerateTriangle:
            continue
        cfg = base.replace(triangle=tri, feet=CevianFeet(*points[3:]))
        want = _chart_outcome(cevians._map_chart, cfg)
        assert _chart_outcome(to_chart, cfg) == want, (tri, cfg.feet)
        if isinstance(want, tuple):
            seen[want[0] if want[0] != "ChartDegenerate" else want[1]] += 1
        else:
            seen["p or q at infinity" if None in (want[2][0], want[3][0]) else "finite"] += 1
    assert len(seen) == 6 and min(seen.values()) >= 5, seen


def test_float_cevians_that_coincide_within_tolerance_raise_coincident_cevians():
    # B lies 1e-3 off the line CA, and the feet B1 and C1 lie 1e-7 from C
    # and B: each foot passes the vertex test, but BB1 and CC1 are both the
    # side BC to within 1e-9, so they have no meet X1
    tri = Triangle(HPoint(0.0, 0.0, 1.0), HPoint(0.5, 1e-3, 1.0), HPoint(1.0, 0.0, 1.0))
    feet = feet_from_params(tri, [0.5, 1e-7, 1 - 1e-7, 0.5, 0.3, 0.6])
    validate_feet(tri, feet)
    with pytest.raises(CoincidentCevians) as err:
        build_config(tri, feet)
    assert str(err.value) == "cevians defining X1 coincide"


def test_the_integer_view_of_a_triangle_needs_every_vertex_exact_and_finite():
    assert RIGHT_345.integer_vertices == ((0, 0, 1), (4, 0, 1), (0, 3, 1))
    assert float_copy(RIGHT_345).integer_vertices is None
    tri = Triangle(HPoint(0, 0, 1), HPoint(4, 0, 1), HPoint(1, 1, 0))  # C at infinity
    assert tri.exact and tri.integer_vertices is None
    # off the integer view an exact foot takes the affine rule, which
    # canonicalizes to the same integer triple
    for t in (Fraction(1, 3), 2, Fraction(-5, 7)):
        foot = foot_point(tri, "AB", t)
        assert foot.exact and foot == HPoint(4 * t, 0, 1)
    # and the tolerance tests make the exact rules' decisions, in the same
    # order, with the same messages
    on_side = {"BC": HPoint(5, 1, 1), "CA": HPoint(2, 2, 1), "AB": HPoint(1, 0, 1)}
    second = tuple(on_side.values())
    seen = Counter()
    for first in itertools.product(*([p, HPoint(1, 2, 1), *tri.vertices] for p in on_side.values())):
        feet = CevianFeet.from_triples(first, second)
        checks = [(getattr(feet, n), FOOT_SIDES[n[0]], f"foot {n}", f"foot {n}")
                  for n in ("A1", "A2", "B1", "B2", "C1", "C2")]
        expected = per_foot_error(tri, checks)
        seen[expected and expected.split()[2]] += 1
        if expected is None:
            validate_feet(tri, feet)
        else:
            with pytest.raises(FootOffSide) as err:
                validate_feet(tri, feet)
            assert str(err.value) == expected
    assert set(seen) == {None, "does", "coincides"}
