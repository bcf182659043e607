import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

import conconic.linalg as linalg
import conconic.poncelet as poncelet
import conconic.projective as projective
from conconic import (
    Conic,
    HLine,
    HPoint,
    ProjectiveMap,
    build_config,
    check_conditions,
    find_point_on_conic,
    intersect_line,
    morley_config,
    poncelet_step,
    porism_check,
    projective_gap,
    sample_on_conic,
    tangent_lines_from,
    trace_chain,
)
from conconic.errors import (
    BaseNotOnConic,
    ChainStuck,
    DegenerateConic,
    GeometryError,
    LineOnConic,
    NoRealSolution,
    NoTangentLine,
)
from conconic.generate import concurrency_solved_instance, float_copy, float_triangle
from conftest import exact_family_instance

UNIT = Conic.from_coeffs((1, 0, 1, 0, 0, -1))
OUTER_R2 = Conic.from_coeffs((1.0, 0.0, 1.0, 0.0, 0.0, -4.0))
INNER_R1 = Conic.from_coeffs((1.0, 0.0, 1.0, 0.0, 0.0, -1.0))


def circle(radius: float) -> Conic:
    return Conic.from_coeffs((1.0, 0.0, 1.0, 0.0, 0.0, -radius * radius))


def affine(p: HPoint):
    x, y, z = (float(v) for v in p.coords)
    return (x / z, y / z)


def test_sample_on_conic_frozen_oracle():
    base = HPoint(-1, 0, 1)
    assert sample_on_conic(UNIT, base, 1) == HPoint(0, 1, 1)
    assert sample_on_conic(UNIT, base, Fraction(1, 2)) == HPoint(3, 4, 5)
    # t = 0 selects the second intersection of the first pencil line
    assert UNIT.contains(sample_on_conic(UNIT, base, 0))


def test_sample_on_conic_is_rational_and_injective():
    base = HPoint(-1, 0, 1)
    seen = set()
    for k in range(-12, 13):
        t = Fraction(k, 7)
        p = sample_on_conic(UNIT, base, t)
        assert p.exact
        assert UNIT.contains(p)
        seen.add(p)
    assert len(seen) == 25


def test_integer_pencil_parameters_give_exact_points():
    # integer operands keep ``div``: the pencil parameter is a Fraction,
    # not a float quotient, and the point stays an integer triple
    base = HPoint(-1, 0, 1)
    for t in range(-3, 4):
        p = sample_on_conic(UNIT, base, t)
        assert p.exact and UNIT.contains(p), t
    assert poncelet.second_intersection(UNIT, base, (1, 2, 1)).coords == (3, -4, 5)


def test_sample_on_conic_validation():
    with pytest.raises(BaseNotOnConic):
        sample_on_conic(UNIT, HPoint(2, 0, 1), 1)
    from conconic import HLine
    pair = Conic.from_line_pair(HLine(1, 0, 0), HLine(0, 1, 0))
    with pytest.raises(DegenerateConic):
        sample_on_conic(pair, HPoint(0, 1, 1), 1)


def test_first_step_orientation_frozen_oracle():
    # from (2, 0) around the unit circle the first link touches the upper
    # half plane: the chain runs counterclockwise to (-1, sqrt3)
    nxt, link = poncelet_step(OUTER_R2, INNER_R1, HPoint(2.0, 0.0, 1.0))
    x, y = affine(nxt)
    assert x == pytest.approx(-1.0, abs=1e-12)
    assert y == pytest.approx(math.sqrt(3.0), abs=1e-12)
    then, _ = poncelet_step(OUTER_R2, INNER_R1, nxt, link)
    x2, y2 = affine(then)
    assert x2 == pytest.approx(-1.0, abs=1e-12)
    assert y2 == pytest.approx(-math.sqrt(3.0), abs=1e-12)


PARABOLA_OUTER = Conic.from_coeffs((1.0, 0.0, 0.0, 0.0, -1.0, 0.0))  # y = x^2
PARABOLA_INNER = Conic.from_coeffs((1.0, 0.0, 0.0, 0.0, -1.0, 1.0))  # y = x^2 + 1


@pytest.mark.parametrize("x", [0.0, 1.5, -3.0])
def test_an_inner_parabola_starts_a_chain(x):
    # its centre is at infinity, so the first step turns counterclockwise
    # about the midpoint of the two touch points, which lies inside it
    assert PARABOLA_INNER.center().at_infinity
    start = HPoint(x, x * x, 1.0)
    touches = [affine(PARABOLA_INNER.pole(t)) for t in tangent_lines_from(PARABOLA_INNER, start)]
    inside = tuple((a + b) / 2.0 for a, b in zip(*touches))
    assert PARABOLA_INNER.value2((*inside, 1.0)) * PARABOLA_INNER.value2((0.0, 2.0, 1.0)) > 0
    chain = trace_chain(PARABOLA_OUTER, PARABOLA_INNER, start, max_steps=8)
    assert len(chain.links) == 8 and not chain.closed
    assert all(PARABOLA_OUTER.contains(p) for p in chain.points)
    assert all(PARABOLA_INNER.is_tangent(link) for link in chain.links)
    for p, q, link in zip(chain.points, chain.points[1:], chain.links):
        assert projective.incident(p, link) and projective.incident(q, link)
    touch = affine(PARABOLA_INNER.pole(chain.links[0]))
    assert linalg.det3([(x, x * x, 1.0), (*touch, 1.0), (*inside, 1.0)]) > 0
    # on these two parabolas every link advances x by 2
    assert affine(chain.points[1])[0] == pytest.approx(x + 2.0, abs=1e-9)


# (outer, inner parabola, start, next, link): an inner parabola's centre is
# at infinity, so a first step turns counterclockwise about the midpoint of
# its two touch points, summed in fractions on exact input
EXACT_PARABOLA_FIRST_STEPS = [
    # the tangents from (0, -1) to y = x^2 touch at (1, 1) and (-1, 1), so
    # the midpoint is (0, 1), and 2x - y = 1 leads to (4/5, 3/5)
    (Conic(1, 0, 1, 0, 0, -1), Conic(1, 0, 0, 0, -1, 0), HPoint(0, -1, 1), HPoint(4, 3, 5), HLine(2, -1, -1)),
    # from (6, 5) to y^2 = 4x: touches (4, 4) and (9, 6), midpoint (13/2, 5)
    (Conic(1, 0, 1, 0, 0, -61), Conic(0, 0, 1, -4, 0, 0), HPoint(6, 5, 1), HPoint(38, 9, -5), HLine(1, -2, 4)),
    # from (3, 2) to x^2 = 4y: touches (4, 4) and (2, 1), midpoint (3, 5/2)
    (Conic(1, 0, 1, 0, 0, -13), Conic(1, 0, 0, 0, -4, 0), HPoint(3, 2, 1), HPoint(1, -18, 5), HLine(2, -1, -4)),
]


@pytest.mark.parametrize("outer, inner, start, want_next, want_link", EXACT_PARABOLA_FIRST_STEPS)
def test_an_exact_inner_parabola_orients_the_first_step_about_the_touch_midpoint(
    outer, inner, start, want_next, want_link
):
    assert inner.center().at_infinity
    assert poncelet_step(outer, inner, start) == (want_next, want_link)
    # the float copy takes the same link, about the float midpoint
    as_float = [Conic(*map(float, c.coeffs)) for c in (outer, inner)]
    nxt, link = poncelet_step(*as_float, float_copy(start))
    assert projective_gap(nxt, want_next) < 1e-12
    assert projective_gap(HPoint(*link.coords), HPoint(*want_link.coords)) < 1e-12


def test_porism_check_runs_on_an_inner_parabola():
    report = porism_check(PARABOLA_OUTER, PARABOLA_INNER, expected_n=3, num_samples=4)
    assert report.steps == (None,) * 4 and not report.all_closed


def test_step_is_reversible():
    start = HPoint(2.0, 0.0, 1.0)
    nxt, link = poncelet_step(OUTER_R2, INNER_R1, start)
    # from the next vertex, arriving along the other tangent walks back
    tangents = tangent_lines_from(INNER_R1, nxt)
    other = max(
        tangents,
        key=lambda l: projective_gap(HPoint(*l.coords), HPoint(*link.coords)),
    )
    back, back_link = poncelet_step(OUTER_R2, INNER_R1, nxt, incoming=other)
    assert projective_gap(back, start) < 1e-12
    assert projective_gap(HPoint(*back_link.coords), HPoint(*link.coords)) < 1e-12


def test_step_errors():
    with pytest.raises(BaseNotOnConic):
        poncelet_step(OUTER_R2, INNER_R1, HPoint(1.0, 1.0, 1.0))
    with pytest.raises(NoTangentLine):
        poncelet_step(OUTER_R2, circle(3.0), HPoint(2.0, 0.0, 1.0))


def test_trace_chain_triangle_closure():
    result = trace_chain(OUTER_R2, INNER_R1, HPoint(2.0, 0.0, 1.0))
    assert result.closed
    assert result.closure_step == 3
    assert result.gap <= 1e-12
    assert len(result.points) == 4
    assert len(result.links) == 3


def test_a_chain_starts_at_a_point_at_infinity_of_an_outer_hyperbola():
    # (1 : 1 : 0) lies on x^2 - y^2 = z^2; the first step orients by its
    # homogeneous triple, as it has no affine coordinates
    outer = Conic.from_coeffs((1, 0, -1, 0, 0, -1))
    inner = Conic.from_coeffs((1.0, 0.0, 1.0, 0.0, 0.0, -0.25))
    start = HPoint(1, 1, 0)
    chain = trace_chain(outer, inner, start, max_steps=10)
    assert chain.points[0] is start and len(chain.links) == 10
    assert all(outer.contains(p) for p in chain.points)
    assert all(inner.is_tangent(link) for link in chain.links)
    for p, q, link in zip(chain.points, chain.points[1:], chain.links):
        assert projective.incident(p, link) and projective.incident(q, link)


def test_trace_chain_annotates_step_errors():
    with pytest.raises(BaseNotOnConic) as exc:
        trace_chain(OUTER_R2, INNER_R1, HPoint(1.9, 0.0, 1.0))
    assert "step 1" in str(exc.value)


def test_trace_chain_requires_three_steps():
    with pytest.raises(ValueError):
        trace_chain(OUTER_R2, INNER_R1, HPoint(2.0, 0.0, 1.0), max_steps=2)


def test_porism_family_frozen_oracle():
    # concentric circles R = 2, r = 2 cos(pi/n) admit closed n-chains
    for n in range(3, 9):
        inner = circle(2.0 * math.cos(math.pi / n))
        report = porism_check(OUTER_R2, inner, expected_n=n, num_samples=20, closure_tol=1e-9)
        assert report.all_closed, n
        assert report.max_gap < 1e-9
        assert report.steps == (n,) * 20


def test_perturbed_radius_never_closes():
    report_chain = trace_chain(OUTER_R2, circle(1.01), HPoint(2.0, 0.0, 1.0), max_steps=100)
    assert not report_chain.closed
    assert report_chain.gap > 1e-3


def test_porism_is_projectively_invariant():
    shear = ProjectiveMap(((1.0, 0.3, 0.7), (0.1, 1.2, -0.4), (0.0, 0.0, 1.0)))
    outer = OUTER_R2.transformed(shear)
    inner = INNER_R1.transformed(shear)
    report = porism_check(outer, inner, expected_n=3, num_samples=15)
    assert report.all_closed
    assert report.max_gap < 1e-9


def test_find_point_on_conic():
    p = find_point_on_conic(OUTER_R2)
    assert OUTER_R2.contains(p)
    imaginary = Conic.from_coeffs((1.0, 0.0, 1.0, 0.0, 0.0, 1.0))
    with pytest.raises(NoRealSolution):
        find_point_on_conic(imaginary)
    with pytest.raises(NoRealSolution):
        find_point_on_conic(Conic(1, 0, 1, 0, 0, 1))  # x^2 + y^2 + 1, after the axis fallback too


THIN_HYPERBOLA = Conic(-2.8525512791522947, 78.23121912846743, -396.14744872084776, 0, 0, -1)


def test_a_thin_hyperbola_between_the_search_rays_is_found_on_its_axis():
    # the real directions of this hyperbola form a cone around the angle
    # pi/32, which lies halfway between two of the 16 rays from the centre
    at_centre = THIN_HYPERBOLA.value2((0.0, 0.0, 1.0))
    for k in range(16):
        theta = math.pi * k / 16.0
        assert THIN_HYPERBOLA.value2((math.cos(theta), math.sin(theta), 0.0)) * at_centre > 0
    p = find_point_on_conic(THIN_HYPERBOLA)
    assert THIN_HYPERBOLA.contains(p)
    x, y = p.to_xy()
    assert math.atan2(y, x) == pytest.approx(math.pi / 32)


@pytest.mark.parametrize("coeffs", [
    (1, 0, 0, 0, -1, 0),            # y = x^2
    (1.0, 0.0, 0.0, 0.0, -1.0, 0.0),
    (0, 0, 1, -1, 0, 3),            # x = y^2 + 3, which misses the origin
    (1, 2, 1, 3, -1, 5),            # an oblique axis
])
def test_a_parabola_is_searched_along_its_axis(coeffs):
    conic = Conic(*coeffs)
    assert conic.classify() == "nondegenerate"
    assert conic.pole(HLine(0, 0, 1)).at_infinity
    p = find_point_on_conic(conic)
    assert not p.at_infinity and conic.contains(p)
    assert all(conic.contains(q) for q in poncelet.spread_on_conic(conic, 5))


def test_inner_witnesses_of_solved_float_copies_have_a_point():
    # float copies of solved seeds whose inner6 witness none of the 16 rays
    # from its centre meets
    for seed in (20, 21, 29, 35, 55, 88, 92):
        tri, feet, _ = concurrency_solved_instance(random.Random(seed))
        report = check_conditions(build_config(float_copy(tri), float_copy(feet)))
        inner = report.inner6.witness_conic
        assert not inner.is_degenerate()
        assert inner.contains(find_point_on_conic(inner)), seed


def test_porism_check_validates_arguments():
    with pytest.raises(ValueError):
        porism_check(OUTER_R2, INNER_R1, expected_n=2, num_samples=5)
    with pytest.raises(ValueError):
        porism_check(OUTER_R2, INNER_R1, expected_n=3, num_samples=0)


def chain_digest(chain) -> str:
    return hashlib.sha256(repr((chain.points, chain.links)).encode()).hexdigest()


def trisector_conics(seed: int):
    data = morley_config(float_triangle(random.Random(seed)))
    return data.inner_conic, data.cevian_conic


def test_trisector_chain_coordinates_are_pinned():
    # sha256 of the repr of every vertex and link: one changed bit of any
    # chain coordinate changes the digest
    inner, cevian = trisector_conics(7)
    chain = trace_chain(inner, cevian, find_point_on_conic(inner), max_steps=3)
    assert chain.closure_step == 3
    assert chain_digest(chain) == "14b967134069daa6bb34287bc9a4ab8421f1490b9d61df3ffd6c3edde664f6e8"


def test_perturbed_radius_chain_coordinates_are_pinned():
    chain = trace_chain(OUTER_R2, circle(1.01), HPoint(2.0, 0.0, 1.0), max_steps=100)
    assert len(chain.points) == 101
    assert chain_digest(chain) == "6e50d62c03a837a7c6eeabac866c57d952760abe37f4f4d7c76146417dd2ab18"


def dual_plane_tangents(conic, p):
    """Tangent lines through p as the dual conic met with the line of p's
    coordinates, each meet canonicalized as a point and then as a line."""
    try:
        meets = intersect_line(conic.dual(), HLine(*p.coords))
    except GeometryError as err:
        return type(err)
    return tuple(HLine(*q.coords) for q in meets)


def tangents_or_error(conic, p):
    try:
        return tangent_lines_from(conic, p)
    except GeometryError as err:
        return type(err)


def test_tangent_lines_from_is_the_dual_plane_meet():
    rnd = random.Random(3)
    inner, cevian = trisector_conics(7)
    float_cases = [(INNER_R1, HPoint(2.0, 0.0, 1.0)), (INNER_R1, HPoint(1.0, 0.0, 1.0))]
    for conic in (INNER_R1, circle(1.7), inner, cevian):
        float_cases += [(conic, HPoint(rnd.uniform(-4, 4), rnd.uniform(-4, 4), 1.0)) for _ in range(40)]
    exact_cases = [(UNIT, HPoint(5, 0, 4)), (UNIT, HPoint(5, 0, 3)), (UNIT, HPoint(1, 0, 1)),
                   (UNIT, HPoint(0, 0, 1)), (UNIT, HPoint(1, 1, 0))]
    exact_cases += [(UNIT, HPoint(Fraction(rnd.randint(-9, 9), rnd.randint(1, 5)),
                                  Fraction(rnd.randint(-9, 9), rnd.randint(1, 5)), 1)) for _ in range(40)]
    counts = set()
    for conic, p in float_cases + exact_cases:
        got = tangents_or_error(conic, p)
        want = dual_plane_tangents(conic, p)
        assert repr(got) == repr(want)
        counts.add(got if isinstance(got, type) else len(got))
    assert {0, 1, 2} <= counts


def max_separation_point(line_coords, base):
    """The float branch of ``_point_on_line_away_from`` written with the
    separations in a list and ``max`` over their indices."""
    candidates = [linalg.cross(line_coords, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    base_norm = linalg.row_norm(base.coords)

    def separation(c):
        n = linalg.row_norm(c) * base_norm
        return linalg.row_norm(linalg.cross(c, base.coords)) / n if n else 0.0

    separations = [separation(c) for c in candidates]
    return candidates[max(range(3), key=separations.__getitem__)]


def test_point_away_from_base_keeps_the_first_of_tied_separations():
    # on the line at infinity, from (1 : 1 : 0), the e1 and e2 candidates
    # are equally far: the first wins
    assert poncelet._point_on_line_away_from((0.0, 0.0, 1.0), HPoint(1.0, 1.0, 0.0), 1e-9) == (0.0, 1.0, 0.0)
    checked = 0
    for line in ((0.0, 0.0, 1.0), (1.0, 1.0, 1.0), (1.0, -1.0, 0.0), (2.0, 2.0, -2.0), (0.0, -1.0, 1.0)):
        candidates = [linalg.cross(line, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            for sign in (1.0, -1.0):
                coords = tuple(u + sign * v for u, v in zip(candidates[i], candidates[j]))
                if not any(coords):
                    continue
                base = HPoint(*coords)
                got = poncelet._point_on_line_away_from(line, base, 1e-9)
                assert repr(got) == repr(max_separation_point(line, base)), (line, coords)
                checked += 1
    assert checked >= 20


# second meets through base points and along lines with zero coordinates,
# by repr, signed zeros included
PINNED_SECOND_MEETS = [
    ((1.0, 0.0, 1.0), (0.0, 1.0, 0.0), "HPoint(1.0 : 0.0 : -1.0)"),
    ((1.0, 0.0, 1.0), (1.0, 0.0, -1.0), "HPoint(1.0 : 0.0 : 1.0)"),  # the tangent there
    ((0.0, -1.0, 1.0), (1.0, 0.0, -0.0), "HPoint(0.0 : 1.0 : 1.0)"),
    ((0.0, -1.0, 1.0), (-0.0, 1.0, 1.0), "HPoint(-0.0 : 1.0 : -1.0)"),
    ((-1.0, 0.0, 1.0), (1.0, -1.0, 1.0), "HPoint(-0.0 : 1.0 : 1.0)"),
    ((0.0, 1.0, 1.0), (0.0, 1.0, -1.0), "HPoint(0.0 : 1.0 : 1.0)"),
]


def test_second_meets_through_zero_coordinates_keep_their_pinned_reprs():
    for base, line, want in PINNED_SECOND_MEETS:
        assert repr(poncelet.second_intersection(INNER_R1, HPoint(*base), line)) == want, (base, line)


def test_a_pencil_parameter_past_float_range_falls_back_to_the_spanning_point():
    # on x = 1 the conic xy + 1e-320 y^2 = z^2 meets (1, 1) and a point near
    # (0 : 1 : 0); the quadratic coefficient a = 2e-320 makes the pencil
    # parameter -2 / a overflow, so the combination is not finite and the
    # spanning point off the base is returned
    conic = Conic(0.0, 1.0, 1e-320, 0.0, 0.0, -1.0)
    got = poncelet.second_intersection(conic, HPoint(1.0, 1.0, 1.0), (-1.0, 0.0, 1.0))
    assert repr(got) == "HPoint(0.0 : 1.0 : -0.0)"


def test_a_step_takes_the_first_tangent_when_both_are_equally_far_from_the_arrival(monkeypatch):
    # from (0, 5) on x^2 + y^2 = 25 the tangents to x^2 + y^2 = 9 are the
    # mirror images 4x + 3y = 15 and -4x + 3y = 15, and the horizontal link
    # y = 5 is its own mirror image, so both sphere gaps tie bit for bit
    outer, inner = Conic(1, 0, 1, 0, 0, -25), Conic(1, 0, 1, 0, 0, -9)
    current, incoming = HPoint(0, 5, 1), HLine(0, 1, -5)
    tangents = tangent_lines_from(inner, current)
    arrived = projective.unit_coords(incoming)
    gaps = [projective.sphere_gap(projective.unit_coords(t), arrived) for t in tangents]
    assert len(tangents) == 2 and gaps[0] == gaps[1]
    assert poncelet_step(outer, inner, current, incoming)[1] == tangents[0]
    monkeypatch.setattr(poncelet, "tangent_lines_from", lambda conic, p, eps: tangents[::-1])
    assert poncelet_step(outer, inner, current, incoming)[1] == tangents[1]


def test_point_away_from_an_exact_base_is_the_first_candidate_off_it():
    def first_off_base(line, base):
        for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            c = linalg.cross(line, e)
            if any(c) and any(linalg.cross(c, base.coords)):
                return c

    checked = 0
    for line in itertools.product((-1, 0, 2), repeat=3):
        if not any(line):
            continue
        candidates = [linalg.cross(line, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        for c in candidates:
            if any(c):
                base = HPoint(*c)
                assert poncelet._point_on_line_away_from(line, base, 1e-9) == first_off_base(line, base), line
                checked += 1
    assert checked >= 50


SPREAD_CONICS = [
    OUTER_R2,
    circle(1.7),
    OUTER_R2.transformed(ProjectiveMap(((1.0, 0.3, 0.7), (0.1, 1.2, -0.4), (0.0, 0.0, 1.0)))),
    *trisector_conics(7),
    *trisector_conics(11),
]


@pytest.mark.parametrize("conic", SPREAD_CONICS)
def test_spread_points_are_the_samples_at_tan_half_angles(conic):
    n = 13
    base = find_point_on_conic(conic)
    spread = list(poncelet.spread_on_conic(conic, n))
    assert len(spread) == n
    for k, p in enumerate(spread):
        theta = -math.pi + 2.0 * math.pi * (k + 0.5) / n
        assert repr(p.coords) == repr(sample_on_conic(conic, base, math.tan(theta / 2.0)).coords)


def test_spread_checks_its_base_and_builds_its_pencil_once(monkeypatch):
    calls = {"pencil": 0, "contains": 0}
    pencil_lines, contains = poncelet._pencil_lines, Conic.contains

    def counting_pencil_lines(base):
        calls["pencil"] += 1
        return pencil_lines(base)

    def counting_contains(self, p, eps=1e-9):
        calls["contains"] += 1
        return contains(self, p, eps)

    monkeypatch.setattr(poncelet, "_pencil_lines", counting_pencil_lines)
    monkeypatch.setattr(Conic, "contains", counting_contains)
    assert len(list(poncelet.spread_on_conic(OUTER_R2, 25))) == 25
    assert calls == {"pencil": 1, "contains": 1}


def test_point_search_and_spread_on_an_exact_conic_past_float_range():
    # coefficients of about 1,100 bits, which no float holds, in ratios near
    # 1: scaled by one power of two, the same conic is well conditioned
    n = 2**1100 + 1
    conic = Conic(n, 0, n + 2, 0, 0, -(n + 4))
    points = [find_point_on_conic(conic), *poncelet.spread_on_conic(conic, 8)]
    for p in points:
        x, y, z = map(Fraction, p.coords)
        residual = n * x * x + (n + 2) * y * y - (n + 4) * z * z
        assert abs(residual) <= Fraction(1, 10**12) * n * (x * x + y * y + z * z)


def test_spread_on_a_degenerate_conic_raises():
    pair = Conic.from_line_pair(HLine(1.0, 0.0, 0.0), HLine(0.0, 1.0, 0.0))
    with pytest.raises(DegenerateConic):
        next(poncelet.spread_on_conic(pair, 5))


def test_degenerate_conics_are_named_before_the_first_step():
    pair = Conic.from_line_pair(HLine(1.0, 0.0, 0.0), HLine(0.0, 1.0, 0.0))
    with pytest.raises(DegenerateConic, match="^inner conic is degenerate$"):
        trace_chain(OUTER_R2, pair, HPoint(2.0, 0.0, 1.0))
    with pytest.raises(DegenerateConic, match="^inner conic is degenerate$"):
        porism_check(OUTER_R2, pair, expected_n=3, num_samples=5)
    with pytest.raises(DegenerateConic, match="^outer conic is degenerate$"):
        porism_check(pair, INNER_R1, expected_n=3, num_samples=5)


def test_an_inner_hyperbola_asymptote_does_not_stick_the_first_step():
    # from (sqrt2, sqrt2) on x^2 + y^2 = 4 one tangent to x^2 - y^2 = 1 is
    # the asymptote y = x, which touches at infinity, and the other touches
    # at a finite point that turns clockwise about the centre, which lies
    # outside a hyperbola: the first step takes the asymptote
    r = math.sqrt(2.0)
    outer, inner = circle(2.0), Conic(1.0, 0.0, -1.0, 0.0, 0.0, -1.0)
    start = HPoint(r, r, 1.0)
    touches = [inner.pole(t) for t in tangent_lines_from(inner, start)]
    assert sorted(t.at_infinity for t in touches) == [False, True]
    nxt, link = poncelet_step(outer, inner, start)
    assert repr(link) == "HLine(1.0 : -1.0 : 0.0)"
    assert affine(nxt) == pytest.approx((-r, -r), abs=1e-12)
    chain = trace_chain(outer, inner, start, max_steps=20)
    assert len(chain.links) == 20 and chain.links[0] == link
    assert all(inner.is_tangent(link) for link in chain.links)
    report = porism_check(outer, inner, expected_n=3, num_samples=4)
    assert len(report.steps) == 4 and not report.all_closed


def witness_pairs():
    """(family, seed, config, inner6 witness, tangent6 witness) of the exact
    solved, isogonal and isotomic instances of seeds 0-19 whose two
    witnesses are nondegenerate, and the number of instances skipped."""
    pairs, skipped = [], 0
    for family in ("solved", "isogonal", "isotomic"):
        for seed in range(20):
            cfg = build_config(*exact_family_instance(random.Random(seed), family))
            report = check_conditions(cfg)
            inner, tangent = report.inner6.witness_conic, report.tangent6.witness_conic
            if inner is None or tangent is None or inner.is_degenerate() or tangent.is_degenerate():
                skipped += 1
            else:
                pairs.append((family, seed, cfg, inner, tangent))
    return pairs, skipped


def test_exact_chains_on_the_witness_pairs_close_on_the_cevian_triangle():
    # the cevian triangle X1Y1Z1 has its vertices on the inner6 conic and
    # its sides along cevians, which touch the tangent6 conic: from X1 the
    # exact chain stays on integer triples and is back at X1 after 3 steps
    pairs, skipped = witness_pairs()
    assert (len(pairs), skipped) == (47, 13)
    for family, seed, cfg, inner, tangent in pairs:
        chain = trace_chain(inner, tangent, cfg.X1, max_steps=6)
        assert chain.closure_step == 3 and chain.gap == 0.0, (family, seed)
        assert chain.points[3] == chain.points[0]
        assert all(p.exact for p in chain.points) and all(link.exact for link in chain.links)


def assert_steps_replay_the_chain(outer, inner, chain):
    """``poncelet_step`` from each vertex along its incoming link gives the
    chain's next link and vertex, by repr (signed zeros included)."""
    incoming = None
    for k, link in enumerate(chain.links):
        nxt, got = poncelet_step(outer, inner, chain.points[k], incoming)
        assert (repr(nxt), repr(got)) == (repr(chain.points[k + 1]), repr(link)), k
        incoming = got


def _chain_pairs():
    _, _, cfg, inner6, tangent6 = witness_pairs()[0][0]
    trisector_outer, trisector_inner = trisector_conics(7)
    hyperbola = Conic(1, 0, -1, 0, 0, -1)
    return {
        "float trisectors": (trisector_outer, trisector_inner, find_point_on_conic(trisector_outer)),
        "exact witnesses": (inner6, tangent6, cfg.X1),
        "exact outer, float inner": (Conic(1, 0, 1, 0, 0, -4), INNER_R1, HPoint(2, 0, 1)),
        "float outer, exact inner": (OUTER_R2, Conic(4, 0, 4, 0, 0, -1), HPoint(2.0, 0.0, 1.0)),
        "inner parabola": (PARABOLA_OUTER, PARABOLA_INNER, HPoint(1.5, 2.25, 1.0)),
        "start at infinity": (hyperbola, circle(0.5), HPoint(1, 1, 0)),
        "inner hyperbola asymptote": (circle(2.0), hyperbola, HPoint(math.sqrt(2.0), math.sqrt(2.0), 1.0)),
    }


@pytest.mark.parametrize("name", list(_chain_pairs()))
def test_a_step_and_a_chain_agree_link_by_link(name):
    outer, inner, start = _chain_pairs()[name]
    chain = trace_chain(outer, inner, start, max_steps=12)
    assert len(chain.links) >= 3
    assert_steps_replay_the_chain(outer, inner, chain)


LINE_ON_CONIC_INNER = Conic(850.5, -1699.0, 850.5, 0.0, 0.0, -1700.0)  # x'^2 + 1700 y'^2 = 1700, rotated 45 deg

# (outer, inner, start, eps, error, message, step): each failure of a chain
# step, raised by ``poncelet_step`` as it is and by ``trace_chain`` with the
# number of the step in front of its message
STEP_FAILURES = [
    (OUTER_R2, INNER_R1, HPoint(1.9, 0.0, 1.0), 1e-9, BaseNotOnConic,
     "chain vertex HPoint(1.0 : 0.0 : 0.5263157894736842) does not lie on the outer conic", 1),
    (OUTER_R2, circle(3.0), HPoint(2.0, 0.0, 1.0), 1e-9, NoTangentLine, "chain vertex lies inside the inner conic", 1),
    # every line through the start, the long axis's point at infinity, is
    # within eps of tangent to the thin inner ellipse
    (Conic(1.0, 0.0, -1.0, 0.0, 0.0, -1.0), LINE_ON_CONIC_INNER, HPoint(1.0, 1.0, 0.0), 1e-3, LineOnConic,
     "every point of the line lies on the conic", 1),
    # the first link touches the inner circle at (3, 4), on the outer one,
    # where the only tangent is the link the chain arrived on
    (Conic(1, 0, 1, 0, 0, -25), Conic(1, 0, 1, -6, 0, -7), HPoint(-3, -4, 1), 1e-9, ChainStuck,
     "both tangents coincide with the incoming link", 2),
    # the inner ellipse touches the outer circle at the start
    (Conic(1, 0, 1, 0, 0, -4), Conic(1, 0, 4, 0, 0, -4), HPoint(2, 0, 1), 1e-9, ChainStuck,
     "link is tangent to the outer conic; the chain cannot advance", 1),
    # from (1 : 0 : 0) one tangent to the parabola is the line at infinity
    (Conic(0, 1, 0, 0, 0, -1), PARABOLA_INNER, HPoint(1, 0, 0), 1e-9, ChainStuck,
     "inner conic has no finite center to orient the first step", 1),
]


@pytest.mark.parametrize("outer, inner, start, eps, error, message, step", STEP_FAILURES)
def test_a_step_failure_keeps_its_type_and_message_and_a_chain_names_its_step(
    outer, inner, start, eps, error, message, step
):
    with pytest.raises(error) as raised:
        trace_chain(outer, inner, start, eps=eps)
    assert type(raised.value) is error and str(raised.value) == f"step {step}: {message}"
    current, incoming = start, None
    for _ in range(step - 1):
        current, incoming = poncelet_step(outer, inner, current, incoming, eps)
    with pytest.raises(error) as raised:
        poncelet_step(outer, inner, current, incoming, eps)
    assert type(raised.value) is error and str(raised.value) == message


def test_a_first_step_with_no_tangent_turning_counterclockwise_is_stuck(monkeypatch):
    # the lower tangent from (2, 0) to the unit circle touches clockwise
    # about its centre; offered twice, and finite, it gives no first link
    start = HPoint(2.0, 0.0, 1.0)
    upper, lower = sorted(tangent_lines_from(INNER_R1, start), key=lambda t: affine(INNER_R1.pole(t))[1], reverse=True)
    assert poncelet_step(OUTER_R2, INNER_R1, start)[1] == upper
    monkeypatch.setattr(poncelet, "tangent_lines_from", lambda conic, p, eps: (lower, lower))
    with pytest.raises(ChainStuck, match="^no tangent advances the chain counterclockwise$"):
        poncelet_step(OUTER_R2, INNER_R1, start)
    with pytest.raises(ChainStuck, match="^step 1: no tangent advances the chain counterclockwise$"):
        trace_chain(OUTER_R2, INNER_R1, start)
