import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import conconic.cevians as cevians
import conconic.conics as conics
import conconic.linalg as linalg
import conconic.projective as projective
import conconic.scalars as scalars

from conconic import (
    Conic,
    HLine,
    HPoint,
    ProjectiveMap,
    brianchon_concurrent,
    build_config,
    check_conditions,
    conconic,
    conconic_by_fit,
    conic_through_points,
    cotangent,
    intersect_line,
    join,
    pascal_collinear,
    tangent_lines_from,
    veronese,
)
from conconic.errors import (
    DegenerateConic,
    DuplicateLine,
    DuplicatePoints,
    IrrationalResult,
    LineOnConic,
    NonUniqueConic,
    ZeroMatrix,
)
from conconic.generate import (
    concurrency_solved_instance,
    conconic_sextuple,
    cotangent_sextuple,
    random_line_sextuple,
    random_projective_map,
    random_sextuple,
    through_point_instance,
)
from conftest import small_fractions


UNIT_CIRCLE = Conic.from_coeffs((1, 0, 1, 0, 0, -1))

# frozen: rational circle points t -> ((1-t^2) : 2t : (1+t^2)) at
# t = 0, 1, 1/2, 1/3, 2, 3 land on the unit circle
CIRCLE_SEXTUPLE = (
    HPoint(1, 0, 1),
    HPoint(0, 1, 1),
    HPoint(3, 4, 5),
    HPoint(4, 3, 5),
    HPoint(-3, 4, 5),
    HPoint(-4, 3, 5),
)

# frozen: the same six with one point nudged off the circle
PERTURBED_SEXTUPLE = CIRCLE_SEXTUPLE[:5] + (HPoint(Fraction(-401, 100), 3, 5),)


def test_veronese_monomial_order():
    assert veronese((2, 3, 5)) == (4, 6, 9, 10, 15, 25)


def test_conic_coefficients_are_canonical():
    assert Conic.from_coeffs((2, 0, 2, 0, 0, -2)) == UNIT_CIRCLE
    assert Conic.from_coeffs((-1, 0, -1, 0, 0, 1)) == UNIT_CIRCLE
    with pytest.raises(ZeroMatrix):
        Conic.from_coeffs((0, 0, 0, 0, 0, 0))


def test_conic_from_matrix_symmetrizes():
    # an asymmetric matrix and its transpose define the same quadratic form
    m = ((1, 4, 0), (0, 1, 2), (0, 0, -1))
    assert Conic.from_matrix(m) == Conic.from_coeffs((1, 4, 1, 0, 2, -1))


def test_contains_and_value():
    assert UNIT_CIRCLE.contains(HPoint(3, 4, 5))
    assert not UNIT_CIRCLE.contains(HPoint(1, 1, 1))
    assert UNIT_CIRCLE.value2((3, 4, 5)) == 0


def test_conconic_frozen_oracles():
    verdict = conconic(CIRCLE_SEXTUPLE)
    assert verdict.holds and verdict.residual == 0
    assert verdict.witness_conic == UNIT_CIRCLE
    off = conconic(PERTURBED_SEXTUPLE)
    assert not off.holds
    assert off.residual != 0
    assert off.witness_conic is None


def test_conconic_rejects_duplicates():
    with pytest.raises(DuplicatePoints):
        conconic(CIRCLE_SEXTUPLE[:5] + (HPoint(2, 0, 2),))


def test_exact_duplicates_name_the_first_coincident_pair():
    # repeats at (1, 4) and (2, 3), written as scaled copies: the gate
    # names the pair the pairwise scan meets first
    c = CIRCLE_SEXTUPLE
    points = (c[0], c[1], c[2], HPoint(6, 8, 10), HPoint(0, 2, 2), c[5])
    with pytest.raises(DuplicatePoints, match=r"^inputs 1 and 4 coincide: HPoint\(0 : 1 : 1\)$"):
        conconic(points)
    with pytest.raises(DuplicateLine, match=r"^inputs 0 and 5 coincide: "):
        cotangent(tuple(HLine(*p.coords) for p in CIRCLE_SEXTUPLE[:5]) + (HLine(2, 0, 2),))
    assert conics._distinct(c, 6, "six", 1e-9) == list(c)


def test_the_gate_names_the_first_coincident_pair_when_coincidence_is_not_transitive():
    # a ~ b and b ~ c within the tolerance, but a and c are apart: the
    # pairwise scan in lexicographic order meets (0, 2) first
    a, b, c = HPoint(0.0, 0.0, 1.0), HPoint(6e-10, 0.0, 1.0), HPoint(1.2e-9, 0.0, 1.0)
    assert projective.coincident(a, b) and projective.coincident(b, c)
    assert not projective.coincident(a, c)
    far = [HPoint(5.0, 1.0, 1.0), HPoint(-3.0, 4.0, 1.0), HPoint(2.0, -6.0, 1.0)]
    with pytest.raises(DuplicatePoints, match=r"^inputs 0 and 2 coincide: HPoint\(0\.0 : 0\.0 : 1\.0\)$"):
        conconic([a, c, b] + far)


def test_mixed_exact_and_float_items_take_the_tolerance_gate():
    # a float copy within tolerance of an exact point is a duplicate,
    # though its coordinates differ from the exact ones
    near = HPoint(3 / 5, 4 / 5 + 1e-12, 1.0)
    with pytest.raises(DuplicatePoints, match="^inputs 2 and 5 coincide: "):
        conconic(CIRCLE_SEXTUPLE[:5] + (near,))


def test_intersect_line_secant_tangent_missing():
    secant = HLine(0, 1, 0)  # y = 0
    pts = intersect_line(UNIT_CIRCLE, secant)
    assert set(pts) == {HPoint(1, 0, 1), HPoint(-1, 0, 1)}
    tangent = HLine(1, 0, -1)  # x = 1 touches at (1, 0)
    assert intersect_line(UNIT_CIRCLE, tangent) == (HPoint(1, 0, 1),)
    missing = HLine(1, 0, -2)  # x = 2 misses (rationally and really)
    assert intersect_line(UNIT_CIRCLE, missing) == ()


def test_intersect_line_irrational_exact_mode():
    diagonal = HLine(1, -1, 0)  # y = x meets the circle at (±1/sqrt2, ±1/sqrt2)
    with pytest.raises(IrrationalResult):
        intersect_line(UNIT_CIRCLE, diagonal)
    # the float backend happily returns both points
    float_circle = Conic.from_coeffs((1.0, 0, 1.0, 0, 0, -1.0))
    pts = intersect_line(float_circle, HLine(1.0, -1.0, 0.0))
    assert len(pts) == 2


def test_intersect_line_on_degenerate_conic():
    pair = Conic.from_line_pair(HLine(0, 1, 0), HLine(1, 0, 0))
    with pytest.raises(LineOnConic):
        intersect_line(pair, HLine(0, 1, 0))


def test_float_line_on_fitted_conic_raises():
    # a float fit through three points of a segment and two free points is
    # the segment's line paired with another, so the segment's line lies on
    # it up to rounding; a line through one endpoint and a free point does not
    for seed in range(200):
        rnd = random.Random(seed)
        p, q = [(rnd.uniform(-5, 5), rnd.uniform(-5, 5)) for _ in range(2)]
        on_side = [
            HPoint.from_xy(p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
            for t in (rnd.uniform(0.05, 0.95) for _ in range(3))
        ]
        free = [HPoint.from_xy(rnd.uniform(-5, 5), rnd.uniform(-5, 5)) for _ in range(2)]
        conic = conic_through_points(on_side + free)
        with pytest.raises(LineOnConic):
            intersect_line(conic, join(HPoint.from_xy(*p), HPoint.from_xy(*q)))
        across = join(HPoint.from_xy(*p), HPoint.from_xy(rnd.uniform(-5, 5), rnd.uniform(-5, 5)))
        assert len(intersect_line(conic, across)) in (1, 2)


@pytest.mark.parametrize("k, on_conic", [(5.0, True), (6.8, True), (7.0, False), (8.0, False)])
def test_line_on_conic_threshold_scales_with_the_gram_and_both_span_norms(k, on_conic):
    # the line x + y + z = 0 lies on the pair (x + y + z)(x - y); a z^2 term
    # leaves the form k * eps * (lam - mu)^2 on it, against a scale of
    # gram_norm (2 sqrt 3) times the norms of its two spanning points (sqrt 2
    # each): about 6.93 * eps, not 3.46 * eps
    eps = 1e-9
    conic = Conic(1.0, 0.0, -1.0, 1.0, -1.0, k * eps / 2)
    line = HLine(1.0, 1.0, 1.0)
    assert conic.gram_norm == pytest.approx(2 * math.sqrt(3))
    if on_conic:
        with pytest.raises(LineOnConic):
            intersect_line(conic, line, eps)
    else:
        points = intersect_line(conic, line, eps)
        assert points and all(abs(linalg.dot(p.coords, line.coords)) < 1e-12 for p in points)


# a point at |p|^2 = 1 and two at |p|^2 = 3 (canonical float triples)
@pytest.mark.parametrize("coords, norm_sq", [((1.0, 0.0, 0.0), 1), ((1.0, 1.0, 1.0), 3), ((1.0, -1.0, 1.0), 3)])
@pytest.mark.parametrize("factor, zero", [(1 + 1e-6, True), (1 - 1e-6, False)])
def test_on_conic_and_tangency_thresholds_scale_with_the_form_norm_and_the_squared_norm(coords, norm_sq, factor, zero):
    # each form value sits just inside or just outside eps * norm * |p|^2;
    # at |p|^2 = 3 the inside case is outside eps * norm, so the bounded
    # "zero" shortcut alone cannot decide it
    conic = Conic(0.3, 0.2, -1.0, 0.5, 0.1, 0.7)
    p, l = HPoint(*coords), HLine(*coords)
    value = conic.value2(p.coords)
    eps = abs(value) / (conic.gram_norm * norm_sq) * factor
    assert conic.contains(p, eps) is zero
    adj = conic.adjugate
    value = linalg.dot(l.coords, linalg.matvec3(adj, l.coords))
    eps = abs(value) / (conics._frob(adj) * norm_sq) * factor
    assert conic.is_tangent(l, eps) is zero


UNIT_FLOAT = Conic(1.0, 0.0, 1.0, 0.0, 0.0, -1.0)
TILTED = Conic(1.0, 0.5, 2.0, -1.0, 0.0, -3.0)

# meets on lines and tangents from points with zero coordinates, by repr,
# signed zeros included
PINNED_MEETS = [
    (UNIT_FLOAT, (1.0, 0.0, -0.5), "(HPoint(0.5 : -0.8660254037844386 : 1.0), HPoint(0.5 : 0.8660254037844386 : 1.0))"),
    (UNIT_FLOAT, (0.0, 1.0, 0.25),
     "(HPoint(-0.9682458365518543 : -0.25 : 1.0), HPoint(0.9682458365518543 : -0.25 : 1.0))"),
    (UNIT_FLOAT, (-0.0, 1.0, 0.0), "(HPoint(1.0 : -0.0 : 1.0), HPoint(1.0 : 0.0 : -1.0))"),
    (UNIT_FLOAT, (0.0, -0.0, 1.0), "()"),
    (UNIT_FLOAT, (1.0, 0.0, 0.0), "(HPoint(0.0 : 1.0 : 1.0), HPoint(-0.0 : 1.0 : -1.0))"),
    (TILTED, (-0.0, 1.0, 0.0), "(HPoint(1.0 : 0.0 : -0.7675918792439982), HPoint(1.0 : 0.0 : 0.4342585459106649))"),
    (TILTED, (1.0, -1.0, 0.0), "(HPoint(1.0 : 1.0 : 0.9262397540503333), HPoint(-0.793919789186 : -0.793919789186 : 1.0))"),
    (TILTED, (1.0, 0.0, 0.0), "(HPoint(-0.0 : 1.0 : -0.816496580927726), HPoint(-0.0 : 1.0 : 0.816496580927726))"),
]
PINNED_TANGENTS = [
    (UNIT_FLOAT, (2.0, 0.0, 1.0), "(HLine(-0.5 : -0.8660254037844386 : 1.0), HLine(-0.5 : 0.8660254037844386 : 1.0))"),
    (UNIT_FLOAT, (1.0, 1.0, 0.0),
     "(HLine(-0.7071067811865476 : 0.7071067811865476 : 1.0), HLine(0.7071067811865476 : -0.7071067811865476 : 1.0))"),
    (UNIT_FLOAT, (-0.0, 2.0, 1.0), "(HLine(-0.8660254037844386 : -0.5 : 1.0), HLine(0.8660254037844386 : -0.5 : 1.0))"),
    (TILTED, (2.0, 0.0, 1.0), "()"),
    (TILTED, (0.0, -3.0, 1.0),
     "(HLine(0.7489305682230156 : 0.3333333333333333 : 1.0), HLine(-0.33226390155634905 : 0.3333333333333333 : 1.0))"),
    (TILTED, (-0.0, 2.0, 1.0), "(HLine(0.5723376052967548 : -0.5 : 1.0), HLine(-0.3640042719634215 : -0.5 : 1.0))"),
]


def test_meets_and_tangents_through_zero_coordinates_keep_their_pinned_reprs():
    for conic, coords, want in PINNED_MEETS:
        assert repr(intersect_line(conic, HLine(*coords))) == want, coords
    for conic, coords, want in PINNED_TANGENTS:
        assert repr(tangent_lines_from(conic, HPoint(*coords))) == want, coords


def test_tangent_lines_frozen_oracle():
    lines = tangent_lines_from(UNIT_CIRCLE, HPoint(5, 0, 3))
    assert set(lines) == {HLine(3, 4, -5), HLine(3, -4, -5)}
    # a point on the conic has exactly one tangent
    assert tangent_lines_from(UNIT_CIRCLE, HPoint(1, 0, 1)) == (HLine(1, 0, -1),)
    # an interior point has none
    assert tangent_lines_from(Conic.from_coeffs((1.0, 0, 1.0, 0, 0, -1.0)), HPoint(0.2, 0.1, 1.0)) == ()


def test_dual_conic_frozen_oracle():
    ellipse = Conic.from_coeffs((Fraction(1, 4), 0, 1, 0, 0, -1))
    assert ellipse.dual() == Conic.from_coeffs((4, 0, 1, 0, 0, -1))
    with pytest.raises(DegenerateConic):
        Conic.from_double_line(HLine(1, 1, 1)).dual()


def test_rank_and_classification():
    assert UNIT_CIRCLE.rank() == 3
    assert UNIT_CIRCLE.classify() == "nondegenerate"
    pair = Conic.from_line_pair(HLine(1, 0, 0), HLine(0, 1, 0))
    assert pair.rank() == 2 and pair.classify() == "line_pair"
    double = Conic.from_double_line(HLine(1, -2, 3))
    assert double.rank() == 1 and double.classify() == "double_line"


def test_float_rank_is_kept_per_epsilon():
    # gram = diag(2, 2, 1e-6): the last pivot counts at eps = 1e-9 only
    expected = {1e-9: 3, 1e-3: 2}
    for order in ((1e-9, 1e-3, 1e-9), (1e-3, 1e-9, 1e-3)):
        thin = Conic.from_coeffs((1.0, 0.0, 1.0, 0.0, 0.0, 5e-7))
        assert [thin.rank(eps) for eps in order] == [expected[eps] for eps in order]


def test_degenerate_dual_raises_on_every_call():
    double = Conic.from_double_line(HLine(1, 1, 1))
    for _ in range(2):
        with pytest.raises(DegenerateConic):
            double.dual()
    thin = Conic.from_coeffs((1.0, 0.0, 1.0, 0.0, 0.0, 5e-7))
    for _ in range(2):
        assert thin.dual(1e-9).rank(1e-9) == 3
        with pytest.raises(DegenerateConic):
            thin.dual(1e-3)


def test_dual_is_built_once():
    ellipse = Conic.from_coeffs((Fraction(1, 4), 0, 1, 0, 0, -1))
    assert ellipse.dual() is ellipse.dual()
    assert ellipse.dual().dual() == ellipse


@pytest.mark.parametrize("coeffs", [
    (Fraction(1, 4), 0, 1, 0, 0, -1),                 # an exact ellipse
    (1, 0, -1, 4, 2, 0),                              # an exact hyperbola
    (1, 0, 0, 0, -1, 1),                              # a parabola: centre at infinity
    (0.37, -0.2, 1.1, 0.45, -0.8, -2.3),              # a float ellipse
    (2.5, 1.0, -0.75, 0.125, 3.0, 1.0),               # a float hyperbola
])
def test_center_is_the_pole_of_the_line_at_infinity_built_once(coeffs):
    conic = Conic.from_coeffs(coeffs)
    center = conic.center()
    assert repr(center) == repr(conic.pole(projective.LINE_AT_INFINITY))
    assert conic.center() is center and conic.center(1e-3) is center
    assert center.at_infinity == (coeffs == (1, 0, 0, 0, -1, 1))


def test_center_checks_degeneracy_at_the_given_eps_on_every_call():
    # nondegenerate at 1e-15, a line pair at 1e-9: the cached centre stays
    # behind the rank check of each call
    thin = Conic.from_coeffs((1.0, 0.0, 1e-12, 0.0, 0.0, -1.0))
    for _ in range(2):
        assert not thin.center(1e-15).at_infinity
        with pytest.raises(DegenerateConic, match="^pole is only defined for a nondegenerate conic$"):
            thin.center(1e-9)
    with pytest.raises(DegenerateConic):
        Conic.from_coeffs((1, 0, -1, 0, 0, 0)).center()


def test_conic_rejects_assignment_to_any_attribute():
    conic = Conic.from_coeffs((1, 0, 1, 0, 0, -1))
    conic.dual()  # fill the cached forms first
    names = (
        "coeffs", "_exact", "_gram", "_adjugate", "_gram_norm", "_ranks", "_dual", "_center",
        "exact", "gram", "adjugate", "gram_norm", "rank", "extra",
    )
    for name in names:
        with pytest.raises(AttributeError):
            setattr(conic, name, None)
    assert conic.coeffs == (1, 0, 1, 0, 0, -1) and conic.rank() == 3


def test_adjugate_is_computed_once_per_conic(monkeypatch):
    calls = []
    original = conics.adjugate3
    monkeypatch.setattr(conics, "adjugate3", lambda m: calls.append(m) or original(m))
    ellipse = Conic.from_coeffs((0.25, 0.0, 1.0, 0.0, 0.0, -1.0))
    tangent = HLine(1.0, 0.0, -2.0)
    for _ in range(3):
        assert ellipse.rank() == ellipse.rank(1e-3) == 3
        ellipse.dual()
        ellipse.pole(tangent)
        assert ellipse.is_tangent(tangent)
    assert len(calls) == 1


def test_polar_pole_round_trip():
    p = HPoint(5, 0, 3)
    polar = UNIT_CIRCLE.polar(p)
    assert UNIT_CIRCLE.pole(polar) == p
    # the polar of an on-conic point is the tangent there
    assert UNIT_CIRCLE.polar(HPoint(3, 4, 5)) == HLine(3, 4, -5)
    assert UNIT_CIRCLE.is_tangent(HLine(3, 4, -5))
    assert UNIT_CIRCLE.pole(HLine(3, 4, -5)) == HPoint(3, 4, 5)


def test_conic_transform_covariance():
    m = ProjectiveMap(((1, 1, 0), (0, 2, 1), (1, 0, 1)))
    moved = UNIT_CIRCLE.transformed(m)
    for p in CIRCLE_SEXTUPLE:
        assert moved.contains(m.apply(p))


def test_conic_through_points_recovers_circle():
    fitted = conic_through_points(CIRCLE_SEXTUPLE[:5])
    assert fitted == UNIT_CIRCLE


def test_conic_through_points_collinear_cases():
    collinear3 = [HPoint(i, 0, 1) for i in range(3)]
    general2 = [HPoint(0, 1, 1), HPoint(1, 2, 1)]
    fitted = conic_through_points(collinear3 + general2)
    assert fitted.is_degenerate()
    with pytest.raises(NonUniqueConic):
        conic_through_points([HPoint(i, 0, 1) for i in range(4)] + [HPoint(0, 1, 1)])


def test_the_fit_route_holds_out_each_point_until_a_subset_fits(monkeypatch):
    # four collinear points at indices 1-4: leaving out index 0 fits a
    # pencil, so index 1 is held out next and tested on the line pair fitted
    # to the other five
    fit, fits = conics._fit, []

    def recording_fit(five, eps):
        try:
            fitted = fit(five, eps)
        except NonUniqueConic:
            fits.append(None)
            raise
        fits.append(fitted)
        return fitted

    pts = [HPoint(0, 1, 1)] + [HPoint(k, 0, 1) for k in range(4)] + [HPoint(1, 2, 1)]
    assert conconic(pts).holds
    monkeypatch.setattr(conics, "_fit", recording_fit)
    assert conconic_by_fit(pts) is True
    assert len(fits) == 2 and fits[0] is None and fits[1].is_degenerate()


def test_the_fit_route_names_a_pencil_when_no_five_points_fit():
    # five collinear points: every five-point subset keeps four of them
    pts = [HPoint(k, 0, 1) for k in range(5)] + [HPoint(1, 2, 1)]
    with pytest.raises(NonUniqueConic) as raised:
        conconic_by_fit(pts)
    assert str(raised.value) == "every five-point subset is degenerate; the six points lie on a pencil"
    assert type(raised.value.__cause__) is NonUniqueConic


_FIVE_POINT_COORDS = st.tuples(*[small_fractions] * 3).filter(any)
_FIVE_POINT_WEIGHTS = st.tuples(small_fractions, small_fractions).filter(any)


@st.composite
def five_points(draw):
    """Five distinct exact points whose first ``k`` lie on one line, for k
    drawn from 0 (general), 3 (a line-pair fit) and 4 (a pencil)."""
    k = draw(st.sampled_from((0, 3, 4)))
    p, q = (HPoint(*draw(_FIVE_POINT_COORDS)) for _ in range(2))
    assume(p != q)
    on_line = [
        HPoint(*(a * u + b * v for u, v in zip(p.coords, q.coords)))
        for a, b in (draw(_FIVE_POINT_WEIGHTS) for _ in range(k))
    ]
    pts = on_line + [HPoint(*draw(_FIVE_POINT_COORDS)) for _ in range(5 - k)]
    assume(len(set(pts)) == 5)
    return k, pts


@settings(max_examples=200, deadline=None)
@given(five_points())
def test_minor_fit_matches_nullspace_fit(case):
    k, pts = case
    fit = conics._fit_five(pts, 1e-9)
    if k == 4:
        assert fit is None
        with pytest.raises(NonUniqueConic):
            conic_through_points(pts)
        return
    try:
        expected = conic_through_points(pts)
    except NonUniqueConic:
        assert fit is None
    else:
        assert fit == expected
        if k == 3:
            assert fit.is_degenerate()


def test_minor_fit_stays_in_integer_determinants(monkeypatch):
    def no_nullspace(*args, **kwargs):
        raise AssertionError("exact fits must not solve a nullspace")

    monkeypatch.setattr(conics, "nullspace", no_nullspace)
    assert conics._fit_five(CIRCLE_SEXTUPLE[:5], 1e-9) == UNIT_CIRCLE
    line_pair = [HPoint(i, 0, 1) for i in range(3)] + [HPoint(0, 1, 1), HPoint(1, 2, 1)]
    assert conics._fit_five(line_pair, 1e-9).classify() == "line_pair"
    pencil = [HPoint(i, 0, 1) for i in range(4)] + [HPoint(0, 1, 1)]
    assert conics._fit_five(pencil, 1e-9) is None
    assert conconic(CIRCLE_SEXTUPLE).witness_conic == UNIT_CIRCLE


def _counting_determinants(monkeypatch):
    """Record every ``linalg.det`` call (its row count) and every integer
    elimination (its matrix shape), under each name the package binds."""
    det_calls, shapes = [], []
    original_det, original_bareiss = linalg.det, linalg.bareiss

    def counting_det(rows):
        det_calls.append(len(rows))
        return original_det(rows)

    def counting_bareiss(rows):
        shapes.append((len(rows), len(rows[0])))
        return original_bareiss(rows)

    for module in (linalg, conics, cevians, projective):
        for name, original, counting in (("det", original_det, counting_det),
                                         ("bareiss", original_bareiss, counting_bareiss)):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return det_calls, shapes


def test_exact_six_point_verdicts_take_brackets_and_no_elimination(monkeypatch):
    # the residual and the witness of an exact verdict come from 3x3
    # brackets: no integer elimination and no generic determinant
    det_calls, shapes = _counting_determinants(monkeypatch)
    verdict = conconic(CIRCLE_SEXTUPLE)
    assert verdict.holds and verdict.witness_conic == UNIT_CIRCLE
    assert shapes == [] and det_calls == []

    cfg = build_config(*concurrency_solved_instance(random.Random(1))[:2])
    report = check_conditions(cfg)
    six_point = (report.outer6, report.inner6, report.tangent6)
    assert all(v.holds and v.witness_conic is not None for v in six_point)
    assert shapes == [] and det_calls == []


def test_exact_conditions_take_no_generic_determinant(monkeypatch):
    # exact check_conditions on a solved instance and on one whose inner
    # points collapse onto two: no linalg.det call and no integer elimination
    det_calls, shapes = _counting_determinants(monkeypatch)
    rnd = random.Random(7)
    solved = concurrency_solved_instance(rnd)[:2]
    tri, feet, p1, p2 = through_point_instance(rnd)
    for instance in (solved, (tri, feet)):
        report = check_conditions(build_config(*instance))
        assert report.all_hold
        assert det_calls == [] and shapes == []
    assert len({p.coords for p in build_config(tri, feet).inner_points}) == 2
    assert report.inner6.residual == 0 and type(report.inner6.residual) is int


def test_the_veronese_determinant_is_eight_brackets():
    # det V = [124][135][236][456] - [123][145][246][356] as polynomials in
    # the 18 coordinates, [ijk] = det(pi, pj, pk), expanded over ZZ[x1..z6]
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    ring = sympy.ZZ[sympy.symbols(" ".join(f"x{i} y{i} z{i}" for i in range(1, 7)))]
    gens = ring.gens
    pts = [gens[3 * i:3 * i + 3] for i in range(6)]

    def bracket(i, j, k):
        return DomainMatrix([list(pts[i - 1]), list(pts[j - 1]), list(pts[k - 1])], (3, 3), ring).det()

    det_v = DomainMatrix([list(veronese(p)) for p in pts], (6, 6), ring).det()
    brackets = (bracket(1, 2, 4) * bracket(1, 3, 5) * bracket(2, 3, 6) * bracket(4, 5, 6)
                - bracket(1, 2, 3) * bracket(1, 4, 5) * bracket(2, 4, 6) * bracket(3, 5, 6))
    assert det_v != 0 and det_v == brackets


def _bareiss_verdict(pts):
    """The determinant and the conic of the integral kernel (or None) of one
    ``linalg.bareiss`` pass over the Veronese rows of ``pts``."""
    d, kernel = linalg.bareiss([veronese(p.coords) for p in pts])
    return d, None if kernel is None else Conic.from_coeffs(kernel)


def test_bracket_verdicts_match_bareiss_on_small_sextuples():
    # seeded sextuples with coordinates in -2..2, some points drawn on one
    # line, one pair sometimes repeated, shuffled: the exact verdict's
    # residual is Bareiss's determinant and its witness Bareiss's kernel
    # (both None below rank five), and the five-point bracket conic of the
    # first five is their kernel; every rank from 3 to 6 occurs, with six
    # distinct points and with one repeat, and so do witnesses that the
    # first five points do not determine
    rnd = random.Random(28)
    pool = [c for c in itertools.product(range(-2, 3), repeat=3) if any(c)]
    lines = [l for l in itertools.product(range(-1, 2), repeat=3) if any(l)]
    seen = set()
    for _ in range(800):
        line = rnd.choice(lines)
        on_line = [c for c in pool if sum(a * b for a, b in zip(c, line)) == 0]
        coords = rnd.sample(on_line, rnd.choice((0, 3, 4, 5, 6))) + rnd.sample(pool, 6)
        coords = coords[:6]
        if rnd.random() < 0.2:
            i, j = rnd.sample(range(6), 2)
            coords[i] = coords[j]
        rnd.shuffle(coords)
        pts = [HPoint(*c) for c in coords]
        distinct = conics._dedupe(pts, 1e-9)
        if len(distinct) < 5:
            continue
        verdict = conics._six_point_verdict(pts, distinct, 1e-9)
        d, kernel = _bareiss_verdict(pts)
        assert type(verdict.residual) is int and verdict.residual == d
        assert verdict.holds == (d == 0) and verdict.witness_conic == kernel
        first_five = _bareiss_verdict(pts[:5])[1]
        assert conics._fit_five(pts[:5], 1e-9) == first_five
        rank = 6 - len(linalg.nullspace([veronese(p.coords) for p in pts], 6))
        seen.add((rank, len(distinct)))
        seen.add(kernel is not None and first_five is None)
    assert seen >= {(rank, n) for rank in (3, 4, 5) for n in (5, 6)} | {(6, 6), True}


def test_the_fit_route_gates_its_points_once(monkeypatch):
    # a float conconic_by_fit and a holding float conconic compare each pair
    # of the six points once (15 tests); the fits they run behind that gate
    # compare none again
    calls = []
    original = conics.coincident

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(conics, "coincident", counting)
    pts = [HPoint(*map(float, p.coords)) for p in conconic_sextuple(random.Random(3))]
    assert conconic_by_fit(pts)
    assert len(calls) == 15
    calls.clear()
    verdict = conconic(pts)
    assert verdict.holds and verdict.witness_conic is not None
    assert len(calls) == 15


@pytest.mark.parametrize("coeffs", [(1, 0, 1, 0, 0, -1), (0.5, 0.0, 1.0, 0.1, -0.0, -3.0)])
def test_conic_copies_and_pickles_and_refuses_del(coeffs):
    conic = Conic.from_coeffs(coeffs)
    dual = conic.dual()  # fill the cached forms first
    for twin in (copy.copy(conic), copy.deepcopy(conic), pickle.loads(pickle.dumps(conic))):
        assert twin == conic
        assert [repr(c) for c in twin.coeffs] == [repr(c) for c in conic.coeffs]
        assert twin.dual() == dual and twin.rank() == 3
    for name in ("coeffs", "_dual", "gram"):
        with pytest.raises(AttributeError):
            delattr(conic, name)
    assert conic.coeffs == Conic.from_coeffs(coeffs).coeffs and conic.dual() is dual


def test_two_routes_agree_on_random_sextuples(rnd):
    for k in range(200):
        pts = conconic_sextuple(rnd) if k % 3 == 0 else random_sextuple(rnd)
        det_route = conconic(pts)
        fit_route = conconic_by_fit(pts)
        assert det_route.holds == fit_route
        if k % 3 == 0:
            assert det_route.holds and det_route.residual == 0


def test_witness_conic_contains_all_six(rnd):
    for _ in range(25):
        pts = conconic_sextuple(rnd)
        verdict = conconic(pts)
        assert verdict.witness_conic is not None
        for p in pts:
            assert verdict.witness_conic.contains(p)


def test_cotangent_frozen_oracle(rnd):
    lines = cotangent_sextuple(rnd)
    verdict = cotangent(lines)
    assert verdict.holds and verdict.residual == 0
    assert verdict.witness_conic is not None
    for l in lines:
        assert verdict.witness_conic.is_tangent(l)


def test_pascal_matches_determinant_route(rnd):
    for k in range(100):
        pts = conconic_sextuple(rnd) if k % 2 == 0 else random_sextuple(rnd)
        assert pascal_collinear(pts) == conconic(pts).holds


def test_brianchon_matches_determinant_route(rnd):
    for k in range(100):
        lines = cotangent_sextuple(rnd) if k % 2 == 0 else random_line_sextuple(rnd)
        assert brianchon_concurrent(lines) == cotangent(lines).holds


@pytest.mark.parametrize("seed", range(4))
def test_hexagon_oracles_reject_repeated_inputs(seed):
    # input 3 repeats input 0, exactly or as a float copy off by 1e-13
    # (relative) in one coordinate; the determinant routes reject both
    rnd = random.Random(seed)
    cases = (
        (random_sextuple(rnd), pascal_collinear, conconic, DuplicatePoints),
        (random_line_sextuple(rnd), brianchon_concurrent, cotangent, DuplicateLine),
    )
    for items, oracle, determinant_route, exc in cases:
        kind = type(items[0])
        floats = [kind(*map(float, item.coords)) for item in items]
        x, y, z = floats[0].coords
        near = kind(x * (1 + 1e-13), y, z)
        for repeated in (items[:3] + items[:1] + items[4:], floats[:3] + [near] + floats[4:]):
            with pytest.raises(exc):
                determinant_route(repeated)
            with pytest.raises(exc):
                oracle(repeated)


@pytest.mark.parametrize(
    "test, n, kind, message, exc",
    [
        (conconic, 6, HPoint, "the conconicity test needs exactly six points", DuplicatePoints),
        (cotangent, 6, HLine, "the cotangency test needs exactly six lines", DuplicateLine),
        (conic_through_points, 5, HPoint, "a conic fit needs exactly five points", DuplicatePoints),
        (conconic_by_fit, 6, HPoint, "the conconicity test needs exactly six points", DuplicatePoints),
        (pascal_collinear, 6, HPoint, "a hexagon needs exactly six vertices", DuplicatePoints),
        (brianchon_concurrent, 6, HLine, "a hexagon needs exactly six sides", DuplicateLine),
    ],
)
def test_six_item_tests_check_the_count_then_distinctness(test, n, kind, message, exc):
    # items (i, i^2, 1) are pairwise distinct, as points and as lines
    items = [kind(i, i * i, 1) for i in range(n + 1)]
    for count in (n - 1, n + 1):
        with pytest.raises(ValueError) as err:
            test(iter(items[:count]))
        assert type(err.value) is ValueError and str(err.value) == message
    for k in range(1, n):
        repeated = items[:k] + items[:1] + items[k + 1:n]
        with pytest.raises(exc, match=f"^inputs 0 and {k} coincide"):
            test(repeated)


def test_float_residual_is_scale_free():
    pts = [HPoint(float(x), float(y), float(z)) for x, y, z in
           [(1, 0, 1), (0, 1, 1), (3, 4, 5), (4, 3, 5), (-3, 4, 5), (-4.01, 3, 5)]]
    big = [HPoint(*(1e5 * v for v in p.coords)) for p in pts]
    r1 = conconic(pts).residual
    r2 = conconic(big).residual
    assert r1 == pytest.approx(r2, rel=1e-9)


def test_dual_of_dual_is_original(rnd):
    for _ in range(20):
        m = random_projective_map(rnd)
        moved = UNIT_CIRCLE.transformed(m)
        assert moved.dual().dual() == moved


def sorted_points_on_line(line):
    """Two spanning points of a line by the sort written out: the basis
    cross products in ``sorted(..., key=row_norm, reverse=True)`` order,
    the first of them with the first independent one after it."""
    candidates = [linalg.cross(line, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    ranked = sorted(candidates, key=lambda c: linalg.row_norm(c), reverse=True)
    first = ranked[0]
    for second in ranked[1:]:
        if any(v != 0 for v in linalg.cross(first, second)):
            return first, second


def reference_meet(conic, line, eps):
    """The meet with each part called: the spanning points of
    ``sorted_points_on_line``, the Gram forms through ``linalg.matvec3`` and
    ``linalg.dot``, and ``recursive_root_pairs`` on float forms against
    ``gram_norm`` times the ``row_norm`` of both points (exact forms take
    ``conics._quadratic_root_pairs``)."""
    u, v = sorted_points_on_line(line)
    g = conic.gram
    h = linalg.matvec3(g, v)
    a, b, c = linalg.dot(u, linalg.matvec3(g, u)), linalg.dot(u, h), linalg.dot(v, h)
    if type(a) is float:
        pairs = recursive_root_pairs(a, b, c, eps, lambda: conic.gram_norm * linalg.row_norm(u) * linalg.row_norm(v))
    else:
        pairs = conics._quadratic_root_pairs(a, b, c)
    return [(lam * u[0] + mu * v[0], lam * u[1] + mu * v[1], lam * u[2] + mu * v[2]) for lam, mu in pairs]


def meet_or_error(meet, conic, line, eps=1e-9):
    try:
        return repr(meet(conic, line, eps))
    except (LineOnConic, IrrationalResult) as err:
        return f"{type(err).__name__}: {err}"


# exact and float conics whose meets with the small lines below take every
# branch: two points, one, none, an irrational pair, a line on the conic
MEET_CONICS = [
    UNIT_CIRCLE,
    Conic(1.0, 0.0, 1.0, 0.0, 0.0, -1.0),
    Conic(1.0, 0.5, 2.0, -1.0, 0.0, -3.0),
    Conic(2, -3, 0, 1, 4, -5),
    Conic.from_line_pair(HLine(1, 1, 0), HLine(0, 1, -1)),
    Conic.from_line_pair(HLine(1.0, 1.0, 0.0), HLine(0.0, 1.0, -1.0)),
]


def test_points_on_line_keep_the_sorted_order_on_equal_norms():
    # (1, 1, 0) ties its e1 and e2 crosses at norm 1 behind the e3 one, and
    # (1, 1, 1) ties all three at norm sqrt 2; every small line, as ints,
    # floats and floats with -0.0, spans its pencil by the sorted crosses
    lines = [line for line in itertools.product((-2, -1, 0, 1, 2), repeat=3) if any(line)]
    for conic in MEET_CONICS:
        for line in lines:
            for coords in (line, tuple(map(float, line)), tuple(-0.0 if v == 0 else float(v) for v in line)):
                assert meet_or_error(conics._meet_coords, conic, coords) == \
                    meet_or_error(reference_meet, conic, coords), (conic, coords)


def recursive_root_pairs(a, b, c, eps, scale):
    """The float branch of ``_quadratic_root_pairs`` with the swap written
    as a second call on (c, b, a) and the pairs flipped back."""
    fa, fb, fc = float(a), float(b), float(c)
    magnitude = max(abs(fa), abs(fb), abs(fc))
    if conics.near_zero(magnitude, scale(), eps):
        raise LineOnConic("every point of the line lies on the conic")
    if abs(fa) < abs(fc):
        return [(mu, lam) for lam, mu in recursive_root_pairs(fc, fb, fa, eps, scale)]
    if conics.near_zero(fa, magnitude, eps):
        if conics.near_zero(fb, magnitude, eps):
            return [(1.0, 0.0)]
        return [(1.0, 0.0), (fc, -2.0 * fb)]
    disc = fb * fb - fa * fc
    if conics.near_zero(disc, max(fb * fb, abs(fa * fc)), eps):
        return [(-fb, fa)]
    if disc < 0:
        return []
    root = math.sqrt(disc)
    if fb == 0.0:
        return [(root, fa), (-root, fa)]
    q = -(fb + math.copysign(root, fb))
    return [(q, fa), (fc, q)]


@given(st.tuples(*[st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-12, 3.0]),
                             st.floats(-1e6, 1e6))] * 3))
@example((5e-324, 0.0, 0.0))  # halving the subnormal leaves no coefficient
def test_float_root_pairs_swap_like_a_second_call(abc):
    # the line z = 0 is spanned by u = (0, 1, 0) and v = (-1, 0, 0), so the
    # conic (C/2) x^2 - B xy + (A/2) y^2 + f z^2 has the forms (A, B, C) on
    # it; f = 1 puts a vanishing form below the conic's norm (LineOnConic)
    a, b, c = abc
    for A, B, C in ((a, b, c), (c, b, a)):
        for f in (0.0, 1.0):
            coeffs = (C / 2, -B, A / 2, 0.0, 0.0, f)
            if any(coeffs):
                conic = Conic(*coeffs)
                assert meet_or_error(conics._meet_coords, conic, (0, 0, 1)) == \
                    meet_or_error(reference_meet, conic, (0, 0, 1))


@pytest.mark.parametrize("conic, eps, at_eps, at_half_eps", [
    # |b| = 2^-30 on z = 0 against eps * gram_norm = 2^-31 * 2: the line
    # lies on the conic
    (Conic(0.0, 2.0 ** -30, 0.0, 0.0, 0.0, 1.0), 2.0 ** -31,
     "LineOnConic: every point of the line lies on the conic",
     "(HPoint(0.0 : 1.0 : 0.0), HPoint(1.0 : -0.0 : -0.0))"),
    # the leading form a = 2^-30 against eps * |b| = 2^-30: the conic
    # passes through the spanning point (0 : 1 : 0)
    (Conic(0.0, 1.0, 2.0 ** -31, 0.0, 0.0, 0.0), 2.0 ** -30,
     "(HPoint(0.0 : 1.0 : 0.0), HPoint(1.0 : -0.0 : -0.0))",
     "(HPoint(-4.656612873077393e-10 : 1.0 : 0.0), HPoint(1.0 : -0.0 : -0.0))"),
    # the discriminant 2^-30 against eps * b^2 = 2^-30: a double root
    (Conic((1 - 2.0 ** -30) / 2, -1.0, 0.5, 0.0, 0.0, 0.0), 2.0 ** -30,
     "(HPoint(1.0 : 1.0 : 0.0),)",
     "(HPoint(0.9999694833531692 : 1.0 : 0.0), HPoint(1.0 : 0.999969482421875 : -0.0))"),
])
def test_float_zero_tests_of_the_meet_hold_at_equality(conic, eps, at_eps, at_half_eps):
    # each value sits exactly on its threshold at eps and outside it at
    # eps / 2: the meet's zero tests are near_zero's, which hold at equality
    for e, want in ((eps, at_eps), (eps / 2, at_half_eps)):
        assert outcome(lambda: intersect_line(conic, HLine(0, 0, 1), e)) == want


# ----- the conic-line meet as three functions, for the differential below --


def three_function_points_on_line(line):
    l0, l1, l2 = line
    c0 = (l1 * 0 - l2 * 0, l2 * 1 - l0 * 0, l0 * 0 - l1 * 1)
    c1 = (l1 * 0 - l2 * 1, l2 * 0 - l0 * 0, l0 * 1 - l1 * 0)
    c2 = (l1 * 1 - l2 * 0, l2 * 0 - l0 * 1, l0 * 0 - l1 * 0)
    if type(l0) is float:
        x, y, z = l0, l1, l2
    else:
        x, y, z = map(float, scalars.float_scaled(line))
    q0, q1, q2 = x * x, y * y, z * z
    n0, n1, n2 = math.sqrt(q2 + q1), math.sqrt(q2 + q0), math.sqrt(q1 + q0)
    if n0 >= n1:
        ranked = (n0, c0, n1, c1, n2, c2) if n1 >= n2 else (
            (n0, c0, n2, c2, n1, c1) if n0 >= n2 else (n2, c2, n0, c0, n1, c1))
    else:
        ranked = (n1, c1, n0, c0, n2, c2) if n0 >= n2 else (
            (n1, c1, n2, c2, n0, c0) if n1 >= n2 else (n2, c2, n1, c1, n0, c0))
    n_first, first, n_second, second, n_third, third = ranked
    f0, f1, f2 = first
    for n, c in ((n_second, second), (n_third, third)):
        s0, s1, s2 = c
        if f1 * s2 - f2 * s1 != 0 or f2 * s0 - f0 * s2 != 0 or f0 * s1 - f1 * s0 != 0:
            return first, c, n_first, n
    raise ValueError("line coordinates are degenerate")


def three_function_root_pairs(a, b, c, eps, scale):
    if type(a) is not float and scalars.all_exact((a, b, c)):
        if a == 0 and b == 0 and c == 0:
            raise LineOnConic("every point of the line lies on the conic")
        if a == 0:
            if b == 0:
                return [(1, 0)]
            return [(1, 0), (Fraction(c), Fraction(-2 * b))]
        disc = b * b - a * c
        if disc < 0:
            return []
        root = scalars.exact_sqrt(disc)
        if root is None:
            raise IrrationalResult(
                "intersection exists but has irrational coordinates; "
                "use float inputs to get a numeric answer"
            )
        if root == 0:
            return [(Fraction(-b), Fraction(a))]
        return [(-b + root, Fraction(a)), (-b - root, Fraction(a))]
    fa, fb, fc = float(a), float(b), float(c)
    magnitude = max(abs(fa), abs(fb), abs(fc))
    if scalars.near_zero(magnitude, scale(), eps):
        raise LineOnConic("every point of the line lies on the conic")
    swap = abs(fa) < abs(fc)
    if swap:
        fa, fc = fc, fa
    if scalars.near_zero(fa, magnitude, eps):
        if scalars.near_zero(fb, magnitude, eps):
            pairs = [(1.0, 0.0)]
        else:
            pairs = [(1.0, 0.0), (fc, -2.0 * fb)]
    else:
        disc = fb * fb - fa * fc
        if scalars.near_zero(disc, max(fb * fb, abs(fa * fc)), eps):
            pairs = [(-fb, fa)]
        elif disc < 0:
            pairs = []
        else:
            root = math.sqrt(disc)
            if fb == 0.0:
                pairs = [(root, fa), (-root, fa)]
            else:
                q = -(fb + math.copysign(root, fb))
                pairs = [(q, fa), (fc, q)]
    if swap:
        return [(mu, lam) for lam, mu in pairs]
    return pairs


def three_function_meet(conic, line, eps):
    """The meet as ``_points_on_line``, Gram forms and ``_quadratic_root_pairs``
    in three frames, the route the one-frame ``_meet_coords`` replaced."""
    p0, p1, n0, n1 = three_function_points_on_line(line)
    g = conic.gram
    h = linalg.matvec3(g, p1)
    a, b, c = linalg.dot(p0, linalg.matvec3(g, p0)), linalg.dot(p0, h), linalg.dot(p1, h)
    pairs = three_function_root_pairs(a, b, c, eps, lambda: conic.gram_norm * n0 * n1)
    return [tuple(lam * s + mu * t for s, t in zip(p0, p1)) for lam, mu in pairs]


def outcome(fn):
    """``repr`` of the result, or the error's type and message."""
    try:
        return repr(fn())
    except Exception as err:  # the routes must fail alike, whatever the error
        return f"{type(err).__name__}: {err}"


def circle_point(t):
    """The rational point ((1 - t^2) : 2t : (1 + t^2)) of the unit circle."""
    return HPoint(1 - t * t, 2 * t, 1 + t * t)


def meet_differential_cases(rnd):
    """Conics and lines (or points) of one seed: exact, float and mixed,
    chords of the unit circle between rational points, small random lines,
    and exact chords and lines with entries of 350 digits."""
    def small(k):
        return [rnd.randint(-k, k) for _ in range(3)]

    def tiny_ints(k):
        while True:
            coords = small(k)
            if any(coords):
                return coords

    exact = Conic(*[rnd.randint(-4, 4) for _ in range(5)], rnd.randint(1, 4))
    ts = [Fraction(rnd.randint(-9, 9), rnd.randint(1, 9)) for _ in range(2)]
    big = [rnd.randrange(10 ** 349, 10 ** 350) for _ in range(2)]
    chord = join(circle_point(ts[0]), circle_point(ts[1])) if ts[0] != ts[1] else HLine(0, 1, 0)
    big_chord = join(circle_point(big[0]), circle_point(big[1]))
    lines = [chord, HLine(*tiny_ints(3)), HLine(*tiny_ints(3)), big_chord,
             HLine(rnd.randrange(10 ** 349, 10 ** 350), rnd.randint(-9, 9), 1)]
    pair = Conic.from_line_pair(lines[1], HLine(*tiny_ints(2)))
    conics_ = [UNIT_CIRCLE, exact, pair, Conic(*map(float, exact.coeffs)), Conic(*map(float, pair.coeffs)),
               Conic(*[rnd.uniform(-2, 2) for _ in range(6)])]
    lines += [HLine(*map(float, l.coords)) for l in lines[:3]]
    return conics_, lines


def test_meet_matches_the_three_function_route():
    # 60 seeds of conics and lines: the one-frame meet and HEAD's three
    # frames give the same points, tangents and errors, by repr and message
    seen = set()
    for seed in range(60):
        conics_, lines = meet_differential_cases(random.Random(seed))
        for conic in conics_:
            for line in lines:
                want = outcome(lambda: tuple(HPoint(*c) for c in three_function_meet(conic, line.coords, 1e-9)))
                assert outcome(lambda: intersect_line(conic, line)) == want, (seed, conic, line)
                seen.add(want.split(":")[0] if want[0] != "(" else f"{want.count('HPoint')} points")
            if conic.is_degenerate():
                continue
            for line in lines:
                p = projective._dual_point(line)
                want = outcome(lambda: tuple(HLine(*c) for c in three_function_meet(conic.dual(), p.coords, 1e-9)))
                assert outcome(lambda: tangent_lines_from(conic, p)) == want, (seed, conic, p)
    assert {"0 points", "1 points", "2 points", "LineOnConic", "IrrationalResult", "OverflowError"} <= seen
