import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conconic import (
    HLine,
    HPoint,
    LINE_AT_INFINITY,
    ProjectiveMap,
    collinearity,
    concurrency,
    incident,
    join,
    map_from_correspondence,
    meet,
    projective_gap,
)
from conconic.errors import (
    CoincidentLines,
    CoincidentPoints,
    DegenerateQuadruple,
    DuplicateLine,
    DuplicatePoints,
    SingularMap,
)
from conconic.linalg import cross
from conconic.projective import coincident
from conconic.scalars import all_exact

from conftest import exact_points


def test_canonical_equality_up_to_scale():
    assert HPoint(2, 4, 6) == HPoint(1, 2, 3)
    assert HPoint(Fraction(1, 2), Fraction(1, 3), 1) == HPoint(3, 2, 6)
    assert HPoint(-1, -2, -3) == HPoint(1, 2, 3)
    assert HPoint(1.0, 2.0, 4.0) == HPoint(0.5, 1.0, 2.0)
    assert hash(HPoint(2, 4, 6)) == hash(HPoint(1, 2, 3))


def test_a_triple_verdict_refuses_its_first_item_repeated_third():
    p, q = HPoint(0, 0, 1), HPoint(1, 0, 1)
    with pytest.raises(DuplicatePoints, match="coincide"):
        collinearity(p, q, p)
    l, m = HLine(1, 0, 0), HLine(0, 1, 0)
    with pytest.raises(DuplicateLine, match="coincide"):
        concurrency(l, m, l)


def test_a_float_direction_lies_at_infinity():
    d = HPoint.direction(1.0, 2.0)
    assert d.at_infinity and d == HPoint(0.5, 1.0, 0.0)


def test_an_exact_and_a_nearly_equal_float_item_neither_join_nor_meet():
    with pytest.raises(CoincidentPoints):
        join(HPoint(1, 0, 0), HPoint(1.0, 1e-12, 0.0))
    with pytest.raises(CoincidentLines):
        meet(HLine(1, 0, 0), HLine(1.0, 1e-12, 0.0))


def test_float_incidence_is_relative_to_the_product_of_the_norms():
    # |p| |l| = sqrt(3) sqrt(2) ~ 2.45, so a dot product of 2e-9 is zero at
    # eps = 1e-9 and one of 3e-9 is not
    p = HPoint(1.0, 1.0, 1.0)
    assert incident(p, HLine(1.0, -1.0, 2e-9))
    assert not incident(p, HLine(1.0, -1.0, 3e-9))


def test_points_and_lines_are_distinct_types():
    assert HPoint(1, 2, 3) != HLine(1, 2, 3)


def test_zero_triple_rejected():
    with pytest.raises(ValueError):
        HPoint(0, 0, 0)


def test_affine_embedding_and_infinity():
    p = HPoint.from_xy(Fraction(3, 2), Fraction(-1, 2))
    assert p.to_xy() == (Fraction(3, 2), Fraction(-1, 2))
    d = HPoint.direction(1, 1)
    assert d.at_infinity
    assert incident(d, LINE_AT_INFINITY)
    with pytest.raises(ZeroDivisionError):
        d.to_xy()


def test_join_meet_oracle():
    # x-axis joins the origin and (1, 0); meets the y-axis at the origin
    origin = HPoint(0, 0, 1)
    x1 = HPoint(1, 0, 1)
    x_axis = join(origin, x1)
    assert x_axis == HLine(0, 1, 0)
    y_axis = HLine(1, 0, 0)
    assert meet(x_axis, y_axis) == origin


def test_join_duplicate_points_raises():
    with pytest.raises(CoincidentPoints):
        join(HPoint(1, 2, 3), HPoint(2, 4, 6))
    with pytest.raises(CoincidentLines):
        meet(HLine(1, 2, 3), HLine(-2, -4, -6))


@given(exact_points(), exact_points())
def test_join_is_incident_with_both(p, q):
    assume(p != q)
    l = join(p, q)
    assert incident(p, l)
    assert incident(q, l)


@given(exact_points(), exact_points(), exact_points())
def test_meet_of_joins_recovers_shared_point(p, q, r):
    assume(p != q and p != r and q != r)
    l1 = join(p, q)
    l2 = join(p, r)
    assume(l1 != l2)
    assert meet(l1, l2) == p


def test_concurrency_verdict_and_duplicates():
    l1, l2, l3 = HLine(1, 0, 0), HLine(0, 1, 0), HLine(1, 1, 0)
    verdict = concurrency(l1, l2, l3)
    assert verdict.holds and verdict.residual == 0
    miss = concurrency(l1, l2, HLine(1, 1, 1))
    assert not miss.holds and miss.residual != 0
    with pytest.raises(DuplicateLine):
        concurrency(l1, HLine(2, 0, 0), l3)


def test_collinearity_verdict_and_duplicates():
    a, b, c = HPoint(0, 0, 1), HPoint(1, 1, 1), HPoint(2, 2, 1)
    verdict = collinearity(a, b, c)
    assert verdict.holds and verdict.residual == 0
    off = collinearity(a, b, HPoint(2, 3, 1))
    assert not off.holds and off.residual != 0
    with pytest.raises(DuplicatePoints):
        collinearity(a, a, b)


def test_float_residuals_are_scale_invariant():
    lines = [HLine(1.0, 0.3, -0.2), HLine(0.1, 1.0, 0.4), HLine(0.5, 0.5, 1.0)]
    small = concurrency(*lines)
    big = concurrency(*(HLine(*(1e6 * v for v in l.coords)) for l in lines))
    assert small.residual == pytest.approx(big.residual, rel=1e-12)


def test_projective_gap_properties():
    p = HPoint(1.0, 2.0, 3.0)
    assert projective_gap(p, HPoint(-2.0, -4.0, -6.0)) == pytest.approx(0.0, abs=1e-15)
    q = HPoint(1.0, 2.0, 3.0001)
    assert 0 < projective_gap(p, q) < 1e-4


def test_projective_map_round_trip():
    m = ProjectiveMap(((1, 2, 0), (0, 1, 0), (1, 0, 1)))
    p = HPoint(3, -1, 2)
    assert m.inverse().apply(m.apply(p)) == p
    assert m.compose(m.inverse()).apply(p) == p


def test_projective_map_preserves_incidence():
    m = ProjectiveMap(((2, 1, 0), (0, 3, 1), (1, 0, 1)))
    p, q = HPoint(1, 2, 1), HPoint(-1, 0, 1)
    l = join(p, q)
    assert incident(m.apply(p), m.apply_line(l))
    assert incident(m.apply(q), m.apply_line(l))


def test_singular_map_rejected():
    with pytest.raises(SingularMap):
        ProjectiveMap(((1, 2, 3), (2, 4, 6), (0, 0, 1)))


def test_map_from_correspondence_hits_targets():
    src = (HPoint(0, 0, 1), HPoint(1, 0, 1), HPoint(0, 1, 1), HPoint(1, 1, 1))
    dst = (HPoint(1, 0, 0), HPoint(0, 1, 0), HPoint(0, 0, 1), HPoint(1, 1, 1))
    m = map_from_correspondence(src, dst)
    for s, d in zip(src, dst):
        assert m.apply(s) == d


def test_map_from_correspondence_degenerate_quadruple():
    src = (HPoint(0, 0, 1), HPoint(1, 0, 1), HPoint(2, 0, 1), HPoint(1, 1, 1))
    dst = (HPoint(1, 0, 0), HPoint(0, 1, 0), HPoint(0, 0, 1), HPoint(1, 1, 1))
    with pytest.raises(DegenerateQuadruple):
        map_from_correspondence(src, dst)


def test_coincident_tolerates_float_noise():
    p = HPoint(1.0, 2.0, 3.0)
    q = HPoint(1.0 + 1e-13, 2.0, 3.0)
    assert coincident(p, q)
    assert not coincident(p, HPoint(1.001, 2.0, 3.0))


@pytest.mark.parametrize("k, expected", [(2.0, True), (2.9, True), (3.1, False), (4.0, False)])
def test_coincidence_threshold_scales_with_the_product_of_the_norms(k, expected):
    # both triples have norm close to sqrt(3), so the scale of the zero test
    # on their cross product (max entry k * eps) is about 3, not 1 or 3/3
    eps = 1e-9
    u, v = HPoint(1.0, 1.0, 1.0), HPoint(1.0, 1.0 - k * eps, 1.0)
    assert max(map(abs, cross(u.coords, v.coords))) == pytest.approx(k * eps, rel=1e-6)
    assert coincident(u, v, eps) is expected
    assert coincident(HLine(*u.coords), HLine(*v.coords), eps) is expected


def test_an_exact_and_a_float_triple_coincide_relative_to_the_exact_norm():
    # the cross product of (1000, 1, 0) with (1, 0.0010000001, 0) has an
    # entry 1e-7, far above 4 * eps, but below eps times the product of the
    # norms, about 1000: the float-only early "no" does not apply to a pair
    # with an exact triple, in either order
    u, v = HPoint(1000, 1, 0), HPoint(1.0, 0.0010000001, 0.0)
    assert max(map(abs, cross(u.coords, v.coords))) > 4 * 1e-9
    assert coincident(u, v) and coincident(v, u)
    assert coincident(HLine(*u.coords), HLine(*v.coords)) and coincident(HLine(*v.coords), HLine(*u.coords))
    assert not coincident(u, HPoint(1.0, 0.00101, 0.0))


def test_exact_coincidence_matches_the_cross_product():
    # exact triples coincide exactly when their cross product vanishes;
    # copies scaled by +-k and by fractions, zero components, unequal pairs
    rnd = random.Random(14)
    scales = [k * s for k in (1, 2, 7, 10**12) for s in (1, -1)]
    scales += [Fraction(3, 7), Fraction(-5, 2), Fraction(1, 10**9)]
    seen = 0
    for _ in range(300):
        raw = [rnd.choice((0, rnd.randint(-9, 9), Fraction(rnd.randint(-9, 9), rnd.randint(1, 9))))
               for _ in range(3)]
        if not any(raw):
            continue
        k = rnd.choice(scales)
        scaled = [k * c for c in raw]
        other = [rnd.choice((c, c + 1, 0)) for c in raw]
        for cls in (HPoint, HLine):
            a = cls(*raw)
            for coords in (scaled, other):
                if not any(coords):
                    continue
                b = cls(*coords)
                assert coincident(a, b) == (max(map(abs, cross(raw, coords))) == 0)
                seen += coincident(a, b)
    assert 300 < seen < 1000  # both answers are exercised


def test_identical_float_triples_coincide():
    for coords in ((1.0, 2.0, 3.0), (0.1, -0.0, 2.0), (1e-300, 0.0, 0.0), (-3.5, 1e300, 7.0)):
        p = HPoint(*coords)
        assert coincident(p, HPoint(*p.coords)) and coincident(HLine(*coords), HLine(*coords))
    assert coincident(HPoint(1, 2, 3), HPoint(1.0, 2.0, 3.0))


@pytest.mark.parametrize("coords", [
    (1, 2, 3), (0, 0, -4), (Fraction(1, 2), 3, Fraction(-2, 3)), (Fraction(4, 2), 0, 0),
    (1.0, 2.0, 3.0), (-0.0, 0.5, 0), (1, 2.0, Fraction(1, 3)), (Fraction(1, 3), 1, 0.25),
    (True, 0, 1), (1, False, 2), (True, True, True),
])
def test_exact_flag_reads_the_first_canonical_entry(coords):
    for cls in (HPoint, HLine):
        item = cls(*coords)
        assert item.exact == all_exact(coords) == all_exact(item.coords)


@pytest.mark.parametrize("item", [HPoint(3, 4, 5), HPoint(0.1, -0.0, 2.0), HLine(1, -2, 3), HLine(0.1, 0.2, -0.3)])
def test_triples_copy_and_pickle_and_refuse_del(item):
    for twin in (copy.copy(item), copy.deepcopy(item), pickle.loads(pickle.dumps(item))):
        assert type(twin) is type(item) and twin == item
        assert [repr(c) for c in twin.coords] == [repr(c) for c in item.coords]
    with pytest.raises(AttributeError):
        del item.coords
    assert len(item.coords) == 3


def unit_sphere_gap(p, q):
    """projective_gap as lists and sums over the unit-norm representatives."""
    u = [float(c) for c in p.coords]
    v = [float(c) for c in q.coords]
    nu = math.sqrt(sum(c * c for c in u))
    nv = math.sqrt(sum(c * c for c in v))
    u = [c / nu for c in u]
    v = [c / nv for c in v]
    minus = math.sqrt(sum((a - b) ** 2 for a, b in zip(u, v)))
    plus = math.sqrt(sum((a + b) ** 2 for a, b in zip(u, v)))
    return min(minus, plus)


gap_coords = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e100, 1e100), st.integers(-9, 9))


@given(st.tuples(gap_coords, gap_coords, gap_coords), st.tuples(gap_coords, gap_coords, gap_coords))
def test_projective_gap_matches_the_summed_form(a, b):
    assume(any(a) and any(b))
    p, q = HPoint(*a), HPoint(*b)
    assert repr(projective_gap(p, q)) == repr(unit_sphere_gap(p, q))
    assert repr(projective_gap(p, p)) == "0.0"
