"""The integer constructors of exact feet, triangles, interior points and
sextuple points against the ``Fraction`` formulas on affine coordinates
that they replace, and the guarantees the generators rest on instead of
re-checking their instances.

Every exact point is canonical, so an integer triple and the ``Fraction``
construction of the same point are equal tuples; float and mixed inputs
take the affine formulas themselves and must agree bit for bit (compared
by ``repr``, which tells -0.0 from 0.0)."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

import conconic.cevians as cevians
import conconic.generate as generate
from conconic import HPoint, Triangle, build_config
from conconic.errors import GeometryError, TheoremConsistencyError
from conconic.generate import (
    EXACT_FAMILIES,
    INTERIOR_MAX_DEN,
    MAP_SPAN,
    SEXTUPLE_SPAN,
    SIDES,
    TRIANGLE_SPAN,
    _circle_point,
    _random_point,
    concurrency_solved_instance,
    conjugate_instance,
    exact_instance,
    feet_from_params,
    float_copy,
    float_triangle,
    foot_point,
    isogonal_feet,
    isotomic_feet,
    perturbed_failing_instance,
    random_fraction,
    random_interior_point,
    random_line_sextuple,
    random_projective_map,
    random_sextuple,
    random_triangle,
    through_point_instance,
)
from conconic.linalg import cross
from conconic.projective import collinear
from conconic.scalars import div


# ----- the Fraction formulas on affine coordinates ----------------------------


def fraction_foot(tri, side, t):
    """P + t (Q - P) on the affine coordinates of the side's endpoints."""
    p, q = tri.side_endpoints(side)
    px, py = p.to_xy()
    qx, qy = q.to_xy()
    return HPoint(px + t * (qx - px), py + t * (qy - py), 1)


def fraction_conjugate(tri, triple, kind):
    """Swap the barycentric weights (y : z) of each foot to (wb z : wc y),
    cyclically, with squared side lengths (isogonal) or ones (isotomic)."""

    def affine(v):
        x, y = v.to_xy()
        return (x, y, 1 if v.exact else 1.0)

    def sq(u, v):
        return (u[0] - v[0]) ** 2 + (u[1] - v[1]) ** 2

    def weights(foot, p, q):  # foot = y p + z q
        n = cross(p, q)
        pivot = max(range(3), key=lambda i: abs(float(n[i])))
        return div(cross(foot.coords, q)[pivot], n[pivot]), div(cross(p, foot.coords)[pivot], n[pivot])

    def combine(w1, p, w2, q):
        return HPoint(*(w1 * a + w2 * b for a, b in zip(p, q)))

    av, bv, cv = map(affine, tri.vertices)
    wa, wb, wc = (sq(bv, cv), sq(cv, av), sq(av, bv)) if kind == "isogonal" else (1, 1, 1)
    fa, fb, fc = triple
    y, z = weights(fa, bv, cv)
    x, z2 = weights(fb, av, cv)
    x2, y2 = weights(fc, av, bv)
    return (combine(wb * z, bv, wc * y, cv), combine(wa * z2, av, wc * x, cv), combine(wa * y2, av, wb * x2, bv))


def fraction_triangle(rnd):
    span = TRIANGLE_SPAN
    while True:
        coords = [Fraction(rnd.randint(-2 * span, 2 * span), rnd.randint(1, 4)) for _ in range(6)]
        try:
            return Triangle(*(HPoint(coords[2 * i], coords[2 * i + 1], 1) for i in range(3)))
        except GeometryError:
            continue


def fraction_interior_point(rnd, tri):
    w = [Fraction(rnd.randint(1, INTERIOR_MAX_DEN), 1) for _ in range(3)]
    xys = [v.to_xy() for v in tri.vertices]
    return HPoint(*(sum(wi * xy[k] for wi, xy in zip(w, xys)) / sum(w) for k in range(2)), 1)


def fraction_circle_point(t):
    return HPoint(1 - t * t, 2 * t, 1 + t * t)


def fraction_random_point(rnd, span):
    return HPoint(*(Fraction(rnd.randint(-2 * span, 2 * span), rnd.randint(1, 3)) for _ in range(2)), 1)


def side_parameter(tri, side, foot):
    """The t with foot = P + t (Q - P) on the side (P, Q), or None when the
    foot is off the side line."""
    (px, py), (qx, qy) = (v.to_xy() for v in tri.side_endpoints(side))
    fx, fy = foot.to_xy()
    dx, dy = qx - px, qy - py
    t = ((fx - px) * dx + (fy - py) * dy) / (dx * dx + dy * dy)
    return t if (fx, fy) == (px + t * dx, py + t * dy) else None


CONJUGATES = {"isogonal": isogonal_feet, "isotomic": isotomic_feet}


def bits(points):
    return repr([p.coords for p in points])


def mapped_triangles(count):
    """Exact triangles pushed through integer maps: varied, often negative,
    canonical last coordinates; the ones with a vertex at infinity dropped."""
    out = []
    for seed in range(count):
        rnd = random.Random(seed)
        tri, pmap = random_triangle(rnd), random_projective_map(rnd)
        image = tuple(map(pmap.apply, tri.vertices))
        if all(v.z for v in image):
            out.append((Triangle(*image), rnd))
    return out


# ----- exact feet ------------------------------------------------------------


def test_exact_foot_point_matches_the_fraction_formula():
    ts = (0, 1, 2, -1, Fraction(0), Fraction(1), Fraction(-1, 3), Fraction(5, 2), Fraction(7, 7))
    zs = set()
    for tri, rnd in mapped_triangles(120):
        zs.update(v.z for v in tri.vertices)
        for side in SIDES:
            for t in ts + (random_fraction(rnd),):
                foot = foot_point(tri, side, t)
                assert foot == fraction_foot(tri, side, t)
                assert foot.exact
    assert min(zs) < 0 and max(zs) > 1


def test_exact_conjugate_feet_match_the_fraction_formula():
    checked = 0
    for tri, rnd in mapped_triangles(120):
        triple = tuple(foot_point(tri, side, random_fraction(rnd)) for side in SIDES)
        for kind, conjugate in CONJUGATES.items():
            try:
                image = conjugate(tri, triple)
            except GeometryError:
                continue
            assert image == fraction_conjugate(tri, triple, kind)
            assert all(p.exact for p in image)
            checked += 1
    assert checked >= 200


def test_generators_match_the_fraction_draws_and_leave_the_stream_in_step():
    for seed in range(500):
        new, old = random.Random(seed), random.Random(seed)
        tri = random_triangle(new)
        assert tri == fraction_triangle(old)
        assert random_interior_point(new, tri) == fraction_interior_point(old, tri)
        assert _random_point(new, SEXTUPLE_SPAN) == fraction_random_point(old, SEXTUPLE_SPAN)
        assert new.random() == old.random()
        t = Fraction(new.randint(-4 * MAP_SPAN, 4 * MAP_SPAN), new.randint(1, MAP_SPAN))
        assert _circle_point(t) == fraction_circle_point(t)
        assert _circle_point(t).exact
    for tri, rnd in mapped_triangles(120):
        state = rnd.getstate()
        point = random_interior_point(rnd, tri)
        rnd.setstate(state)
        assert point == fraction_interior_point(rnd, tri)


def test_exact_instance_draws_each_family_from_its_generator():
    draws = {"solved": lambda rnd: concurrency_solved_instance(rnd)[:2],
             "isogonal": lambda rnd: conjugate_instance(rnd, "isogonal"),
             "isotomic": lambda rnd: conjugate_instance(rnd, "isotomic"),
             "through": lambda rnd: through_point_instance(rnd)[:2],
             "perturbed": perturbed_failing_instance}
    assert tuple(draws) == EXACT_FAMILIES
    for seed in range(3):
        for family, draw in draws.items():
            assert exact_instance(random.Random(seed), family) == draw(random.Random(seed))


def test_sextuples_are_six_distinct_items_no_three_on_one_line_or_point():
    # ``collinear`` on three lines is their concurrency test
    for seed in range(300):
        rnd = random.Random(seed)
        for items in (random_sextuple(rnd), random_line_sextuple(rnd)):
            assert len(set(items)) == 6
            assert not any(collinear(triple) for triple in itertools.combinations(items, 3))


def test_a_vertex_at_infinity_raises_as_the_affine_formulas_do():
    # A is the direction of the x axis; the sides through it have no affine form
    tri = Triangle(HPoint(1, 0, 0), HPoint(0, 0, 1), HPoint(0, 1, 1))
    assert foot_point(tri, "BC", Fraction(1, 2)) == HPoint(0, 1, 2)
    for side in ("CA", "AB"):
        with pytest.raises(ZeroDivisionError, match="point at infinity has no affine coordinates"):
            foot_point(tri, side, Fraction(1, 2))
    triple = (HPoint(0, 1, 2), HPoint(3, 1, 1), HPoint(2, 0, 1))
    for conjugate in CONJUGATES.values():
        with pytest.raises(ValueError, match="^triangle vertex must be a finite point$"):
            conjugate(tri, triple)


def test_one_pass_feet_equal_foot_point_foot_by_foot():
    # values and types (compared by repr) of the six feet, against
    # foot_point in the order (a1, b1, c1, a2, b2, c2) of the parameters
    for seed in range(60):
        rnd = random.Random(seed)
        exact_tri, float_tri = random_triangle(rnd), float_triangle(rnd)
        exact = [random_fraction(rnd) for _ in range(6)]
        floats = [float(t) for t in exact]
        whole = [0, 1, 2, -1, Fraction(5, 2), Fraction(7, 7)]
        mixed = [exact[0], floats[1], 2, exact[3], rnd.choice([True, 0.5]), Fraction(-1, 3)]
        for tri in (exact_tri, float_tri, float_copy(exact_tri)):
            for params in (exact, floats, whole, mixed, tuple(exact)):
                feet = feet_from_params(tri, params)
                by_foot = [foot_point(tri, side, t) for side, t in zip(SIDES * 2, params)]
                assert bits(feet.outer) == bits([by_foot[i] for i in (0, 3, 1, 4, 2, 5)])


def test_one_pass_feet_with_a_vertex_at_infinity_raise_as_foot_point():
    # B and C are finite, so the first foot builds and the second raises
    tri = Triangle(HPoint(1, 0, 0), HPoint(0, 0, 1), HPoint(0, 1, 1))
    for triangle in (tri, float_copy(tri)):
        for params in ([Fraction(1, 2)] * 6, [0.5] * 6):
            with pytest.raises(ZeroDivisionError) as by_foot:
                [foot_point(triangle, side, t) for side, t in zip(SIDES * 2, params)]
            with pytest.raises(ZeroDivisionError) as one_pass:
                feet_from_params(triangle, params)
            assert str(one_pass.value) == str(by_foot.value) == "point at infinity has no affine coordinates"


def test_perturbed_instances_are_pinned():
    # the sha256 of the canonical triples of the triangle and the six feet
    # of seeds 0-199, recorded before the solved and perturbed families
    # shared one draw: the random stream and the instances are the same
    digest = hashlib.sha256()
    for seed in range(200):
        tri, feet = generate.perturbed_failing_instance(random.Random(seed))
        for p in tri.vertices + feet.outer:
            digest.update(repr(p.coords).encode() + b"\n")
    assert digest.hexdigest() == "741491e405e400647d337689ba00978c16c51028f4567cde704453b5db82d309"


def test_float_and_mixed_inputs_take_the_affine_formulas_bit_for_bit():
    for seed in range(40):
        rnd = random.Random(seed)
        exact_tri = random_triangle(rnd)
        float_tri = float_triangle(rnd)
        t = random_fraction(rnd)
        for tri, ts in ((exact_tri, (float(t), 0.5)), (float_tri, (t, 1, float(t)))):
            for side in SIDES:
                for s in ts:
                    assert bits([foot_point(tri, side, s)]) == bits([fraction_foot(tri, side, s)])
        exact_triple = tuple(foot_point(exact_tri, side, t) for side in SIDES)
        float_triple = tuple(foot_point(float_tri, side, float(t)) for side in SIDES)
        cases = [
            (float_tri, float_triple),
            (exact_tri, tuple(map(float_copy, exact_triple))),
            (float_copy(exact_tri), exact_triple),
            (exact_tri, exact_triple[:2] + (float_copy(exact_triple[2]),)),
        ]
        for tri, triple in cases:
            for kind, conjugate in CONJUGATES.items():
                try:
                    image = conjugate(tri, triple)
                except GeometryError:
                    continue
                assert bits(image) == bits(fraction_conjugate(tri, triple, kind))


def test_exact_generators_build_feet_without_affine_division(monkeypatch):
    def refuse(*args):
        raise AssertionError("an exact foot went through affine coordinates")

    monkeypatch.setattr(cevians, "div", refuse)
    monkeypatch.setattr(HPoint, "to_xy", refuse)
    for seed in range(10):
        rnd = random.Random(seed)
        tri = random_triangle(rnd)
        params = [random_fraction(rnd) for _ in range(6)]
        assert all(p.exact for p in feet_from_params(tri, params).outer)
        for kind in CONJUGATES:
            assert all(p.exact for p in conjugate_instance(rnd, kind)[1].outer)
        assert all(p.exact for p in through_point_instance(rnd)[1].outer)


# ----- what the generators construct instead of re-checking --------------------


def test_conjugate_and_through_point_feet_lie_inside_their_sides_and_build():
    """Every foot of these families is strictly inside its side, so each
    configuration builds: the generators return them without building."""
    for seed in range(200):
        rnd = random.Random(seed)
        instances = [conjugate_instance(rnd, kind) for kind in CONJUGATES]
        instances.append(through_point_instance(rnd)[:2])
        for tri, feet in instances:
            for which in (1, 2):
                for side, foot in zip(SIDES, feet.triple(which)):
                    t = side_parameter(tri, side, foot)
                    assert t is not None and 0 < t < 1
            build_config(tri, feet)


def test_perturbed_instance_lets_a_consistency_failure_through(monkeypatch):
    """A ``TheoremConsistencyError`` from the check that picks the draw is a
    broken implementation, not a bad draw, so it is never redrawn."""
    tri, _, params = generate.concurrency_solved_instance(random.Random(1))
    monkeypatch.setattr(generate, "_solved_draw", lambda rnd: (tri, params))
    real_check = generate.check_conditions
    calls = []

    def fail_first(cfg, *args):
        calls.append(cfg)
        if len(calls) == 1:
            raise TheoremConsistencyError("planted disagreement")
        return real_check(cfg, *args)

    monkeypatch.setattr(generate, "check_conditions", fail_first)
    with pytest.raises(TheoremConsistencyError, match="planted disagreement"):
        generate.perturbed_failing_instance(random.Random(2))
    assert len(calls) == 1


@pytest.mark.parametrize("a, b", [(100.0, 65.0), (15.0, 15.0)])
def test_a_float_triangle_keeps_a_third_angle_on_either_bound(a, b):
    """180 - a - b is exactly 15 or exactly 150 degrees, and the first draw
    is kept: base 2, no rotation or shift, no swap."""
    values = iter([a, b, 2.0, 0.0, 0.0, 0.0])

    class Scripted:
        def uniform(self, low, high):
            return next(values)

        def random(self):
            return 0.9

    tri = generate.float_triangle(Scripted())
    assert list(values) == []
    assert (tri.A, tri.B) == (HPoint(0.0, 0.0, 1.0), HPoint(2.0, 0.0, 1.0))


def test_a_perturbed_parameter_nudged_onto_a_vertex_is_redrawn(monkeypatch):
    """A nudge that lands a parameter on 1 (a vertex) is redrawn, not built."""
    tri, _, params = generate.concurrency_solved_instance(random.Random(1))
    params = [Fraction(6, 7), *params[1:]]
    monkeypatch.setattr(generate, "_solved_draw", lambda rnd: (tri, params))
    built = []
    real_feet = generate.feet_from_params
    monkeypatch.setattr(generate, "feet_from_params", lambda t, p: built.append(p) or real_feet(t, p))

    class Scripted:
        """Nudges the first parameter up by 1/7, then by 1/40."""
        denominators = iter([7, 40])

        def randrange(self, n):
            return 0

        def choice(self, seq):
            return 1

        def randint(self, a, b):
            return next(self.denominators)

    generate.perturbed_failing_instance(Scripted())
    assert built == [[Fraction(6, 7) + Fraction(1, 40), *params[1:]]]


def test_solved_instances_are_returned_without_building_or_checking(monkeypatch):
    """Carnot's criterion makes all four conditions hold on a solved draw, so
    the generator neither builds nor checks it; its draws stay pinned by the
    seed-1 ``feet`` digest of ``tests/test_output_dump.py``."""

    def refuse(*args):
        raise AssertionError("a solved instance was built or checked")

    monkeypatch.setattr(generate, "build_config", refuse)
    monkeypatch.setattr(generate, "check_conditions", refuse)
    for seed in range(50):
        tri, feet, params = generate.concurrency_solved_instance(random.Random(seed))
        assert feet == feet_from_params(tri, params)


def test_carnot_criterion_divides_the_concurrency_and_six_point_determinants():
    """The identities that let solved draws go unchecked, with sympy as the
    oracle: with K = prod(t) - prod(1 - t) over the six side parameters,
    det[A x U1, B x V1, C x W1] = K and the determinant of the Veronese rows
    of (A1, A2, B1, B2, C1, C2) is (a1 - a2)(b1 - b2)(c1 - c2) K, on
    A = (0, 0), B = (1, 0), C = (0, 1).  An affine map keeps side parameters
    and incidences and scales both determinants by a nonzero factor, so K = 0
    makes the cevians AU1, BV1, CW1 concur and the six feet conconic on every
    finite triangle."""
    sympy = pytest.importorskip("sympy")
    a1, a2, b1, b2, c1, c2 = sympy.symbols("a1 a2 b1 b2 c1 c2")
    a, b, c = (sympy.Matrix(v) for v in ((0, 0, 1), (1, 0, 1), (0, 1, 1)))

    def foot(p, q, t):
        return p + t * (q - p)

    feet_a = [foot(b, c, t) for t in (a1, a2)]
    feet_b = [foot(c, a, t) for t in (b1, b2)]
    feet_c = [foot(a, b, t) for t in (c1, c2)]
    k = a1 * b1 * c1 * a2 * b2 * c2 - (1 - a1) * (1 - b1) * (1 - c1) * (1 - a2) * (1 - b2) * (1 - c2)
    # cross products join two points and meet two lines
    u1 = b.cross(feet_b[0]).cross(c.cross(feet_c[1]))
    v1 = c.cross(feet_c[0]).cross(a.cross(feet_a[1]))
    w1 = a.cross(feet_a[0]).cross(b.cross(feet_b[1]))
    concurrency = sympy.Matrix.hstack(a.cross(u1), b.cross(v1), c.cross(w1)).det()
    assert sympy.expand(concurrency - k) == 0

    rows = [[x * x, x * y, y * y, x * z, y * z, z * z] for x, y, z in feet_a + feet_b + feet_c]
    outer6 = sympy.Matrix(rows).det(method="berkowitz")
    assert sympy.expand(outer6 - (a1 - a2) * (b1 - b2) * (c1 - c2) * k) == 0
