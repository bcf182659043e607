"""Seeded random instance generators for tests and experiments.

Everything takes an explicit ``random.Random`` so runs are reproducible
from a seed.  Exact generators draw small rationals and build triangles,
interior points and sextuple points directly as integer homogeneous
triples.  Feet come from ``cevians.foot_point``, which does the same, and
``feet_from_params``, which builds six exact feet in one pass (both
re-exported here).  The solved and perturbed families share one draw of a
triangle and solved parameters, so a perturbed draw builds only its
nudged feet.  The conconic families are constructed, not searched:
six-point instances come from solving Carnot's criterion
``prod(t) == prod(1 - t)`` over the six side parameters for the last foot
(the criterion is linear in each parameter), and on-conic sextuples come
from pushing rational circle points through a random projective map.
Instances are not re-checked for what their construction guarantees:
every foot lies strictly inside its side, so cevians through different
vertices always meet and each configuration builds.  A solved instance
has K = prod(t) - prod(1 - t) = 0, and the concurrency and outer
six-point determinants are nonzero multiples of K and of (a1 - a2)(b1 - b2)
(c1 - c2) K, so the four equivalent conditions hold.  Only the perturbed
family runs ``check_conditions``, whose verdict picks the draw.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import List, Optional, Tuple

from .cevians import (
    SIDES,
    CevianFeet,
    Triangle,
    build_config,
    cevians_through_point,
    check_conditions,
    feet_from_params,
    foot_point,
    isogonal_feet,
    isotomic_feet,
)
from .errors import GeometryError
from .linalg import det3
from .projective import HLine, HPoint, ProjectiveMap

TRIANGLE_SPAN = 6      # random_triangle: coordinates k / d with |k| <= 2 span, d <= 4
MAP_SPAN = 9           # random_projective_map entries, and _distinct_fractions' range
SEXTUPLE_SPAN = 8      # random_sextuple points, random_line_sextuple coefficients
INTERIOR_MAX_DEN = 10  # random_interior_point: integer barycentric weights up to this
# exact_instance: the five exact families of the benchmark's exact sweep
EXACT_FAMILIES = ("solved", "isogonal", "isotomic", "through", "perturbed")

# ----- scalar and point helpers -------------------------------------------


def random_fraction(rnd: random.Random, max_den: int = 12) -> Fraction:
    """A rational strictly between 0 and 1 with a small denominator."""
    den = rnd.randint(2, max_den)
    num = rnd.randint(1, den - 1)
    return Fraction(num, den)


def random_triangle(rnd: random.Random) -> Triangle:
    """A nondegenerate triangle with small rational vertices."""
    while True:
        try:
            return Triangle(*[_random_point(rnd, TRIANGLE_SPAN, 4) for _ in range(3)])
        except GeometryError:
            continue


def float_triangle(rnd: random.Random, min_angle: float = 15.0, max_angle: float = 150.0) -> Triangle:
    """A float triangle with all angles inside the given degree range.

    Placed with random position, scale, rotation, and orientation.
    """
    while True:
        a = rnd.uniform(min_angle, max_angle)
        b = rnd.uniform(min_angle, max_angle)
        c = 180.0 - a - b
        if min_angle <= c <= max_angle:
            break
    base = rnd.uniform(1.0, 5.0)
    ta, tb = math.radians(a), math.radians(b)
    apex_x = base * math.tan(tb) / (math.tan(ta) + math.tan(tb))
    pts = [(0.0, 0.0), (base, 0.0), (apex_x, apex_x * math.tan(ta))]
    rot = rnd.uniform(0.0, 2.0 * math.pi)
    ox, oy = rnd.uniform(-3.0, 3.0), rnd.uniform(-3.0, 3.0)
    cr, sr = math.cos(rot), math.sin(rot)
    pts = [(ox + x * cr - y * sr, oy + x * sr + y * cr) for x, y in pts]
    if rnd.random() < 0.5:
        pts = [pts[0], pts[2], pts[1]]
    return Triangle(*(HPoint(x, y, 1.0) for x, y in pts))


# ----- conconic cevian configurations --------------------------------------


def solve_concurrent_params(rnd: random.Random) -> Optional[List[Fraction]]:
    """Six foot parameters whose cevian configuration is concurrent.

    Five parameters are drawn at random and the last (the second C-foot)
    is solved from Carnot's criterion ``prod(t) == prod(1 - t)``, which is
    linear in any single parameter: with t = n/d, ``P = prod(d - n)`` and
    ``Q = prod(n)`` over the five, the last parameter is P / (P + Q).  Every
    drawn fraction lies strictly inside (0, 1), so the solution does too;
    returns None only when it repeats the first C-foot.
    """
    five = [random_fraction(rnd) for _ in range(5)]  # a1, b1, c1, a2, b2
    p = math.prod(t.denominator - t.numerator for t in five)
    q = math.prod(t.numerator for t in five)
    t_c2 = Fraction(p, p + q)
    if t_c2 == five[2]:
        return None
    return five + [t_c2]


def _solved_draw(rnd: random.Random) -> Tuple[Triangle, List[Fraction]]:
    """A random triangle and six parameters solving Carnot's criterion,
    redrawn together until the solve succeeds: the draw that
    ``concurrency_solved_instance`` and ``perturbed_failing_instance``
    share."""
    while True:
        tri = random_triangle(rnd)
        params = solve_concurrent_params(rnd)
        if params is not None:
            return tri, params


def concurrency_solved_instance(rnd: random.Random) -> Tuple[Triangle, CevianFeet, List[Fraction]]:
    """An exact configuration satisfying all four equivalent conditions,
    returned unchecked: its parameters solve Carnot's criterion."""
    tri, params = _solved_draw(rnd)
    return tri, feet_from_params(tri, params), params


def conjugate_instance(rnd: random.Random, kind: str) -> Tuple[Triangle, CevianFeet]:
    """A configuration whose second triple is the named conjugate of the first."""
    conjugate = {"isogonal": isogonal_feet, "isotomic": isotomic_feet}[kind]
    tri = random_triangle(rnd)
    first = tuple(foot_point(tri, side, random_fraction(rnd)) for side in SIDES)
    return tri, CevianFeet.from_triples(first, conjugate(tri, first))


def random_interior_point(rnd: random.Random, tri: Triangle) -> HPoint:
    """A rational point strictly inside the triangle (positive barycentrics).

    The vertices V_i must be exact and finite, with last coordinates z_i;
    with Z = z0 z1 z2 the point is the integer triple ``sum(w_i (Z / z_i) V_i)``
    (a vertex at infinity raises ZeroDivisionError).
    """
    w = [rnd.randint(1, INTERIOR_MAX_DEN) for _ in range(3)]
    zs = [v.z for v in tri.vertices]
    big_z = zs[0] * zs[1] * zs[2]
    scaled = [wi * (big_z // z) for wi, z in zip(w, zs)]
    return HPoint(*(sum(c * v.coords[k] for c, v in zip(scaled, tri.vertices)) for k in range(3)))


def through_point_instance(rnd: random.Random) -> Tuple[Triangle, CevianFeet, HPoint, HPoint]:
    """A configuration whose two cevian triples pass through two points."""
    while True:
        tri = random_triangle(rnd)
        p1 = random_interior_point(rnd, tri)
        p2 = random_interior_point(rnd, tri)
        if p1 != p2:
            feet = CevianFeet.from_triples(cevians_through_point(tri, p1), cevians_through_point(tri, p2))
            return tri, feet, p1, p2


def perturbed_failing_instance(rnd: random.Random) -> Tuple[Triangle, CevianFeet]:
    """A conconic instance knocked off by nudging one foot parameter.

    It starts from the draw of ``concurrency_solved_instance``, without
    building that instance's feet, and makes the same random calls.  The
    perturbed configuration is re-checked: all four conditions must fail
    (generic perturbations do; degenerate ones are redrawn).  A
    ``TheoremConsistencyError`` from that check is raised, not redrawn.
    """
    while True:
        tri, params = _solved_draw(rnd)
        idx = rnd.randrange(6)
        delta = Fraction(rnd.choice([-1, 1]), rnd.randint(7, 40))
        nudged = list(params)
        nudged[idx] = nudged[idx] + delta
        if not 0 < nudged[idx] < 1 or nudged[idx] == nudged[(idx + 3) % 6]:
            continue
        feet = feet_from_params(tri, nudged)
        if not any(check_conditions(build_config(tri, feet)).booleans):
            return tri, feet


def exact_instance(rnd: random.Random, family: str) -> Tuple[Triangle, CevianFeet]:
    """(triangle, feet) of one instance of an ``EXACT_FAMILIES`` family."""
    if family == "solved":
        return concurrency_solved_instance(rnd)[:2]
    if family == "through":
        return through_point_instance(rnd)[:2]
    if family == "perturbed":
        return perturbed_failing_instance(rnd)
    return conjugate_instance(rnd, family)


# ----- sextuples on (and off) conics ---------------------------------------


def random_projective_map(rnd: random.Random) -> ProjectiveMap:
    """A random invertible integer projective map."""
    while True:
        rows = tuple(tuple(rnd.randint(-MAP_SPAN, MAP_SPAN) for _ in range(3)) for _ in range(3))
        try:
            return ProjectiveMap(rows)
        except GeometryError:
            continue


def _circle_point(t: Fraction) -> HPoint:
    """Rational unit-circle point (1 - t^2 : 2t : 1 + t^2) of parameter
    t = n/d, as the integer triple (d^2 - n^2, 2nd, d^2 + n^2)."""
    n, d = t.numerator, t.denominator
    return HPoint(d * d - n * n, 2 * n * d, d * d + n * n)


def _distinct_fractions(rnd: random.Random, n: int) -> List[Fraction]:
    seen = set()
    out: List[Fraction] = []
    while len(out) < n:
        t = Fraction(rnd.randint(-4 * MAP_SPAN, 4 * MAP_SPAN), rnd.randint(1, MAP_SPAN))
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def conconic_sextuple(rnd: random.Random) -> Tuple[HPoint, ...]:
    """Six exact points on one common (randomly transformed) conic."""
    pmap = random_projective_map(rnd)
    return tuple(pmap.apply(_circle_point(t)) for t in _distinct_fractions(rnd, 6))


def cotangent_sextuple(rnd: random.Random) -> Tuple[HLine, ...]:
    """Six exact tangent lines of one common conic."""
    pmap = random_projective_map(rnd)
    points = [_circle_point(t).coords for t in _distinct_fractions(rnd, 6)]
    # the tangent of x^2 + y^2 = z^2 at (x : y : z) is the line (x, y, -z)
    return tuple(pmap.apply_line(HLine(x, y, -z)) for x, y, z in points)


def _random_point(rnd: random.Random, span: int, max_den: int = 3) -> HPoint:
    """A point x = a/b, y = c/d, numerators in [-2 span, 2 span] and
    denominators 1 to ``max_den``, drawn in that order: (a d, c b, b d)."""
    a, b = rnd.randint(-2 * span, 2 * span), rnd.randint(1, max_den)
    c, d = rnd.randint(-2 * span, 2 * span), rnd.randint(1, max_den)
    return HPoint(a * d, c * b, b * d)


def _general_position(items) -> bool:
    """Whether six exact points (lines) are distinct, no three collinear (concurrent)."""
    coords = {item.coords for item in items}
    return len(coords) == 6 and all(det3(triple) != 0 for triple in itertools.combinations(coords, 3))


def random_sextuple(rnd: random.Random) -> Tuple[HPoint, ...]:
    """Six distinct random rational points with no three collinear."""
    while True:
        pts = tuple(_random_point(rnd, SEXTUPLE_SPAN) for _ in range(6))
        if _general_position(pts):
            return pts


def random_line_sextuple(rnd: random.Random) -> Tuple[HLine, ...]:
    """Six distinct random rational lines with no three concurrent."""
    span = SEXTUPLE_SPAN
    while True:
        try:
            lines = tuple(HLine(*(rnd.randint(-span, span) for _ in range(3))) for _ in range(6))
        except ValueError:
            continue
        if _general_position(lines):
            return lines


# ----- sixth-foot draws and float copies ------------------------------------


def sixth_foot_draw(rnd: random.Random) -> Tuple[Triangle, Tuple[HPoint, ...], str]:
    """A triangle, a target side and five fixed points for ``solve_sixth_foot``:
    each a foot on a random side at a parameter of denominator at most 5 (so
    feet repeat, and three can share a side) or a free rational point."""
    tri = random_triangle(rnd)
    side = rnd.choice(SIDES)
    five = []
    for _ in range(5):
        where = rnd.choice(SIDES + ("plane",))
        if where == "plane":
            five.append(_random_point(rnd, 6))
        else:
            five.append(foot_point(tri, where, random_fraction(rnd, 5)))
    return tri, tuple(five), side


def float_copy(obj):
    """The float copy of an exact point, triangle or set of cevian feet."""
    if isinstance(obj, HPoint):
        return HPoint(*map(float, obj.coords))
    if isinstance(obj, Triangle):
        return Triangle(*map(float_copy, obj.vertices))
    return CevianFeet(*map(float_copy, obj.outer))
