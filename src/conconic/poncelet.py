"""Poncelet chains: vertices on an outer conic, links tangent to an inner one.

A chain is traced by repeatedly drawing a tangent line from the current
vertex to the inner conic and crossing over to the second intersection
with the outer conic.  The first step (with no incoming link) picks the
tangent whose touch point is counterclockwise from the current vertex as
seen from a point inside the inner conic: its center, or for a parabola,
whose center is at infinity, the midpoint of the two touch points.  When
no finite touch point turns counterclockwise, it takes the first tangent
that touches at infinity: an asymptote of an inner hyperbola, whose
center lies outside it.  Every later step takes the tangent that is not
the line it arrived on.  Either first choice traces the same polygon,
just in opposite orders.

Every step is the function ``_step`` of the (outer, inner) pair.  It tests
the vertex with ``Conic.contains`` and its coincidences with
``projective.coincident``, the package's one copy of each rule.  A first
step (``_first_link``) reads the inner adjugate rows, whose product with
a tangent is its touch point (the pole that ``Conic.pole`` takes), and
the inner center (the pole of the line at infinity, ``Conic.center``),
both ``lazy`` attributes of the conic, and orients with no pole, affine
or determinant call.  A step returns the unit triple of the link it
took, and the next step gauges its tangents against that triple instead
of computing it again.  ``trace_chain`` calls ``_step`` once per link,
after its nondegeneracy checks, and ``poncelet_step`` calls it once.

Closure is detected on canonicalized coordinates with a sign-insensitive
gap, and a chain counts as closed only from three links up.  Links are
treated as full lines throughout (a tangency on a link's extension counts
the same as one on the segment).

Chains need square roots for the tangent construction, so tracing is a
float-mode affair; ``sample_on_conic`` alone stays rational on rational
input.  A spread of samples (``spread_on_conic``) validates its base point
once and reuses its pencil for every sample.  A chain names a degenerate
conic before its first step: ``trace_chain`` and ``porism_check`` check
both.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Optional, Tuple

from .conics import Conic, scaled_for_floats, tangent_lines_from
from .errors import (
    BaseNotOnConic,
    ChainStuck,
    DegenerateConic,
    GeometryError,
    NoRealSolution,
    NoTangentLine,
)
from .linalg import cross
from .projective import HLine, HPoint, Record, coincident, sphere_gap, unit_coords
from .scalars import DEFAULT_CLOSURE_TOL, DEFAULT_EPS, Scalar, all_exact, canonical_triple, div

_BASIS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _pencil_lines(base: HPoint) -> Tuple[Tuple[Scalar, ...], Tuple[Scalar, ...]]:
    """Two independent lines through the base point, spanning its pencil."""
    candidates = [cross(base.coords, e) for e in _BASIS]
    nonzero = [c for c in candidates if any(v != 0 for v in c)]
    first = nonzero[0]
    # with c_i = base x e_i, c_k x c_l = +-b_j base (j the third index), so
    # for a nonzero base some later candidate is independent of the first
    for second in nonzero[1:]:
        if any(v != 0 for v in cross(first, second)):
            return first, second


def _point_on_line_away_from(line_coords, base: HPoint, eps: float):
    """A raw point on the line that is projectively distinct from ``base``.

    The candidates are the line's cross products with the basis, each the
    literal expression ``cross`` evaluates (``l1*0 - l2*0``, ``l2*1 -
    l0*0``, ...), so every zero keeps its sign and every entry its type.
    Exact input takes the first candidate that is nonzero and off the
    base.  Otherwise the candidate farthest from the base wins, the first
    on a tie, as with ``max``.  That branch runs on every chain step, so
    its norms and crosses are written out: a candidate's squared norm is
    the sum of the squares of the two line entries it holds, and its cross
    with the base is taken on the base's float coordinates, the values a
    float product converts an ``int`` to, which gives ``row_norm`` and
    ``cross`` bit for bit.
    """
    l0, l1, l2 = line_coords
    c0 = (l1 * 0 - l2 * 0, l2 * 1 - l0 * 0, l0 * 0 - l1 * 1)
    c1 = (l1 * 0 - l2 * 1, l2 * 0 - l0 * 0, l0 * 1 - l1 * 0)
    c2 = (l1 * 1 - l2 * 0, l2 * 0 - l0 * 1, l0 * 0 - l1 * 0)
    b0, b1, b2 = base.coords
    if type(b0) is int and all_exact(line_coords):  # ``base.exact`` first
        for c in (c0, c1, c2):
            x, y, z = c
            if (x != 0 or y != 0 or z != 0) and (
                y * b2 - z * b1 != 0 or z * b0 - x * b2 != 0 or x * b1 - y * b0 != 0
            ):
                return c
        raise ValueError("line has a single point")  # unreachable for valid lines
    b0, b1, b2 = float(b0), float(b1), float(b2)
    base_norm = math.sqrt(b0 * b0 + b1 * b1 + b2 * b2)
    x, y, z = float(l0), float(l1), float(l2)
    q0, q1, q2 = x * x, y * y, z * z
    best = best_separation = None
    for c, norm in ((c0, math.sqrt(q2 + q1)), (c1, math.sqrt(q2 + q0)), (c2, math.sqrt(q1 + q0))):
        n = norm * base_norm
        if n:
            x, y, z = c
            u, v, w = y * b2 - z * b1, z * b0 - x * b2, x * b1 - y * b0
            separation = math.sqrt(u * u + v * v + w * w) / n
        else:
            separation = 0.0
        if best is None or separation > best_separation:
            best, best_separation = c, separation
    if best_separation <= eps:
        raise ValueError("line has a single point")  # unreachable for valid lines
    return best


def second_intersection(conic: Conic, base: HPoint, line_coords, eps: float = DEFAULT_EPS) -> HPoint:
    """The other meeting point of a conic and a line through a point on it.

    Returns the base point itself when the line is exactly tangent there; a
    nearly tangent float line yields a second point within roundoff of the
    base.  No tolerance snapping happens here: a tiny quadratic coefficient
    just makes the pencil parameter large, and the homogeneous combination
    degrades gracefully toward the spanning point while staying on the
    conic to machine precision.

    The two Gram forms share ``matvec3(conic.gram, other)``; it and both
    ``dot`` products are written out in their ``0 + a0*b0 + a1*b1 + a2*b2``
    order, so every float keeps its last bit.  A float pencil parameter is
    a plain quotient, and exact operands keep ``div``.
    """
    other = _point_on_line_away_from(line_coords, base, eps)
    o0, o1, o2 = other
    (g00, g01, g02), (g10, g11, g12), (g20, g21, g22) = conic.gram
    h0 = 0 + g00 * o0 + g01 * o1 + g02 * o2
    h1 = 0 + g10 * o0 + g11 * o1 + g12 * o2
    h2 = 0 + g20 * o0 + g21 * o1 + g22 * o2
    a = 0 + o0 * h0 + o1 * h1 + o2 * h2
    if a == 0:
        return HPoint(*other)
    b0, b1, b2 = base.coords
    num = -2 * (0 + b0 * h0 + b1 * h1 + b2 * h2)
    s = num / a if type(a) is float else div(num, a)
    if s == 0:
        return base
    combined = (b0 + s * o0, b1 + s * o1, b2 + s * o2)
    # an infinite or NaN s makes some coordinate non-finite; math.isfinite
    # would overflow on a huge Fraction, so only a float s is checked
    if isinstance(s, float) and not (
        math.isfinite(combined[0]) and math.isfinite(combined[1]) and math.isfinite(combined[2])
    ):
        return HPoint(*other)
    return HPoint(*combined)


def sample_on_conic(conic: Conic, base: HPoint, t: Scalar, eps: float = DEFAULT_EPS) -> HPoint:
    """Point of the conic cut out by the pencil line of parameter t at base.

    The pencil through the base point is spanned by two fixed lines, so the
    map t -> point is a rational parametrization of the conic; rational t
    on rational input yields a rational point.
    """
    if conic.is_degenerate(eps):
        raise DegenerateConic("sampling needs a nondegenerate conic")
    if not conic.contains(base, eps):
        raise BaseNotOnConic(f"{base} does not lie on the conic")
    return _pencil_point(conic, base, _pencil_lines(base), t, eps)


def _pencil_point(conic: Conic, base: HPoint, pencil, t: Scalar, eps: float) -> HPoint:
    """The point of ``sample_on_conic`` at t, on a checked base with its
    ``_pencil_lines``."""
    l0, l1 = pencil
    line = tuple(u + t * v for u, v in zip(l0, l1))
    return second_intersection(conic, base, line, eps)


def poncelet_step(
    c1: Conic,
    c2: Conic,
    current: HPoint,
    incoming: Optional[HLine] = None,
    eps: float = DEFAULT_EPS,
) -> Tuple[HPoint, HLine]:
    """One link of a chain: the next vertex on c1 and the tangent used.

    With an incoming link the step continues along the other tangent; the
    very first step orients the chain counterclockwise around a point
    inside the inner conic: its center, or for a parabola the midpoint of
    the two touch points, and falls back to a tangent that touches at
    infinity.  This is ``trace_chain``'s step, ``_step``, less the unit
    triple it carries.
    """
    arrived = None if incoming is None else unit_coords(incoming)
    return _step(c1, c2, current, incoming, arrived, eps)[:2]


def _step(
    outer: Conic,
    inner: Conic,
    current: HPoint,
    incoming: Optional[HLine],
    arrived: Optional[Tuple[float, float, float]],
    eps: float,
) -> Tuple[HPoint, HLine, Tuple[float, float, float]]:
    """``(next, link, unit)`` from ``current``: the next vertex, the tangent
    taken and its ``unit_coords``.  ``incoming`` is the link the chain
    arrived on and ``arrived`` its ``unit_coords``, both None on a first
    step.

    The vertex is tested by ``Conic.contains``, which reads the outer
    ``gram_norm`` only for a float form value (so an exact conic past float
    range builds no float norm), and both coincidence tests are
    ``projective.coincident``.  Tangents and the next vertex come from
    ``tangent_lines_from`` and ``second_intersection``, looked up in this
    module's globals on every step.
    """
    if not outer.contains(current, eps):
        raise BaseNotOnConic(f"chain vertex {current} does not lie on the outer conic")
    tangents = tangent_lines_from(inner, current, eps)
    if not tangents:
        raise NoTangentLine("chain vertex lies inside the inner conic")
    if incoming is not None:
        # the tangent farther from the arrival, the first on a tie (as ``max``)
        link = tangents[0]
        unit = unit_coords(link)
        if len(tangents) == 2:
            other = unit_coords(tangents[1])
            if sphere_gap(other, arrived) > sphere_gap(unit, arrived):
                link, unit = tangents[1], other
        if coincident(link, incoming, eps):
            raise ChainStuck("both tangents coincide with the incoming link")
    else:
        link = tangents[0] if len(tangents) == 1 else _first_link(inner, current.coords, tangents, eps)
        unit = unit_coords(link)
    nxt = second_intersection(outer, current, link.coords, eps)
    if coincident(nxt, current, eps):
        raise ChainStuck("link is tangent to the outer conic; the chain cannot advance")
    return nxt, link, unit


def _first_link(inner: Conic, here, tangents, eps: float) -> HLine:
    """The first of two tangents from the vertex of canonical triple
    ``here`` whose touch point turns counterclockwise about a point inside
    the inner conic, else the first whose touch point is at infinity.

    A touch point is the canonical triple of the adjugate rows times the
    tangent, as ``Conic.pole`` builds it.  Its affine floats, like the
    center's, are ``x / z``: ``HPoint.to_xy``'s value, which on integers
    is ``float(Fraction(x, z))`` but for the sign of a zero quotient, and
    that leaves every orientation's sign as it is.  The orientation is
    ``det3``'s expression in ``det3``'s order, less its factors of 1.0.
    """
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = inner.adjugate
    touches = []
    for cand in tangents:
        l0, l1, l2 = cand.coords
        touches.append(canonical_triple(0 + a00 * l0 + a01 * l1 + a02 * l2,
                                        0 + a10 * l0 + a11 * l1 + a12 * l2,
                                        0 + a20 * l0 + a21 * l1 + a22 * l2))
    x, y, z = inner.center(eps).coords
    if z != 0:
        i0, i1 = x / z, y / z
    else:
        # a parabola: the midpoint of the two touch points lies inside it
        (ax, ay, az), (bx, by, bz) = touches
        if az == 0 or bz == 0:
            raise ChainStuck("inner conic has no finite center to orient the first step")
        if type(az) is int:  # ``to_xy``'s exact sum, rounded once
            sx, sy = float(Fraction(ax, az) + Fraction(bx, bz)), float(Fraction(ay, az) + Fraction(by, bz))
        else:
            sx, sy = ax / az + bx / bz, ay / az + by / bz
        i0, i1 = sx / 2.0, sy / 2.0
    h0, h1, h2 = here
    # the homogeneous triple of a start at infinity, as ``to_xy`` divides by z
    h0, h1, h2 = (float(h0), float(h1), float(h2)) if h2 == 0 else (h0 / h2, h1 / h2, 1.0)
    at_infinity = None
    for cand, (t0, t1, t2) in zip(tangents, touches):
        if t2 == 0:
            if at_infinity is None:
                at_infinity = cand
            continue
        t0, t1 = t0 / t2, t1 / t2
        if h0 * (t1 - i1) - h1 * (t0 - i0) + h2 * (t0 * i1 - t1 * i0) > 0:
            return cand
    if at_infinity is None:
        raise ChainStuck("no tangent advances the chain counterclockwise")
    return at_infinity


def _check_nondegenerate(conic: Conic, role: str, eps: float) -> None:
    if conic.is_degenerate(eps):
        raise DegenerateConic(f"{role} conic is degenerate")


class ChainResult(Record):
    """Trace of a chain: vertices, links, and how (whether) it closed.

    ``gap`` is the canonical-coordinate distance between the first vertex
    and the vertex at the closure step, or the smallest gap seen from step
    three on when the chain never closed.
    """

    points: Tuple[HPoint, ...]
    links: Tuple[HLine, ...]
    closure_step: Optional[int]
    gap: float

    @property
    def closed(self) -> bool:
        return self.closure_step is not None


def trace_chain(
    c1: Conic,
    c2: Conic,
    start: HPoint,
    max_steps: int = 100,
    closure_tol: float = DEFAULT_CLOSURE_TOL,
    eps: float = DEFAULT_EPS,
) -> ChainResult:
    """Iterate the chain from a starting vertex until it closes.

    Closure at step n means the n-th vertex returns to the start within
    ``closure_tol``; steps below three never count as closure.  Once both
    conics are checked nondegenerate, every step is a ``_step`` call,
    which returns each link's unit triple for the next step to gauge its
    tangents against.  A step's error is raised again with the step
    number in front of its message.
    """
    if max_steps < 3:
        raise ValueError("a chain needs at least three steps to close")
    _check_nondegenerate(c1, "outer", eps)
    _check_nondegenerate(c2, "inner", eps)
    points = [start]
    links = []
    nxt, link, arrived = start, None, None
    best_gap = math.inf
    start_unit = unit_coords(start)  # the closure test's fixed end
    for k in range(1, max_steps + 1):
        try:
            nxt, link, arrived = _step(c1, c2, nxt, link, arrived, eps)
        except GeometryError as err:
            raise type(err)(f"step {k}: {err}") from err
        points.append(nxt)
        links.append(link)
        if k >= 3:
            gap = sphere_gap(start_unit, unit_coords(nxt))
            best_gap = min(best_gap, gap)
            if gap <= closure_tol:
                return ChainResult(tuple(points), tuple(links), k, gap)
    return ChainResult(tuple(points), tuple(links), None, best_gap)


class PorismReport(Record):
    """Closure outcomes for chains started at spread-out sample points."""

    all_closed: bool
    max_gap: float
    steps: Tuple[Optional[int], ...]
    gaps: Tuple[float, ...]


def find_point_on_conic(conic: Conic, eps: float = DEFAULT_EPS) -> HPoint:
    """Some real point of a nondegenerate conic.

    A central conic is searched first by 16 rays from its center.  On the
    ray ``center + s*d`` the form is ``Q(center) + s^2 Q(d)``, so a ray
    meets the conic exactly when ``Q(d)`` has the sign opposite to
    ``Q(center)``.  A thin hyperbola keeps those directions in a narrow
    cone that can fall between two rays; its axis is then the principal
    axis of the quadratic part with that sign.  A parabola's center is
    its axis direction ``d`` at infinity, which lies on the conic, so the
    line through the origin parallel to the axis meets the conic in one
    finite point, where the form is linear in the line's parameter.  The
    center is the conic's cached ``Conic.center``.  An exact conic with
    coefficients past float range is searched as ``scaled_for_floats`` of
    it, the same conic.  Raises ``NoRealSolution`` when the conic has no
    real point.
    """
    if conic.is_degenerate(eps):
        raise DegenerateConic("point search needs a nondegenerate conic")
    conic = scaled_for_floats(conic)
    center = conic.center(eps)
    if center.at_infinity:
        dx, dy = float(center.x), float(center.y)
        # Q(t*d + origin) = 2t B(d, origin) + Q(origin), B(d, origin) = (G d)_z
        (_, _, g02), (_, _, g12), (_, _, g22) = conic.gram
        t = -float(g22) / (2.0 * (float(g02) * dx + float(g12) * dy))
        return HPoint(t * dx, t * dy, 1.0)
    cx, cy = map(float, center.to_xy())
    c = float(conic.value2((cx, cy, 1.0)))

    def on_ray(direction) -> Optional[HPoint]:
        a = float(conic.value2(direction))
        if a == 0.0 or c / a > 0.0:
            return None
        s = math.sqrt(-c / a)
        return HPoint(cx + s * direction[0], cy + s * direction[1], 1.0)

    for k in range(16):
        theta = math.pi * k / 16.0
        found = on_ray((math.cos(theta), math.sin(theta), 0.0))
        if found is not None:
            return found
    # the principal axes of [[2a, b], [b, 2c]], at theta and theta + pi/2
    (g00, g01, _), (_, g11, _), _ = conic.gram
    theta = 0.5 * math.atan2(2.0 * float(g01), float(g00) - float(g11))
    u, v = math.cos(theta), math.sin(theta)
    for direction in ((u, v, 0.0), (-v, u, 0.0)):
        found = on_ray(direction)
        if found is not None:
            return found
    raise NoRealSolution("conic appears to have no real points")


def spread_on_conic(conic: Conic, n: int, eps: float = DEFAULT_EPS) -> Iterator[HPoint]:
    """``n`` points spread over a conic, yielded one at a time: the pencil
    parameters tan(theta_k / 2) with theta_k = -pi + 2 pi (k + 1/2) / n at
    one base point found by ``find_point_on_conic``.  Each point is
    ``sample_on_conic(conic, base, tan(theta_k / 2))``; the base is checked
    and its pencil built once per spread.  An exact conic past float range
    is sampled as ``scaled_for_floats`` of it, in floats."""
    conic = scaled_for_floats(conic)
    base = find_point_on_conic(conic, eps)
    if not conic.contains(base, eps):
        raise BaseNotOnConic(f"{base} does not lie on the conic")
    pencil = _pencil_lines(base)
    for k in range(n):
        theta = -math.pi + 2.0 * math.pi * (k + 0.5) / n
        yield _pencil_point(conic, base, pencil, math.tan(theta / 2.0), eps)


def porism_check(
    c1: Conic,
    c2: Conic,
    expected_n: int,
    num_samples: int,
    closure_tol: float = DEFAULT_CLOSURE_TOL,
    eps: float = DEFAULT_EPS,
) -> PorismReport:
    """Whether chains close at the expected step from many starting points.

    Sample vertices are spread over the outer conic through the rational
    parametrization at a found base point; each chain must close at exactly
    ``expected_n`` (an earlier closure also fails the check).  Each chain
    is ``trace_chain``'s; the forms its steps read (the outer Gram matrix
    and its norm, the inner dual and adjugate and center) are the conics'
    ``lazy`` attributes, built once for all samples.
    """
    if expected_n < 3:
        raise ValueError("closure below three steps is not a chain")
    if num_samples < 1:
        raise ValueError("at least one sample is required")
    _check_nondegenerate(c1, "outer", eps)
    _check_nondegenerate(c2, "inner", eps)
    steps = []
    gaps = []
    for start in spread_on_conic(c1, num_samples, eps):
        result = trace_chain(c1, c2, start, expected_n, closure_tol, eps)
        steps.append(result.closure_step)
        gaps.append(result.gap)
    all_closed = all(s == expected_n for s in steps)
    return PorismReport(
        all_closed=all_closed,
        max_gap=max(gaps),
        steps=tuple(steps),
        gaps=tuple(gaps),
    )
