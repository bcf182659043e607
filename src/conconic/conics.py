"""Conics as symmetric quadratic forms, with the six-point test.

A conic with coefficient vector (a, b, c, d, e, f) is the zero set of

    a x^2 + b xy + c y^2 + d xz + e yz + f z^2.

Coefficients are stored in that fixed monomial order (the Veronese order
x^2, xy, y^2, xz, yz, z^2) and canonicalized up to scale, so conic equality
is tuple equality, matching points and lines.  Internally the quadratic
form is carried as the integer-friendly doubled Gram matrix

    [[2a, b,  d ],
     [ b, 2c, e ],
     [ d, e,  2f]]

which evaluates to twice the form; every predicate here only cares about
values up to scale, so the doubling is harmless and keeps exact arithmetic
in plain integers.  A conic is immutable, so this matrix and the forms
derived from it (adjugate, norm, rank per ``eps``, dual, centre) are
``projective.lazy`` attributes, each computed once per conic.

Two independent routes to "six points lie on one conic" are provided:
``conconic`` (rank of the stacked Veronese images, i.e. a 6x6 determinant)
and ``conconic_by_fit`` (fit a conic through five of the points, test the
sixth).  They are deliberately separate implementations so each can serve
as an oracle for the other.  On exact points ``conconic`` takes the 6x6
determinant in brackets ``[ijk] = det(pi, pj, pk)``, ``[124][135][236][456]
- [123][145][246][356]`` (Pascal's theorem in bracket form), which is the
bracket conic ``[124][135][23x][45x] - [123][145][24x][35x]`` through the
first five points evaluated at the sixth: the residual is an integer, and
when it is zero that conic, or the first nonzero one through another
five-subset, is the witness; ``conconic_by_fit``, float witnesses and
``conic_through_points`` solve the nullspace in ``_fit``.
Every six-item verdict is ``_six_point_verdict`` on the items and their
``_dedupe``, the one coincidence rule.  The six-item tests and the
five-point fit take their inputs through the gate ``_distinct`` (the item
count, then no coincident pair), each input once (fits of gated points call
the ungated ``_fit``); ``cevians.check_conditions`` skips the gate, as a
repeated item makes the verdict hold identically.

A conic meets a line (``intersect_line``, and ``tangent_lines_from`` in
the dual plane) in one frame, ``_meet_coords``, which every chain step
runs twice: it spans the line by two basis crosses, takes the pencil's
quadratic from the Gram forms and solves a float quadratic in place.  Only
an exact quadratic leaves it, for ``_quadratic_root_pairs``, whose roots
stay rational or raise ``IrrationalResult``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter
from typing import Callable, Optional, Sequence, Tuple

from .errors import (
    DegenerateConic,
    DuplicateLine,
    DuplicatePoints,
    IrrationalResult,
    LineOnConic,
    NonUniqueConic,
    ZeroMatrix,
)
from .linalg import (
    adjugate3,
    cross,
    det3,
    dot,
    matmul3,
    matvec3,
    normalized_det,
    nullspace,
    row_norm,
    transpose3,
)
from .projective import (
    LINE_AT_INFINITY,
    HLine,
    HPoint,
    ProjectiveMap,
    Verdict,
    _Frozen,
    _dual_point,
    all_exact_items,
    coincident,
    collinear,
    concurrent,
    join,
    lazy,
    meet,
)
from .scalars import DEFAULT_EPS, Scalar, canonical_tuple, exact_sqrt, float_scaled, is_zero, near_zero

Six = Tuple[Scalar, Scalar, Scalar, Scalar, Scalar, Scalar]

VERONESE_MONOMIALS = ("x^2", "xy", "y^2", "xz", "yz", "z^2")


def veronese(coords: Sequence[Scalar]) -> Six:
    """Image of a coordinate triple under the degree-2 Veronese map."""
    x, y, z = coords
    return (x * x, x * y, y * y, x * z, y * z, z * z)


class Conic(_Frozen):
    """A conic of the projective plane, canonical up to scale.

    Conics are immutable, so every form derived from the coefficients is a
    ``projective.lazy`` attribute, computed on first use and kept in the
    instance's ``__dict__``: ``gram``, its ``adjugate`` and Frobenius norm
    ``gram_norm``, the rank per ``eps``, the dual conic and the centre.  A
    conic only pays for what is asked of it; a Poncelet chain, which asks
    the same inner conic for its dual on every step and for its centre on
    every first step, builds each once.
    """

    def __init__(self, a: Scalar, b: Scalar, c: Scalar, d: Scalar, e: Scalar, f: Scalar):
        try:
            object.__setattr__(self, "coeffs", canonical_tuple((a, b, c, d, e, f)))
        except ValueError:
            raise ZeroMatrix("conic coefficients are all zero") from None

    _key = property(attrgetter("coeffs"))

    def __repr__(self) -> str:
        terms = " + ".join(f"{c}*{m}" for c, m in zip(self.coeffs, VERONESE_MONOMIALS) if c != 0)
        return f"Conic({terms} = 0)"

    @property
    def exact(self) -> bool:
        # canonical tuples are all int or all float
        return type(self.coeffs[0]) is int

    @lazy
    def gram(self) -> Tuple[Tuple[Scalar, ...], ...]:
        """Doubled symmetric matrix of the form (twice the classical one)."""
        a, b, c, d, e, f = self.coeffs
        return ((2 * a, b, d), (b, 2 * c, e), (d, e, 2 * f))

    @lazy
    def adjugate(self) -> Tuple[Tuple[Scalar, ...], ...]:
        """Adjugate of ``gram``: the dual form, up to scale."""
        return adjugate3(self.gram)

    @lazy
    def gram_norm(self) -> float:
        """Frobenius norm of ``gram``, the scale of float zero tests."""
        return _frob(self.gram)

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[Scalar]) -> "Conic":
        if len(coeffs) != 6:
            raise ValueError("a conic needs exactly six coefficients")
        return cls(*coeffs)

    @classmethod
    def from_matrix(cls, m: Sequence[Sequence[Scalar]]) -> "Conic":
        """Conic of the quadratic form p^T m p (m need not be symmetric)."""
        return cls(
            m[0][0],
            m[0][1] + m[1][0],
            m[1][1],
            m[0][2] + m[2][0],
            m[1][2] + m[2][1],
            m[2][2],
        )

    @classmethod
    def from_line_pair(cls, l1: HLine, l2: HLine) -> "Conic":
        """The degenerate conic consisting of the two lines."""
        u, v = l1.coords, l2.coords
        m = tuple(tuple(u[i] * v[j] for j in range(3)) for i in range(3))
        return cls.from_matrix(m)

    @classmethod
    def from_double_line(cls, l: HLine) -> "Conic":
        """The rank-one conic supported on a single line, counted twice."""
        return cls.from_line_pair(l, l)

    # ----- evaluation ---------------------------------------------------

    def value2(self, coords: Sequence[Scalar]) -> Scalar:
        """Twice the quadratic form at a coordinate triple."""
        return dot(coords, matvec3(self.gram, coords))

    def contains(self, p: HPoint, eps: float = DEFAULT_EPS) -> bool:
        return _form_zero(self.gram, lambda: self.gram_norm, p.coords, eps)

    # ----- degeneracy ---------------------------------------------------

    def rank(self, eps: float = DEFAULT_EPS) -> int:
        """Rank of ``gram``; float ranks depend on ``eps`` and are kept per value."""
        r = self._ranks.get(eps)
        if r is None:
            r = self._ranks[eps] = self._rank(eps)
        return r

    @lazy
    def _ranks(self) -> dict:
        return {}

    def _rank(self, eps: float) -> int:
        g = self.gram
        if self.exact:
            if det3(g) != 0:
                return 3
            return 2 if any(v != 0 for row in self.adjugate for v in row) else 1
        m = [[float(v) for v in row] for row in g]
        r = 0
        threshold = None
        for _ in range(3):
            pi, pj = max(
                ((i, j) for i in range(r, 3) for j in range(r, 3)),
                key=lambda ij: abs(m[ij[0]][ij[1]]),
            )
            pivot = m[pi][pj]
            if threshold is None:
                threshold = eps * max(abs(pivot), 1e-300)
            if abs(pivot) <= threshold:
                break
            m[r], m[pi] = m[pi], m[r]
            for row in m:
                row[r], row[pj] = row[pj], row[r]
            for i in range(r + 1, 3):
                factor = m[i][r] / m[r][r]
                for j in range(r, 3):
                    m[i][j] -= factor * m[r][j]
            r += 1
        return r

    def is_degenerate(self, eps: float = DEFAULT_EPS) -> bool:
        return self.rank(eps) < 3

    def classify(self, eps: float = DEFAULT_EPS) -> str:
        return {3: "nondegenerate", 2: "line_pair", 1: "double_line"}[self.rank(eps)]

    # ----- polarity -----------------------------------------------------

    def dual(self, eps: float = DEFAULT_EPS) -> "Conic":
        """The conic of tangent lines, via the adjugate form.

        ``eps`` only decides whether the conic counts as degenerate; the dual
        itself does not depend on it, so it is built once per conic.
        """
        if self.is_degenerate(eps):
            raise DegenerateConic("degenerate conic has no dual conic")
        return self._dual

    @lazy
    def _dual(self) -> "Conic":
        return Conic.from_matrix(self.adjugate)

    def polar(self, p: HPoint) -> HLine:
        raw = matvec3(self.gram, p.coords)
        if all(v == 0 for v in raw):
            raise DegenerateConic(f"{p} is a singular point of the conic")
        return HLine(*raw)

    def pole(self, l: HLine, eps: float = DEFAULT_EPS) -> HPoint:
        if self.is_degenerate(eps):
            raise DegenerateConic("pole is only defined for a nondegenerate conic")
        return HPoint(*matvec3(self.adjugate, l.coords))

    def center(self, eps: float = DEFAULT_EPS) -> HPoint:
        """The pole of the line at infinity, ``pole(LINE_AT_INFINITY, eps)``:
        the centre of an ellipse or hyperbola, and for a parabola its axis
        direction, a point at infinity.

        ``pole``'s degeneracy check runs on every call; the point itself
        does not depend on ``eps``, so like the dual it is built once per
        conic.  A chain's first step and ``find_point_on_conic`` read it.
        """
        if self.is_degenerate(eps):
            raise DegenerateConic("pole is only defined for a nondegenerate conic")
        return self._center

    @lazy
    def _center(self) -> HPoint:
        return HPoint(*matvec3(self.adjugate, LINE_AT_INFINITY.coords))

    def is_tangent(self, l: HLine, eps: float = DEFAULT_EPS) -> bool:
        """Whether the line meets the conic in a single doubled point."""
        adj = self.adjugate
        return _form_zero(adj, lambda: _frob(adj), l.coords, eps)

    def transformed(self, m: ProjectiveMap) -> "Conic":
        """Image conic under the projectivity (push-forward of the zero set)."""
        inv = adjugate3(m.matrix)
        return Conic.from_matrix(matmul3(transpose3(inv), matmul3(self.gram, inv)))


def scaled_for_floats(conic: Conic) -> Conic:
    """``conic``, or for an exact conic with a coefficient past
    ``scalars.FLOAT_BITS`` bits, the float conic of its integer tuple
    divided by one power of two (``scalars.float_scaled``): the same conic,
    whose Gram norm and forms at float points stay finite.  Float work on
    an arbitrary conic (``poncelet.find_point_on_conic`` and
    ``poncelet.spread_on_conic``) takes it first; every other conic is
    returned as it is, so its floats keep their bits.
    """
    coeffs = float_scaled(conic.coeffs)
    return conic if coeffs is conic.coeffs else Conic(*coeffs)


def _frob(m) -> float:
    total = 0
    for row in m:
        for v in row:
            total += float(v) ** 2
    return math.sqrt(total)


def _form_zero(m, norm: Callable[[], float], coords, eps: float) -> bool:
    """Whether the quadratic form of ``m`` vanishes at ``coords``, relative
    to the form's Frobenius ``norm()`` and ``|coords|^2`` in float mode.

    ``coords`` are canonical: integers, not all zero, or floats with an entry of
    exactly +-1.0.  So ``|coords|^2 >= 1``, and a float value within
    ``eps * norm()`` is zero without the coordinate norm.  The form is
    ``matvec3`` and ``dot`` written out, in their ``0 + ...`` order.
    """
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m
    x, y, z = coords
    value = (0 + x * (0 + m00 * x + m01 * y + m02 * z)
             + y * (0 + m10 * x + m11 * y + m12 * z)
             + z * (0 + m20 * x + m21 * y + m22 * z))
    if not isinstance(value, float):
        return value == 0
    scale = norm()
    if abs(value) <= eps * max(scale, 1e-300):
        return True
    return near_zero(value, scale * row_norm(coords) ** 2, eps)


# ----- line and conic intersections ------------------------------------


def _quadratic_root_pairs(a: Scalar, b: Scalar, c: Scalar):
    """Exact projective roots (lam : mu) of a lam^2 + 2 b lam mu + c mu^2 = 0.

    The exact half of ``_meet_coords``'s root pair, on integer or rational
    coefficients: a list of one pair for a double root, two pairs for
    distinct roots, empty for no real roots.  Raises ``LineOnConic`` when
    the form vanishes identically and ``IrrationalResult`` when the roots
    exist but are not rational.
    """
    if a == 0 and b == 0 and c == 0:
        raise LineOnConic("every point of the line lies on the conic")
    if a == 0:
        if b == 0:
            return [(1, 0)]
        return [(1, 0), (Fraction(c), Fraction(-2 * b))]
    disc = b * b - a * c
    if disc < 0:
        return []
    root = exact_sqrt(disc)
    if root is None:
        raise IrrationalResult(
            "intersection exists but has irrational coordinates; "
            "use float inputs to get a numeric answer"
        )
    if root == 0:
        return [(Fraction(-b), Fraction(a))]
    return [(-b + root, Fraction(a)), (-b - root, Fraction(a))]


def _meet_coords(conic: Conic, line: Sequence[Scalar], eps: float):
    """Raw coordinate triples of the real points where the conic meets the
    line of coordinates ``line``, for the caller to canonicalize once.

    One frame, which every tangent construction of a chain step runs, so
    its three parts are written out rather than called:

    - The spanning points ``u, v`` of the line are its cross products with
      the basis, the first two in decreasing norm (ties in basis order, as
      ``sorted(..., reverse=True)`` keeps them).  Each is the literal
      expression ``cross`` evaluates (``l1*0 - l2*0``, ``l2*1 - l0*0``,
      ...), which keeps the sign of every zero and the type of every
      entry; its norm is the root of the two squared line entries it
      holds, the bits of ``row_norm``.  An exact line is ranked on its
      ``scalars.float_scaled`` copy, whose floats stay finite at any size.
      The two leading crosses are independent: their cross is the line
      times the entry the third cross leaves out, and a zero entry gives
      the cross that leaves it out the largest norm.
    - The pencil's quadratic ``a lam^2 + 2 b lam mu + c mu^2`` takes the
      Gram forms of ``u, v``: ``matvec3`` and ``dot`` on the unpacked
      ``conic.gram``, in their ``0 + a0*b0 + a1*b1 + a2*b2`` order, so
      every float keeps its last bit.
    - Exact coefficients go to ``_quadratic_root_pairs``.  Float ones are
      solved here with ``near_zero``'s test ``abs(x) <= eps * max(scale,
      1e-300)`` written out: the form vanishes on the line (``LineOnConic``)
      below ``conic.gram_norm |u| |v|``, read only here, so an exact conic
      past float range never makes a float norm.  The larger of ``|a|``
      and ``|c|`` leads, by swapping ``u`` with ``v``.
    """
    l0, l1, l2 = line
    c0 = (l1 * 0 - l2 * 0, l2 * 1 - l0 * 0, l0 * 0 - l1 * 1)
    c1 = (l1 * 0 - l2 * 1, l2 * 0 - l0 * 0, l0 * 1 - l1 * 0)
    c2 = (l1 * 1 - l2 * 0, l2 * 0 - l0 * 1, l0 * 0 - l1 * 0)
    if type(l0) is float:
        x, y, z = l0, l1, l2
    else:
        x, y, z = map(float, float_scaled(line))
    q0, q1, q2 = x * x, y * y, z * z
    n0, n1, n2 = math.sqrt(q2 + q1), math.sqrt(q2 + q0), math.sqrt(q1 + q0)
    if n0 >= n1:
        ranked = (n0, c0, n1, c1) if n1 >= n2 else ((n0, c0, n2, c2) if n0 >= n2 else (n2, c2, n0, c0))
    else:
        ranked = (n1, c1, n0, c0) if n0 >= n2 else ((n1, c1, n2, c2) if n1 >= n2 else (n2, c2, n1, c1))
    nu, (u0, u1, u2), nv, (v0, v1, v2) = ranked
    (g00, g01, g02), (g10, g11, g12), (g20, g21, g22) = conic.gram
    h0 = 0 + g00 * v0 + g01 * v1 + g02 * v2
    h1 = 0 + g10 * v0 + g11 * v1 + g12 * v2
    h2 = 0 + g20 * v0 + g21 * v1 + g22 * v2
    a = (0 + u0 * (0 + g00 * u0 + g01 * u1 + g02 * u2)
         + u1 * (0 + g10 * u0 + g11 * u1 + g12 * u2)
         + u2 * (0 + g20 * u0 + g21 * u1 + g22 * u2))
    b = 0 + u0 * h0 + u1 * h1 + u2 * h2
    c = 0 + v0 * h0 + v1 * h1 + v2 * h2
    if type(a) is not float:
        pairs = _quadratic_root_pairs(a, b, c)
    else:
        magnitude = max(abs(a), abs(b), abs(c))
        if magnitude <= eps * max(conic.gram_norm * nu * nv, 1e-300):
            raise LineOnConic("every point of the line lies on the conic")
        if abs(a) < abs(c):
            # a root (lam : mu) of (c, b, a) is the root (mu : lam) of (a, b, c)
            a, c, u0, u1, u2, v0, v1, v2 = c, a, v0, v1, v2, u0, u1, u2
        small = eps * max(magnitude, 1e-300)
        if abs(a) <= small:
            # the conic essentially passes through u, simply: |c| <= |a|, so
            # for eps < 1 the magnitude is |b|, above ``small``
            pairs = ((1.0, 0.0), (c, -2.0 * b))
        else:
            disc = b * b - a * c
            if abs(disc) <= eps * max(b * b, abs(a * c), 1e-300):
                pairs = ((-b, a),)
            elif disc < 0:
                pairs = ()
            else:
                root = math.sqrt(disc)
                if b == 0.0:
                    pairs = ((root, a), (-root, a))
                else:
                    q = -(b + math.copysign(root, b))
                    pairs = ((q, a), (c, q))
    meets = []
    for lam, mu in pairs:
        meets.append((lam * u0 + mu * v0, lam * u1 + mu * v1, lam * u2 + mu * v2))
    return meets


def intersect_line(conic: Conic, l: HLine, eps: float = DEFAULT_EPS) -> Tuple[HPoint, ...]:
    """Real intersection points of a conic and a line.

    Two points for a proper chord, one for a tangent line, none when the
    line misses the conic.  In exact mode an intersection at irrational
    coordinates raises ``IrrationalResult`` rather than approximating.
    ``eps`` must lie in (0, 1), the range scenes and the CLI enforce.
    """
    return tuple([HPoint(*coords) for coords in _meet_coords(conic, l.coords, eps)])


def tangent_lines_from(conic: Conic, p: HPoint, eps: float = DEFAULT_EPS) -> Tuple[HLine, ...]:
    """Tangent lines to a nondegenerate conic through a given point.

    Two lines from an exterior point, one from a point on the conic, none
    from an interior point.  Works in the dual plane: lines through ``p``
    form a line with coordinates ``p``, which is met with the dual conic.
    ``p.coords`` is already canonical and canonicalization is idempotent,
    so each tangent is canonicalized once, straight from the raw meet.
    ``eps`` must lie in (0, 1), as for ``intersect_line``.
    """
    return tuple([HLine(*coords) for coords in _meet_coords(conic.dual(eps), p.coords, eps)])


# ----- six points on a conic --------------------------------------------


def _dedupe(items: Sequence, eps: float) -> list:
    """The items less any that coincide with an earlier one, in input order.

    Exact items coincide exactly when their canonical ``coords`` are equal,
    so one dict pass keyed by ``coords`` keeps each first occurrence; any
    other list takes the pairwise tolerance test of ``coincident``.
    """
    if all_exact_items(items):
        first = {}
        for item in items:
            first.setdefault(item.coords, item)
        return list(first.values())
    kept = []
    for item in items:
        if not any(coincident(item, seen, eps) for seen in kept):
            kept.append(item)
    return kept


def _distinct(items: Sequence, n: int, what: str, eps: float, exc=DuplicatePoints) -> list:
    """The ``n`` items as a list, after the input gate of the six-item tests
    and the five-point fit: ``ValueError(what)`` on a wrong count, ``exc``
    when two items coincide.  ``coincident`` is symmetric, so no pair
    coincides exactly when ``_dedupe`` keeps all ``n``; only a failure runs
    the pairwise scan, in lexicographic order, to name the first pair."""
    items = list(items)
    if len(items) != n:
        raise ValueError(what)
    if len(_dedupe(items, eps)) == n:
        return items
    for i in range(n):
        for j in range(i + 1, n):
            if coincident(items[i], items[j], eps):
                raise exc(f"inputs {i} and {j} coincide: {items[i]}")


def veronese_residual(coord_rows: Sequence[Sequence[Scalar]], eps: float):
    r = normalized_det([veronese(c) for c in coord_rows])
    return r, is_zero(r, eps, lambda: 1.0)


def _bracket_parts(p1, p2, p3, p4, p5):
    """The brackets ``[ijk] = det(pi, pj, pk)`` of ``det V(p1, ..., p5, x)``.

    Returns ``(a, l23, l45, b, l24, l35)``: the lines ``lij = pi x pj``, so
    that ``[ijx] = lij . x``, and the products ``a = [124][135]`` and
    ``b = [123][145]`` of their values at ``p1``.  Each bracket is computed
    once, as a line through two of ``p2, ..., p5`` dotted with a point.
    """
    l23, l45, l24, l35 = cross(p2, p3), cross(p4, p5), cross(p2, p4), cross(p3, p5)
    return dot(l24, p1) * dot(l35, p1), l23, l45, dot(l23, p1) * dot(l45, p1), l24, l35


def _bracket_conic(a, l23, l45, b, l24, l35) -> Optional[Conic]:
    """The bracket conic ``a [23x][45x] - b [24x][35x]`` of ``_bracket_parts``,
    or None when all six of its coefficients vanish."""
    u0, u1, u2 = l23
    v0, v1, v2 = l45
    s0, s1, s2 = l24
    t0, t1, t2 = l35
    coeffs = (
        a * (u0 * v0) - b * (s0 * t0),
        a * (u0 * v1 + u1 * v0) - b * (s0 * t1 + s1 * t0),
        a * (u1 * v1) - b * (s1 * t1),
        a * (u0 * v2 + u2 * v0) - b * (s0 * t2 + s2 * t0),
        a * (u1 * v2 + u2 * v1) - b * (s1 * t2 + s2 * t1),
        a * (u2 * v2) - b * (s2 * t2),
    )
    return Conic.from_coeffs(coeffs) if any(coeffs) else None


def _fit_five(pts: Sequence[HPoint], eps: float) -> Optional[Conic]:
    """The conic through five pairwise-distinct points, or None when they
    admit a pencil of conics (four of them collinear; on exact points also
    a repeated point, which the six-point hold-out loop can pass).

    Exact points have integer canonical coordinates, and their conic is the
    bracket conic ``det V(p1, ..., p5, x) = [124][135][23x][45x] -
    [123][145][24x][35x]``: the member through ``p1`` of the pencil through
    ``p2, ..., p5`` spanned by the line pairs ``(p2p3)(p4p5)`` and
    ``(p2p4)(p3p5)``.  It is the determinant of the five Veronese rows and
    the row of ``x``, so it vanishes identically exactly when the rows have
    rank below five.  Float points go through the nullspace ``_fit``.
    """
    if not all_exact_items(pts):
        try:
            return _fit(pts, eps)
        except NonUniqueConic:
            return None
    return _bracket_conic(*_bracket_parts(*[p.coords for p in pts]))


def _small_witness(distinct: Sequence[HPoint], eps: float) -> Optional[Conic]:
    """A degenerate conic through at most four distinct points."""
    if len(distinct) < 2:
        return None
    if collinear(distinct, eps):
        return Conic.from_double_line(join(distinct[0], distinct[1], eps))
    if len(distinct) == 3:
        return Conic.from_line_pair(
            join(distinct[0], distinct[1], eps), join(distinct[0], distinct[2], eps)
        )
    return Conic.from_line_pair(
        join(distinct[0], distinct[1], eps), join(distinct[2], distinct[3], eps)
    )


def _six_point_verdict(points: Sequence[HPoint], distinct: Sequence[HPoint], eps: float) -> Verdict:
    """Determinant verdict on six points, with its witness; ``distinct`` is
    ``_dedupe(points, eps)``, or ``points`` once they passed ``_distinct``.

    Exact points with five or six distinct take the bracket form of the
    Veronese determinant, ``det V = [124][135][236][456] -
    [123][145][246][356]`` (Pascal's theorem in brackets): it is the bracket
    conic through the first five points at the sixth, so one set of eight
    brackets gives the residual and the first witness.  Six distinct float
    points take ``veronese_residual`` and fit their first witness by
    ``_fit_five``.  A holding verdict whose first five points determine no
    conic takes the first five-subset that does, leaving out point 0, 1,
    ..., 4 in turn, and None when none does (a pencil).  Any other repeat
    makes the determinant vanish identically, so the verdict holds: the
    residual is the integer 0 on exact points and ``veronese_residual``'s on
    float ones, and the witness is ``_fit_five`` through five distinct
    points or a ``_small_witness``.
    """
    exact = all_exact_items(points)
    if len(distinct) == 6 or exact and len(distinct) == 5:
        if exact:
            coords = [p.coords for p in points]
            parts = a, l23, l45, b, l24, l35 = _bracket_parts(*coords[:5])
            p6 = coords[5]
            residual = a * dot(l23, p6) * dot(l45, p6) - b * dot(l24, p6) * dot(l35, p6)
            holds = residual == 0
            witness = _bracket_conic(*parts) if holds else None
        else:
            residual, holds = veronese_residual([p.coords for p in points], eps)
            witness = _fit_five(points[:5], eps) if holds else None
        if holds and witness is None:
            fits = (_fit_five([p for i, p in enumerate(points) if i != hold_out], eps) for hold_out in range(5))
            witness = next(filter(None, fits), None)
    else:
        residual = 0 if exact else veronese_residual([p.coords for p in points], eps)[0]
        holds = True
        witness = _fit_five(distinct, eps) if len(distinct) == 5 else _small_witness(distinct, eps)
    degenerate = holds and (witness is None or witness.is_degenerate(eps))
    return Verdict(residual=residual, holds=holds, witness_conic=witness, degenerate=degenerate)


def dual_verdict(verdict: Verdict) -> Verdict:
    """Read a verdict on the dual points of six lines as one on the lines: the
    witness is the adjugate of the dual fit, or None when that is degenerate."""
    fit = verdict.witness_conic
    witness = None if verdict.degenerate or fit is None else Conic.from_matrix(fit.adjugate)
    return verdict.replace(witness_conic=witness)


def conconic(points: Sequence[HPoint], eps: float = DEFAULT_EPS) -> Verdict:
    """Whether six pairwise-distinct points all lie on one conic.

    The determinant of the stacked Veronese images vanishes exactly when
    some conic passes through all six points; the witness conic is fitted
    through the first five points whenever the verdict holds.
    """
    pts = _distinct(points, 6, "the conconicity test needs exactly six points", eps)
    return _six_point_verdict(pts, pts, eps)


def cotangent(lines: Sequence[HLine], eps: float = DEFAULT_EPS) -> Verdict:
    """Whether six pairwise-distinct lines all touch one conic.

    Works on the coefficient triples as points of the dual plane; when the
    verdict holds and the dual fit is nondegenerate, the witness is its
    adjugate, a conic tangent to all six lines.
    """
    ls = _distinct(lines, 6, "the cotangency test needs exactly six lines", eps, exc=DuplicateLine)
    duals = [_dual_point(l) for l in ls]
    return dual_verdict(_six_point_verdict(duals, duals, eps))


def conic_through_points(points: Sequence[HPoint], eps: float = DEFAULT_EPS) -> Conic:
    """The conic through five points in general position.

    Three collinear points force a degenerate (line-pair) result, which is
    returned as such.  Raises ``NonUniqueConic`` when the points admit a
    whole pencil of conics (four or more collinear) and ``DuplicatePoints``
    on repeats.
    """
    return _fit(_distinct(points, 5, "a conic fit needs exactly five points", eps), eps)


def _fit(pts: Sequence[HPoint], eps: float) -> Conic:
    """``conic_through_points`` on five points that passed the gate."""
    rows = [veronese(p.coords) for p in pts]
    if not all_exact_items(pts):
        rows = [tuple(v / n for v in row) for row, n in zip(rows, map(row_norm, rows))]
    basis = nullspace(rows, 6, eps)
    if len(basis) != 1:
        raise NonUniqueConic(f"five points admit a {len(basis)}-dimensional family of conics")
    return Conic.from_coeffs(basis[0])


def conconic_by_fit(points: Sequence[HPoint], eps: float = DEFAULT_EPS) -> bool:
    """Six-point test by fitting a conic to five points and testing the sixth.

    An independent route to the same answer as ``conconic``; kept separate
    on purpose so the two implementations can cross-validate each other.
    """
    pts = _distinct(points, 6, "the conconicity test needs exactly six points", eps)
    last_error: Optional[Exception] = None
    for hold_out in range(6):
        five = [p for i, p in enumerate(pts) if i != hold_out]
        try:
            fitted = _fit(five, eps)
        except NonUniqueConic as err:
            last_error = err
            continue
        return fitted.contains(pts[hold_out], eps)
    raise NonUniqueConic(
        "every five-point subset is degenerate; the six points lie on a pencil"
    ) from last_error


# ----- classical incidence cross-checks ----------------------------------


def pascal_collinear(points: Sequence[HPoint], eps: float = DEFAULT_EPS) -> bool:
    """Whether the three opposite-side meets of the hexagon are collinear.

    For a hexagon inscribed in a conic this always holds; on six generic
    points it fails, which makes it usable as an independent conconicity
    check.
    """
    pts = _distinct(points, 6, "a hexagon needs exactly six vertices", eps)
    sides = [join(pts[i], pts[(i + 1) % 6], eps) for i in range(6)]
    meets = [meet(sides[i], sides[i + 3], eps) for i in range(3)]
    return collinear(meets, eps)


def brianchon_concurrent(lines: Sequence[HLine], eps: float = DEFAULT_EPS) -> bool:
    """Whether the three main diagonals of the hexagon of lines concur.

    For six tangents of one conic this always holds; it is the dual
    counterpart of the hexagon test on points.
    """
    ls = _distinct(lines, 6, "a hexagon needs exactly six sides", eps, exc=DuplicateLine)
    vertices = [meet(ls[i], ls[(i + 1) % 6], eps) for i in range(6)]
    diagonals = [join(vertices[i], vertices[i + 3], eps) for i in range(3)]
    return concurrent(diagonals, eps)
