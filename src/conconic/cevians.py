"""Cevian configurations and the four equivalent conconicity conditions.

A configuration is a triangle ABC with two triples of cevians AA1/BB1/CC1
and AA2/BB2/CC2, given by their feet on the opposite sides.  From those the
pairwise meets within each triple (X, Y, Z with index 1 and 2) and the
three cross meets

    U1 = BB1 x CC2,   V1 = CC1 x AA2,   W1 = AA1 x BB2

are derived.  The four condition predicates are

    outer6    -- the six feet lie on one conic,
    inner6    -- the six X/Y/Z points lie on one conic,
    tangent6  -- the six cevian lines touch one conic,
    concurrent -- AU1, BV1, CW1 pass through one point,

and in exact arithmetic they are provably equivalent; a disagreement of the
four booleans on exact input is a hard internal-consistency failure, never
a legitimate answer.

The module also places feet at side parameters (the foot at t on the
side with endpoints (P, Q) is P + t (Q - P)), and provides the classical
cevian generators (isogonal and isotomic conjugation of feet, cevians
through a common point), a solver that completes five feet to a conconic
sextuple (the inverse of the side-parameter rule, through a conic), and
the normalized chart that reduces the concurrency condition to a
one-parameter comparison p = q.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .conics import _dedupe, _distinct, _fit_five, _six_point_verdict, dual_verdict, intersect_line
from .errors import (
    ChartDegenerate,
    CoincidentCevians,
    CoincidentLines,
    DegenerateQuadruple,
    DegenerateTriangle,
    DuplicatePoints,
    FootOffSide,
    LineOnConic,
    NoRealSolution,
    PointAtVertex,
    PointOnSide,
    SideOnConic,
    TheoremConsistencyError,
)
from .linalg import cross, dot, row_norm
from .projective import (
    HLine,
    HPoint,
    Record,
    Verdict,
    _dual_point,
    _frame_matrix,
    _map_between_frames,
    all_exact_items,
    coincident,
    collinear,
    concurrency,
    incident,
    join,
    lazy,
    meet,
)
from .scalars import DEFAULT_EPS, Scalar, div, is_exact, is_zero

FeetTriple = Tuple[HPoint, HPoint, HPoint]

SIDES = ("BC", "CA", "AB")
CONDITION_NAMES = ("outer6", "inner6", "tangent6", "concurrent")


class Triangle(Record):
    """Three non-collinear vertices."""

    A: HPoint
    B: HPoint
    C: HPoint

    def __post_init__(self):
        if collinear((self.A, self.B, self.C)):
            raise DegenerateTriangle("triangle vertices are collinear")

    @lazy
    def exact(self) -> bool:
        """Whether all three vertices are exact, read once per triangle."""
        return all_exact_items((self.A, self.B, self.C))

    @property
    def vertices(self) -> Tuple[HPoint, HPoint, HPoint]:
        return (self.A, self.B, self.C)

    @lazy
    def sides(self) -> Tuple[HLine, HLine, HLine]:
        """The side lines in ``SIDES`` order, joined once per triangle."""
        return tuple(join(*self.side_endpoints(side)) for side in SIDES)

    def side_line(self, side: str) -> HLine:
        return self.sides[_side_index(side)]

    def side_endpoints(self, side: str) -> Tuple[HPoint, HPoint]:
        i = _side_index(side)
        return self.vertices[(i + 1) % 3], self.vertices[(i + 2) % 3]


def _side_index(side: str) -> int:
    """The position of a side name in ``SIDES``, after the one name check."""
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}")
    return SIDES.index(side)


class CevianFeet(Record):
    """Six cevian feet: A-feet on BC, B-feet on CA, C-feet on AB."""

    A1: HPoint
    A2: HPoint
    B1: HPoint
    B2: HPoint
    C1: HPoint
    C2: HPoint

    @classmethod
    def from_triples(cls, first: FeetTriple, second: FeetTriple) -> "CevianFeet":
        """Build from two (foot on BC, foot on CA, foot on AB) triples."""
        return cls(
            A1=first[0], A2=second[0],
            B1=first[1], B2=second[1],
            C1=first[2], C2=second[2],
        )

    @property
    def outer(self) -> Tuple[HPoint, ...]:
        return (self.A1, self.A2, self.B1, self.B2, self.C1, self.C2)

    def triple(self, which: int) -> FeetTriple:
        if which == 1:
            return (self.A1, self.B1, self.C1)
        if which == 2:
            return (self.A2, self.B2, self.C2)
        raise ValueError("triple index must be 1 or 2")


class CevianConfig(Record):
    """A triangle, six feet, the six cevian lines in the order (AA1, BB1,
    CC1, AA2, BB2, CC2), and all nine derived intersection points."""

    triangle: Triangle
    feet: CevianFeet
    cevians: Tuple[HLine, HLine, HLine, HLine, HLine, HLine]
    X1: HPoint
    Y1: HPoint
    Z1: HPoint
    X2: HPoint
    Y2: HPoint
    Z2: HPoint
    U1: HPoint
    V1: HPoint
    W1: HPoint

    @lazy
    def exact(self) -> bool:
        """Whether the triangle and all six feet are exact, read once per
        configuration."""
        return self.triangle.exact and all_exact_items(self.feet.outer)

    @property
    def inner_points(self) -> Tuple[HPoint, ...]:
        return (self.X1, self.X2, self.Y1, self.Y2, self.Z1, self.Z2)


def _check_foot(foot: HPoint, side: int, tri: Triangle, corners, eps: float, off: str, at: str) -> None:
    """Raise ``FootOffSide`` (naming the foot as ``off`` or ``at``) unless the
    foot sits on the side line ``tri.sides[side]`` and away from the vertices
    A, B, C, tested in that order.

    ``corners`` is the vertices' triples on an exact triangle and None on
    any other.  An exact foot there is decided on its integer triple by the
    rules ``incident`` and ``coincident`` apply to exact items: it is on the
    line when its dot product with the line is 0, and at a vertex when its
    canonical triple is that vertex's.  Any other foot takes their
    tolerance tests.
    """
    line = tri.sides[side]
    f = foot.coords
    if corners is not None and type(f[0]) is int:
        l0, l1, l2 = line.coords
        if f[0] * l0 + f[1] * l1 + f[2] * l2:
            raise FootOffSide(f"{off} does not lie on side {SIDES[side]}")
        if f in corners:
            raise FootOffSide(f"{at} coincides with vertex {'ABC'[corners.index(f)]}")
        return
    if not incident(foot, line, eps):
        raise FootOffSide(f"{off} does not lie on side {SIDES[side]}")
    for vertex, vname in zip(tri.vertices, "ABC"):
        if coincident(foot, vertex, eps):
            raise FootOffSide(f"{at} coincides with vertex {vname}")


def _corners(tri: Triangle):
    """The vertex triples that ``_check_foot`` takes: on an exact triangle
    ``(A, B, C)``'s canonical triples, on any other None."""
    return (tri.A.coords, tri.B.coords, tri.C.coords) if tri.exact else None


# each foot's side index in SIDES and its name in messages, in CevianFeet.outer order
_FEET = tuple(("ABC".index(name[0]), f"foot {name}") for name in ("A1", "A2", "B1", "B2", "C1", "C2"))


def validate_feet(tri: Triangle, feet: CevianFeet, eps: float = DEFAULT_EPS) -> None:
    """Check every foot sits on its side line and away from the vertices, in
    the order A1, A2, B1, B2, C1, C2, by ``_check_foot``: the vertex
    triples are read once, and exact feet on an exact triangle are decided
    by tuple tests."""
    corners = _corners(tri)
    for foot, (side, name) in zip(feet.outer, _FEET):
        _check_foot(foot, side, tri, corners, eps, name, name)


def _cevian_meet(l: HLine, m: HLine, label: str, eps: float) -> HPoint:
    try:
        return meet(l, m, eps)
    except CoincidentLines:
        raise CoincidentCevians(f"cevians defining {label} coincide") from None


def build_config(tri: Triangle, feet: CevianFeet, eps: float = DEFAULT_EPS) -> CevianConfig:
    """Derive the full configuration from a triangle and validated feet."""
    validate_feet(tri, feet, eps)
    cevians = tuple(join(v, f) for v, f in zip(tri.vertices * 2, feet.triple(1) + feet.triple(2)))
    aa1, bb1, cc1, aa2, bb2, cc2 = cevians
    return CevianConfig(
        triangle=tri,
        feet=feet,
        cevians=cevians,
        X1=_cevian_meet(bb1, cc1, "X1", eps),
        Y1=_cevian_meet(aa1, cc1, "Y1", eps),
        Z1=_cevian_meet(aa1, bb1, "Z1", eps),
        X2=_cevian_meet(bb2, cc2, "X2", eps),
        Y2=_cevian_meet(aa2, cc2, "Y2", eps),
        Z2=_cevian_meet(aa2, bb2, "Z2", eps),
        U1=_cevian_meet(bb1, cc2, "U1", eps),
        V1=_cevian_meet(cc1, aa2, "V1", eps),
        W1=_cevian_meet(aa1, bb2, "W1", eps),
    )


# ----- the four condition predicates --------------------------------------


class ConditionReport(Record):
    """The four condition verdicts for one configuration."""

    outer6: Verdict
    inner6: Verdict
    tangent6: Verdict
    concurrent: Verdict

    @property
    def named(self) -> Tuple[Tuple[str, Verdict], ...]:
        """The (name, verdict) pairs in ``CONDITION_NAMES`` order."""
        return tuple((name, getattr(self, name)) for name in CONDITION_NAMES)

    @property
    def booleans(self) -> Tuple[bool, bool, bool, bool]:
        return tuple(verdict.holds for _, verdict in self.named)

    @property
    def agree(self) -> bool:
        return len(set(self.booleans)) == 1

    @property
    def all_hold(self) -> bool:
        return all(self.booleans)


def check_conditions(cfg: CevianConfig, eps: float = DEFAULT_EPS) -> ConditionReport:
    """Evaluate the four equivalent conditions on one configuration.

    On exact input with all six feet, inner points, and cevian lines
    pairwise distinct, the four booleans must agree; a disagreement there
    means the implementation itself is broken and raises
    ``TheoremConsistencyError`` rather than returning an untrustworthy
    report.  When points or lines coincide (e.g. a triple of concurrent
    cevians collapses its inner points, or both triples pass through fixed
    points) some conditions become trivially true while others can still
    fail; the equivalence does not apply to such collapsed inputs, so the
    verdicts are reported as computed without the consistency assertion.

    Each six-item condition is ``conics._six_point_verdict`` on the items
    and their ``_dedupe``, without the distinctness gate of ``conconic``: a
    repeated item (for tangent6, a shared cevian) makes it hold identically.
    """
    tri = cfg.triangle
    # a line and its dual point share coordinates, so they coincide alike
    sextuples = [
        (points, _dedupe(points, eps))
        for points in (cfg.feet.outer, cfg.inner_points, [_dual_point(l) for l in cfg.cevians])
    ]
    outer6 = _six_point_verdict(*sextuples[0], eps)
    inner6 = _six_point_verdict(*sextuples[1], eps)
    tangent6 = dual_verdict(_six_point_verdict(*sextuples[2], eps))
    report = ConditionReport(
        outer6=outer6,
        inner6=inner6,
        tangent6=tangent6,
        concurrent=concurrency(join(tri.A, cfg.U1), join(tri.B, cfg.V1), join(tri.C, cfg.W1), eps),
    )
    duplicate_free = all(len(distinct) == 6 for _, distinct in sextuples)
    if cfg.exact and duplicate_free and not report.agree:
        raise TheoremConsistencyError(
            f"the four equivalent conditions disagree on exact input: {report.booleans}",
            verdicts=report,
        )
    return report


# ----- conjugate feet generators ------------------------------------------


def _at_infinity(p: HPoint, eps: float) -> bool:
    """Whether ``p`` lies at infinity (in float mode: whether its last
    coordinate is below ``eps`` relative to its norm)."""
    return is_zero(p.coords[2], eps, lambda: row_norm(p.coords))


def _affine_coordinate(p: HPoint, i: int, eps: float) -> Optional[Scalar]:
    """Affine coordinate ``i`` of ``p`` (0 for x, 1 for y), or None when it
    lies at infinity; the other coordinate is not divided."""
    return None if _at_infinity(p, eps) else div(p.coords[i], p.coords[2])


def _affine_triple(p: HPoint, what: str) -> Tuple[Scalar, Scalar, Scalar]:
    if p.at_infinity:
        raise ValueError(f"{what} must be a finite point")
    x, y = p.to_xy()
    return (x, y, 1 if p.exact else 1.0)


def _side_weights(foot: HPoint, p: Tuple, q: Tuple) -> Tuple[Scalar, Scalar]:
    """Weights (y, z) with foot = y*p + z*q for affine-normalized p, q."""
    n = cross(p, q)
    pivot = max(range(3), key=lambda i: abs(float(n[i])))
    y = div(cross(foot.coords, q)[pivot], n[pivot])
    z = div(cross(p, foot.coords)[pivot], n[pivot])
    return y, z


def _combine(w1: Scalar, p: Tuple, w2: Scalar, q: Tuple) -> HPoint:
    return HPoint(*(w1 * a + w2 * b for a, b in zip(p, q)))


def _scaled_sq_distance(u: Tuple, v: Tuple) -> Scalar:
    """``(u0 vz - v0 uz)^2 + (u1 vz - v1 uz)^2``: the squared distance of the
    affine points of u and v times (uz vz)^2."""
    return (u[0] * v[2] - v[0] * u[2]) ** 2 + (u[1] * v[2] - v[1] * u[2]) ** 2


def _scaled_one(u: Tuple, v: Tuple) -> Scalar:
    """``(uz vz)^2``, the isotomic counterpart of ``_scaled_sq_distance``."""
    return (u[2] * v[2]) ** 2


def _conjugate_feet(tri: Triangle, triple: FeetTriple, eps: float, weight) -> FeetTriple:
    """Feet under the weighted swap of barycentric side weights.

    ``weight(U, V)`` is the weight of the side UV, scaled by (uz vz)^2.  One
    rule serves every side and both backends: a foot F on side (P, Q) with
    opposite vertex R has weights (r, s) with F ~ r P + s Q, and its image
    is ``weight(Q, R) s P + weight(P, R) r Q``.  Exact input stays in
    integers: with N = P x Q (the side line up to scale) and any k with
    N[k] != 0, r = (F x Q)[k] and s = (P x F)[k].  Otherwise P and Q are
    affine-normalized and ``_side_weights`` solves for (r, s).
    """
    corners = _corners(tri)
    for side, foot in enumerate(triple):
        _check_foot(foot, side, tri, corners, eps, "foot", f"foot on {SIDES[side]}")
    exact = tri.exact and all_exact_items(triple) and all(v.z for v in tri.vertices)
    if exact:
        a, b, c = (v.coords for v in tri.vertices)
    else:
        a, b, c = (_affine_triple(v, "triangle vertex") for v in tri.vertices)
    out = []
    for foot, (p, q, o), line in zip(triple, ((b, c, a), (c, a, b), (a, b, c)), tri.sides):
        if exact:
            f, n = foot.coords, line.coords
            k = 0 if n[0] else 1 if n[1] else 2
            r, s = cross(f, q)[k], cross(p, f)[k]
        else:
            r, s = _side_weights(foot, p, q)
        out.append(_combine(weight(q, o) * s, p, weight(p, o) * r, q))
    return tuple(out)


def isogonal_feet(tri: Triangle, triple: FeetTriple, eps: float = DEFAULT_EPS) -> FeetTriple:
    """Feet of the cevians obtained by reflecting each cevian across the
    angle bisector at its vertex.

    Computed by the rational rule on barycentric side weights: on BC the
    weights (y : z) map to (b2*z : c2*y) where a2, b2, c2 are the squared
    side lengths, and cyclically on the other sides.  This keeps exact
    inputs exact; the equivalent metric description (reflect the cevian
    direction across the bisector direction) needs square roots.
    """
    return _conjugate_feet(tri, triple, eps, _scaled_sq_distance)


def isotomic_feet(tri: Triangle, triple: FeetTriple, eps: float = DEFAULT_EPS) -> FeetTriple:
    """Feet reflected across the midpoint of their side (weights swapped)."""
    return _conjugate_feet(tri, triple, eps, _scaled_one)


def cevians_through_point(tri: Triangle, p: HPoint, eps: float = DEFAULT_EPS) -> FeetTriple:
    """Feet of the three cevians through one common point."""
    for vertex, vname in zip(tri.vertices, "ABC"):
        if coincident(p, vertex, eps):
            raise PointAtVertex(f"point coincides with vertex {vname}")
    for side, line in zip(SIDES, tri.sides):
        if incident(p, line, eps):
            raise PointOnSide(f"point lies on side line {side}")
    return tuple(meet(join(v, p, eps), line, eps) for v, line in zip(tri.vertices, tri.sides))


# ----- feet from side parameters ------------------------------------------


def foot_point(tri: Triangle, side: str, t: Scalar) -> HPoint:
    """The point P + t (Q - P) on the named side with endpoints (P, Q).

    On an exact triangle with finite endpoints and an exact t, the foot is
    the integer triple of ``_exact_foot``.
    """
    p, q = tri.side_endpoints(side)
    pz, qz = p.z, q.z
    if tri.exact and is_exact(t) and pz and qz:
        return _exact_foot(p.coords, q.coords, t)
    px, py = p.to_xy()
    qx, qy = q.to_xy()
    return HPoint(px + t * (qx - px), py + t * (qy - py), 1)


def _exact_foot(p: Tuple[int, int, int], q: Tuple[int, int, int], t) -> HPoint:
    """The foot at an exact t = n/d on the side from P = (p0, p1, pz) to
    Q = (q0, q1, qz), integer triples with pz and qz nonzero: the integer
    triple ``(d - n) qz P + n pz Q``."""
    p0, p1, pz = p
    q0, q1, qz = q
    n = t.numerator
    a, b = (t.denominator - n) * qz, n * pz
    return HPoint(a * p0 + b * q0, a * p1 + b * q1, a * pz + b * qz)


_RATIONAL_TYPES = frozenset((int, Fraction))


def feet_from_params(tri: Triangle, params: Sequence[Scalar]) -> CevianFeet:
    """Feet from six side parameters in the order (a1, b1, c1, a2, b2, c2).

    On an exact triangle with finite vertices and six ``int`` or
    ``Fraction`` parameters, the vertex triples are read once and every
    foot is ``_exact_foot``, the integer rule of ``foot_point``.  Any other
    input (float or mixed parameters, a vertex at infinity) takes
    ``foot_point`` foot by foot, with its values and errors.
    """
    if len(params) != 6:
        raise ValueError("six side parameters are required")
    if tri.exact and _RATIONAL_TYPES.issuperset(map(type, params)):
        a, b, c = tri.A.coords, tri.B.coords, tri.C.coords
        if a[2] and b[2] and c[2]:
            a1, b1, c1, a2, b2, c2 = params
            return CevianFeet(
                _exact_foot(b, c, a1), _exact_foot(b, c, a2),
                _exact_foot(c, a, b1), _exact_foot(c, a, b2),
                _exact_foot(a, b, c1), _exact_foot(a, b, c2),
            )
    first = tuple(foot_point(tri, side, t) for side, t in zip(SIDES, params[:3]))
    second = tuple(foot_point(tri, side, t) for side, t in zip(SIDES, params[3:]))
    return CevianFeet.from_triples(first, second)


# ----- completing five feet to a conconic sextuple -------------------------


def solve_sixth_foot(
    tri: Triangle,
    five_feet: Sequence[HPoint],
    side: str,
    eps: float = DEFAULT_EPS,
) -> Tuple[HPoint, ...]:
    """Feet on ``side`` completing five feet to a conconic sextuple.

    The sixth foot lies on the conic through the five, so the feet are the
    real meets of that conic with the side line, ordered by their parameter
    t along the side (the point P + t (Q - P) for endpoints (P, Q)); points
    at infinity and the side's endpoints are not valid feet and are left
    out.  ``SideOnConic`` means every foot works: the five feet repeat a
    foot or admit a pencil of conics, or the conic through them contains
    the side (``intersect_line`` raises ``LineOnConic``, in float mode when
    the conic vanishes on the side up to ``eps``).  ``NoRealSolution``
    means the conic meets the side line in no real finite point; exact feet
    that would be irrational raise ``IrrationalResult``.
    """
    ends = tri.side_endpoints(side)
    p, q = (_affine_triple(v, "side endpoint") for v in ends)
    try:
        five = _distinct(five_feet, 5, "exactly five fixed feet are required", eps)
        conic = _fit_five(five, eps)  # None for a pencil
        if conic is None:
            raise LineOnConic("five feet admit a pencil of conics")
        roots = intersect_line(conic, tri.side_line(side), eps)
    except (DuplicatePoints, LineOnConic):
        raise SideOnConic(
            f"five feet already force a conic containing side {side}; "
            "every foot satisfies the determinant"
        ) from None
    finite = [r for r in roots if not _at_infinity(r, eps)]
    if not finite:
        raise NoRealSolution(f"the conic through the five feet meets side {side} in no real point")
    feet = []
    for root in finite:
        if any(coincident(root, v, eps) for v in ends):
            continue  # the root sits on a vertex, which is not a valid foot
        y, z = _side_weights(root, p, q)  # root = y p + z q, so t = z / (y + z)
        feet.append((div(z, y + z), root))
    return tuple(root for _, root in sorted(feet, key=lambda tf: tf[0]))


# ----- the normalized chart ------------------------------------------------


class ProofChart(Record):
    """Coordinates of the configuration in the normalized chart.

    The chart sends B and C to infinity (so both cevian triples become
    pairs of parallel line families), puts A at the origin, and scales the
    axes so the images of C1 and B2 land at (0, 1) and (1, 0).  Then

        image of B1 = (b1, 0),  image of C2 = (0, c2),
        image of U1 = (b1, c2), image of V1 = (b1/p, 1),
        image of W1 = (1, c2/q),

    and the concurrency condition holds exactly when p = q.  ``p`` or ``q``
    is None when the corresponding auxiliary point is at infinity in the
    chart; that situation is reported, not treated as an error.  Float
    charts compare p and q relative to their size, with tolerance ``eps``.
    """

    b1: Scalar
    c2: Scalar
    p: Optional[Scalar]
    q: Optional[Scalar]
    eps: float = DEFAULT_EPS

    @property
    def degenerate(self) -> bool:
        return self.p is None or self.q is None

    @property
    def criterion(self) -> bool:
        """The chart form of the concurrency condition."""
        p, q = self.p, self.q
        if self.degenerate:
            return p == q
        return is_zero(p - q, self.eps, lambda: max(abs(p), abs(q)))


# the frame matrix of the points where the float chart sends B, C, C1 and B2
_CHART_FRAME = _frame_matrix(((0, 1, 0), (1, 0, 0), (0, 1, 1), (1, 0, 1)), DEFAULT_EPS, "target")


def to_chart(cfg: CevianConfig, eps: float = DEFAULT_EPS) -> ProofChart:
    """Normalized-chart coordinates (b1, c2, p, q) of a configuration.

    The chart map sends (B, C, C1, B2) to the fixed frame ((0 : 1 : 0),
    (1 : 0 : 0), (0 : 1 : 1), (1 : 0 : 1)), so the line BC goes to
    infinity, BC1 (the side AB) to x = 0 and CB2 (the side CA) to y = 0.
    A float configuration takes ``_map_chart``, which builds that map.  On
    an exact one each chart value is a cross-ratio in the pencil of lines
    at B or at C, a quotient of integer 3x3 brackets [XYZ] = (X x Y) . Z:

        x(X) = [B C1 X] [B C B2] / ([B C1 B2] [B C X]),
        y(X) = [C B2 X] [B C C1] / ([C B2 C1] [B C X]),

        b1 = x(B1),  c2 = y(C2),  p = -y(P),  q = -x(Q)

    with P = AB x A2B1 and Q = CA x A1C2, each one ``Fraction``.  Before
    that the route tests the four brackets ``_frame_matrix`` tests, and a
    zero [B C X] is the point X at infinity in the chart, so the two routes
    give the same values, types and errors on every exact configuration.
    """
    if not cfg.exact:
        return _map_chart(cfg, eps)
    tri, feet = cfg.triangle, cfg.feet
    bc, ca, ab = (side.coords for side in tri.sides)  # BC up to scale, which cancels
    bc1 = cross(tri.B.coords, feet.C1.coords)
    cb2 = cross(tri.C.coords, feet.B2.coords)
    # the frame's brackets: [B C C1], [B C B2], [B C1 B2], [C B2 C1]
    bc_c1, bc_b2 = dot(bc, feet.C1.coords), dot(bc, feet.B2.coords)
    bc1_b2, cb2_c1 = dot(bc1, feet.B2.coords), dot(cb2, feet.C1.coords)
    if not (bc_c1 and bc_b2 and bc1_b2 and cb2_c1):
        raise ChartDegenerate("chart frame cannot be built: three of the four source points are collinear")
    bc_b1, bc_c2 = dot(bc, feet.B1.coords), dot(bc, feet.C2.coords)
    if not (bc_b1 and bc_c2):
        raise ChartDegenerate("a normalized foot escaped to infinity in the chart")
    b1 = Fraction(dot(bc1, feet.B1.coords) * bc_b2, bc1_b2 * bc_b1)
    c2 = Fraction(dot(cb2, feet.C2.coords) * bc_c1, cb2_c1 * bc_c2)

    point_p = cross(ab, cross(feet.A2.coords, feet.B1.coords))
    if not (point_p[0] or point_p[1] or point_p[2]):
        meet(tri.sides[2], join(feet.A2, feet.B1))  # raises the float route's error
    point_q = cross(ca, cross(feet.A1.coords, feet.C2.coords))
    if not (point_q[0] or point_q[1] or point_q[2]):
        meet(tri.sides[1], join(feet.A1, feet.C2))
    bc_p, bc_q = dot(bc, point_p), dot(bc, point_q)
    p = Fraction(-dot(cb2, point_p) * bc_c1, cb2_c1 * bc_p) if bc_p else None
    q = Fraction(-dot(bc1, point_q) * bc_b2, bc1_b2 * bc_q) if bc_q else None
    return ProofChart(b1=b1, c2=c2, p=p, q=q, eps=eps)


def _map_chart(cfg: CevianConfig, eps: float) -> ProofChart:
    """``to_chart`` by the chart map itself: the target frame matrix is
    built once at import; each call builds the source frame's and composes
    the two, as ``map_from_correspondence`` does.  Of each image it divides
    only the affine coordinate the chart keeps."""
    tri = cfg.triangle
    feet = cfg.feet
    try:
        source = _frame_matrix((tri.B.coords, tri.C.coords, feet.C1.coords, feet.B2.coords), eps, "source")
    except DegenerateQuadruple as err:
        raise ChartDegenerate(f"chart frame cannot be built: {err}") from None
    chart_map = _map_between_frames(source, _CHART_FRAME)

    b1 = _affine_coordinate(chart_map.apply(feet.B1), 0, eps)
    c2 = _affine_coordinate(chart_map.apply(feet.C2), 1, eps)
    if b1 is None or c2 is None:
        raise ChartDegenerate("a normalized foot escaped to infinity in the chart")

    _, ca, ab = tri.sides
    y_p = _affine_coordinate(chart_map.apply(meet(ab, join(feet.A2, feet.B1, eps), eps)), 1, eps)
    x_q = _affine_coordinate(chart_map.apply(meet(ca, join(feet.A1, feet.C2, eps), eps)), 0, eps)
    p = None if y_p is None else -y_p
    q = None if x_q is None else -x_q
    return ProofChart(b1=b1, c2=c2, p=p, q=q, eps=eps)
