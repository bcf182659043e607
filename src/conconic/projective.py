"""Points, lines, and projective maps of the real projective plane.

Coordinates are homogeneous triples over either exact rationals or floats.
Both ``HPoint`` and ``HLine`` canonicalize on construction, so equality up
to scale is ordinary equality of the stored triple.  Incidence follows the
usual conventions: a point (x : y : z) lies on a line (a : b : c) when
ax + by + cz = 0, the line at infinity is (0 : 0 : 1), and points with
z = 0 are directions.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from .errors import (
    CoincidentLines,
    CoincidentPoints,
    DegenerateQuadruple,
    DuplicateLine,
    DuplicatePoints,
    SingularMap,
)
from .linalg import adjugate3, det3, dot, matmul3, matvec3, normalized_det, row_norm, transpose3
from .scalars import DEFAULT_EPS, Scalar, all_exact, canonical_triple, div, is_zero

if TYPE_CHECKING:
    from .conics import Conic

Triple = Tuple[Scalar, Scalar, Scalar]


class _Frozen:
    """Base of the immutable values (points, lines, conics, records).  A
    subclass's ``_key`` property is the tuple of values that is the
    instance: equality asks for the same class and key, the hash reads the
    class name and key, and copies and pickles call the class on the key.
    Nothing can be set or deleted; constructors use ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key))

    def __reduce__(self):
        return (type(self), self._key)


class _HTriple(_Frozen):
    """Shared behaviour of homogeneous points and lines.

    ``coords`` is the triple as ``scalars.canonical_triple`` returns it,
    called directly so that building a point or line costs one rule and no
    generic dispatch: all ``int`` for an exact item, all ``float`` for a
    float one.
    """

    __slots__ = ("coords",)

    def __init__(self, x: Scalar, y: Scalar, z: Scalar):
        object.__setattr__(self, "coords", canonical_triple(x, y, z))

    _key = property(attrgetter("coords"))  # a C getter: no frame per comparison

    @property
    def x(self) -> Scalar:
        return self.coords[0]

    @property
    def y(self) -> Scalar:
        return self.coords[1]

    @property
    def z(self) -> Scalar:
        return self.coords[2]

    @property
    def exact(self) -> bool:
        # canonical triples are all int or all float
        return type(self.coords[0]) is int

    def __iter__(self):
        return iter(self.coords)

    def __repr__(self) -> str:
        body = " : ".join(str(c) for c in self.coords)
        return f"{type(self).__name__}({body})"


class Record(_Frozen):
    """Base of the package's records, immutable values with named fields.

    A subclass lists its fields as class annotations, in order, with
    optional class-level defaults; ``__init_subclass__`` reads them once.
    Instances take the fields by position or keyword, store them in
    ``__dict__`` and then run the class's ``__post_init__``, if any.  The
    ``_Frozen`` key is the field values (a copy runs ``__post_init__``
    again), ``repr`` reads ``Name(field=value, ...)``, and ``replace``
    returns a copy with some fields changed.  There are no ``__slots__``,
    so ``lazy`` attributes work on subclasses.
    """

    _spec = ((), frozenset(), {}, None)  # fields, their set, defaults, __post_init__

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields, names, defaults, _ = cls._spec
        own = tuple(n for n in cls.__dict__.get("__annotations__", {}) if n not in names)
        defaults = {**defaults, **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}
        fields += own
        cls._spec = (fields, frozenset(fields), defaults, getattr(cls, "__post_init__", None))

    def __init__(self, *args, **kwargs):
        fields, names, defaults, post = self._spec
        values = kwargs
        if args:
            # zip drops surplus arguments and dict() keeps one of two values
            # for a name, so either fault shortens the result
            values = dict(zip(fields, args), **kwargs)
            if len(values) != len(args) + len(kwargs):
                raise self._argument_error(args, kwargs)
        if len(values) != len(fields):
            values = {**defaults, **values}
        if len(values) != len(fields) or not names.issuperset(values):
            raise self._argument_error(args, kwargs)
        self.__dict__.update(values)
        if post is not None:
            post(self)

    def _argument_error(self, args, kwargs) -> TypeError:
        fields, names, defaults, _ = self._spec
        call = f"{type(self).__qualname__}()"
        if len(args) > len(fields):
            return TypeError(f"{call} takes {len(fields)} arguments but {len(args)} were given")
        for name in fields[:len(args)]:
            if name in kwargs:
                return TypeError(f"{call} got multiple values for argument {name!r}")
        for name in kwargs:
            if name not in names:
                return TypeError(f"{call} got an unexpected keyword argument {name!r}")
        missing = [n for n in fields[len(args):] if n not in kwargs and n not in defaults]
        return TypeError(f"{call} missing required arguments: {', '.join(map(repr, missing))}")

    @property
    def _key(self) -> tuple:
        state = self.__dict__
        return tuple([state[name] for name in self._spec[0]])

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={v!r}" for n, v in zip(self._spec[0], self._key))
        return f"{type(self).__qualname__}({body})"

    def replace(self, **changes):
        """A copy with the given fields changed (``__post_init__`` runs again)."""
        return type(self)(**dict(zip(self._spec[0], self._key), **changes))


class lazy:
    """A read-only attribute computed on first read and stored in the
    instance's ``__dict__`` under its own name, which later reads find
    first: ``functools.cached_property`` as Python 3.12 has it, without the
    per-instance lock that 3.11 takes on every first read.  It has no
    ``__set__``, and the classes that use it refuse ``setattr``, so the
    value cannot be set."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class HPoint(_HTriple):
    """A point of the projective plane as a homogeneous triple."""

    __slots__ = ()

    @classmethod
    def from_xy(cls, x: Scalar, y: Scalar) -> "HPoint":
        return cls(x, y, 1 if all_exact((x, y)) else 1.0)

    @classmethod
    def direction(cls, dx: Scalar, dy: Scalar) -> "HPoint":
        return cls(dx, dy, 0 if all_exact((dx, dy)) else 0.0)

    @property
    def at_infinity(self) -> bool:
        return self.coords[2] == 0

    def to_xy(self) -> Tuple[Scalar, Scalar]:
        """Affine coordinates; only valid for finite points."""
        if self.at_infinity:
            raise ZeroDivisionError("point at infinity has no affine coordinates")
        x, y, z = self.coords
        return div(x, z), div(y, z)


class HLine(_HTriple):
    """A line of the projective plane, as coefficients of ax + by + cz = 0."""

    __slots__ = ()

    @classmethod
    def at_infinity(cls) -> "HLine":
        return cls(0, 0, 1)


LINE_AT_INFINITY = HLine.at_infinity()


def _dual_point(l: HLine) -> HPoint:
    """The point with the coordinates of ``l``, which are canonical already,
    so they are shared rather than canonicalized again."""
    p = object.__new__(HPoint)
    object.__setattr__(p, "coords", l.coords)
    return p


def _coincident(u: Triple, v: Triple, raw: Triple, eps: float) -> bool:
    """The float zero test of the cross product ``raw`` of ``u`` and ``v``,
    relative to the product of their norms.  Canonical float triples have
    norms in [1, sqrt(3)], so for two of them the product is at most 3 and
    ``max|raw| > 4 * eps`` decides "not coincident" without the norms."""
    m = max(map(abs, raw))
    if m > 4 * eps and type(u[0]) is float and type(v[0]) is float:
        return False
    return is_zero(m, eps, lambda: row_norm(u) * row_norm(v))


def all_exact_items(items: Sequence[_HTriple]) -> bool:
    """Whether every point or line of ``items`` is exact, read off the type
    of each canonical triple's first entry (``_HTriple.exact`` without a
    call per item)."""
    for item in items:
        if type(item.coords[0]) is not int:
            return False
    return True


def coincident(a, b, eps: float = DEFAULT_EPS) -> bool:
    """Whether two points (or two lines) agree up to scale and tolerance.

    Canonical triples that are equal coincide, and two unequal exact ones
    (reduced ``int`` triples) do not; any other pair takes the tolerance
    test on their cross product.  So on exact items coincidence is tuple
    equality, and a dict or set keyed by ``coords`` groups them.  Every
    chain step runs this test, so the cross product is ``cross`` written
    out, and two float triples whose cross product has an entry above
    ``4 * eps`` are told apart before ``_coincident`` is called.
    """
    u, v = a.coords, b.coords
    if u == v:
        return True
    u0, u1, u2 = u
    v0, v1, v2 = v
    if type(u0) is int and type(v0) is int:
        return False
    raw = (u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0)
    if type(u0) is float and type(v0) is float and max(abs(raw[0]), abs(raw[1]), abs(raw[2])) > 4 * eps:
        return False
    return _coincident(u, v, raw, eps)


def _checked_cross(a, b, eps: float, exc, verb: str) -> Triple:
    """The cross product of two points (lines), written out as in
    ``coincident``; ``exc`` when it is exactly zero on exact items, or by
    the tolerance test of ``coincident`` on any other pair."""
    u, v = a.coords, b.coords
    u0, u1, u2 = u
    v0, v1, v2 = v
    raw = (u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0)
    if type(u0) is int and type(v0) is int:
        if not (raw[0] or raw[1] or raw[2]):
            raise exc(f"cannot {verb} {a} with {b}")
    elif _coincident(u, v, raw, eps):
        raise exc(f"cannot {verb} {a} with {b}")
    return raw


def join(p: HPoint, q: HPoint, eps: float = DEFAULT_EPS) -> HLine:
    """The line through two distinct points."""
    return HLine(*_checked_cross(p, q, eps, CoincidentPoints, "join"))


def meet(l: HLine, m: HLine, eps: float = DEFAULT_EPS) -> HPoint:
    """The intersection point of two distinct lines."""
    return HPoint(*_checked_cross(l, m, eps, CoincidentLines, "meet"))


def incident(p: HPoint, l: HLine, eps: float = DEFAULT_EPS) -> bool:
    return is_zero(dot(p.coords, l.coords), eps, lambda: row_norm(p.coords) * row_norm(l.coords))


def _triple_det_zero(rows: Sequence[Triple], eps: float) -> bool:
    return is_zero(det3(rows), eps, lambda: math.prod(row_norm(r) for r in rows))


def collinear(items: Sequence[_HTriple], eps: float = DEFAULT_EPS) -> bool:
    """Whether each triple after the first two depends linearly on them:
    points on one line, or lines through one point (trivially true below 3)."""
    items = list(items)
    if len(items) < 3:
        return True
    a, b = items[0].coords, items[1].coords
    return all(_triple_det_zero((a, b, c.coords), eps) for c in items[2:])


class Verdict(Record):
    """Signed residual and boolean outcome of an incidence predicate.

    In exact mode the residual is the raw determinant; in float mode it is
    normalized by the product of the Euclidean row norms, so the verdict is
    scale invariant.  Six-item tests ("on one conic") also carry a
    ``witness_conic`` that passes through (or is tangent to) all six inputs
    when one is determined, and ``degenerate`` marks a witness of rank
    below three or a holding verdict with no single witness.
    """

    residual: Scalar
    holds: bool
    witness_conic: Optional["Conic"] = None
    degenerate: bool = False


def _triple_verdict(items: Sequence[_HTriple], eps: float, exc, noun: str) -> Verdict:
    """Determinant verdict on three pairwise-distinct triples, stacked in
    the given order so the residual's sign is reproducible."""
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if coincident(items[i], items[j], eps):
            raise exc(f"{noun} {items[i]} and {items[j]} coincide")
    r = normalized_det(tuple(t.coords for t in items))
    return Verdict(residual=r, holds=is_zero(r, eps, lambda: 1.0))


def concurrency(l: HLine, m: HLine, n: HLine, eps: float = DEFAULT_EPS) -> Verdict:
    """Residual-and-verdict form of the three-line concurrency test."""
    return _triple_verdict((l, m, n), eps, DuplicateLine, "lines")


def collinearity(p: HPoint, q: HPoint, r: HPoint, eps: float = DEFAULT_EPS) -> Verdict:
    """Residual-and-verdict form of the three-point collinearity test."""
    return _triple_verdict((p, q, r), eps, DuplicatePoints, "points")


def projective_gap(p: HPoint, q: HPoint) -> float:
    """Distance between points as representatives on the unit sphere.

    Both canonical triples are rescaled to unit Euclidean norm and compared
    with the sign ambiguity minimized out, so the gap is zero exactly when
    the points coincide and is stable for nearly equal float points.
    """
    return sphere_gap(unit_coords(p), unit_coords(q))


def unit_coords(p: HPoint) -> Tuple[float, float, float]:
    """The canonical triple rescaled to unit Euclidean norm, in float: the
    representative that ``projective_gap`` compares.  A caller that gauges
    many points against one keeps that one's ``unit_coords`` and calls
    ``sphere_gap``, which gives ``projective_gap`` bit for bit."""
    x, y, z = p.coords
    x, y, z = float(x), float(y), float(z)
    n = math.sqrt(x * x + y * y + z * z)  # ``row_norm`` written out
    return x / n, y / n, z / n


def sphere_gap(u: Sequence[float], v: Sequence[float]) -> float:
    """Distance between two unit triples with the sign minimized out."""
    u0, u1, u2 = u
    v0, v1, v2 = v
    minus = math.sqrt((u0 - v0) ** 2 + (u1 - v1) ** 2 + (u2 - v2) ** 2)
    plus = math.sqrt((u0 + v0) ** 2 + (u1 + v1) ** 2 + (u2 + v2) ** 2)
    return min(minus, plus)


class ProjectiveMap(Record):
    """An invertible projectivity, stored as a 3x3 matrix up to scale."""

    matrix: Tuple[Triple, Triple, Triple]

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.matrix)
        object.__setattr__(self, "matrix", rows)
        if _triple_det_zero(rows, DEFAULT_EPS):
            raise SingularMap("projective map matrix is singular")

    def apply(self, p: HPoint) -> HPoint:
        return HPoint(*matvec3(self.matrix, p.coords))

    def apply_line(self, l: HLine) -> HLine:
        return HLine(*matvec3(transpose3(adjugate3(self.matrix)), l.coords))

    def inverse(self) -> "ProjectiveMap":
        return ProjectiveMap(adjugate3(self.matrix))

    def compose(self, other: "ProjectiveMap") -> "ProjectiveMap":
        """The map sending p to self(other(p))."""
        return ProjectiveMap(matmul3(self.matrix, other.matrix))


def map_from_correspondence(
    src: Sequence[HPoint], dst: Sequence[HPoint], eps: float = DEFAULT_EPS
) -> ProjectiveMap:
    """The unique projectivity sending four source points to four targets.

    Both quadruples must be projective frames: no three of the four points
    collinear.  Raises ``DegenerateQuadruple`` otherwise, checking the
    source first.  A caller with a fixed target keeps its ``_frame_matrix``
    and calls ``_map_between_frames`` instead, as ``cevians.to_chart`` does
    on float input (exact input takes its bracket route).
    """
    if len(src) != 4 or len(dst) != 4:
        raise ValueError("correspondence needs exactly four source and target points")
    source = _frame_matrix(tuple(p.coords for p in src), eps, "source")
    return _map_between_frames(source, _frame_matrix(tuple(p.coords for p in dst), eps, "target"))


def _map_between_frames(source, target) -> ProjectiveMap:
    """The map sending the frame of the ``_frame_matrix`` ``source`` to that
    of ``target``: ``target`` after the inverse of ``source``, up to scale."""
    return ProjectiveMap(matmul3(target, adjugate3(source)))


def _frame_matrix(quad: Sequence[Triple], eps: float, label: str):
    """Matrix sending the standard frame e1, e2, e3, e1+e2+e3 to ``quad``."""
    p0, p1, p2, p3 = quad
    # Cramer data for [p0 p1 p2] (a, b, g)^T = p3; each determinant below
    # vanishes exactly when one 3-subset of the quadruple is collinear.
    subsets = [(p0, p1, p2), (p3, p1, p2), (p0, p3, p2), (p0, p1, p3)]
    dets = [det3(rows) for rows in subsets]
    for d, rows in zip(dets, subsets):
        if is_zero(d, eps, lambda: math.prod(row_norm(r) for r in rows)):
            raise DegenerateQuadruple(f"three of the four {label} points are collinear")
    weights = dets[1:]  # d * (a, b, g); the global factor d is harmless
    return transpose3(tuple(
        tuple(w * c for c in p) for w, p in zip(weights, (p0, p1, p2))
    ))
