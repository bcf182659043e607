"""Angle trisectors of a triangle and the conics they generate.

Each vertex hosts two interior trisectors, so the six of them form a
cevian configuration once each trisector is labeled by the foot it cuts
on the opposite side.  The labeling used here pairs first cevians with
the side named at each vertex's first neighbor (the trisector out of A
hugging AB is AA1, the one hugging AC is AA2, and cyclically), which
makes the derived points U1, V1, W1 land on the vertices of the inner
equilateral triangle formed by adjacent-trisector meets.  The labeling
is self-checked at runtime against that equilateral triangle.

Trisection works on signed angles, so both triangle orientations are
handled without special cases.  Everything here is float-mode: angles
come from ``atan2`` and the trisectors are transcendental in the vertex
coordinates.
"""

from __future__ import annotations

import math
from typing import Tuple

from .cevians import (
    CevianFeet,
    ConditionReport,
    CevianConfig,
    Triangle,
    build_config,
    check_conditions,
)
from .conics import Conic
from .errors import (
    ConcurrencyViolated,
    LabelingSelfCheckFailed,
    TheoremConsistencyError,
)
from .projective import HLine, HPoint, Record, concurrency, join, meet, projective_gap
from .scalars import DEFAULT_EPS

# Tolerance for matching computed meets against the equilateral triangle
# and for verifying fitted conics: these are second-generation floats
# (meets of fitted objects), so they get a looser budget than raw algebra.
_CHECK_TOL = 1e-6


def _affine_xy(p: HPoint) -> Tuple[float, float]:
    x, y, z = (float(v) for v in p.coords)
    return (x / z, y / z)


def _direction_line(origin: Tuple[float, float], direction: Tuple[float, float]) -> HLine:
    ox, oy = origin
    dx, dy = direction
    return join(HPoint(ox, oy, 1.0), HPoint(dx, dy, 0.0))


def _rotate(v: Tuple[float, float], angle: float) -> Tuple[float, float]:
    c, s = math.cos(angle), math.sin(angle)
    return (v[0] * c - v[1] * s, v[0] * s + v[1] * c)


def _trisectors(vertex: Tuple[float, float], toward: Tuple[float, float], far: Tuple[float, float]) -> Tuple[HLine, HLine]:
    """The two interior trisectors at a vertex, nearest-first.

    ``toward`` fixes the arm the angle is measured from; the returned pair
    is (trisector nearest that arm, trisector nearest the other arm).
    """
    u = (toward[0] - vertex[0], toward[1] - vertex[1])
    w = (far[0] - vertex[0], far[1] - vertex[1])
    theta = math.atan2(u[0] * w[1] - u[1] * w[0], u[0] * w[0] + u[1] * w[1])
    return (
        _direction_line(vertex, _rotate(u, theta / 3.0)),
        _direction_line(vertex, _rotate(u, 2.0 * theta / 3.0)),
    )


def _trisectors_and_meets(tri: Triangle):
    """The trisector pairs at A, B, C and the meets of adjacent trisectors."""
    a, b, c = (_affine_xy(v) for v in tri.vertices)
    near_ab, near_ac = _trisectors(a, b, c)
    near_bc, near_ba = _trisectors(b, c, a)
    near_ca, near_cb = _trisectors(c, a, b)
    pairs = ((near_ab, near_ac), (near_bc, near_ba), (near_ca, near_cb))
    return pairs, (meet(near_bc, near_cb), meet(near_ca, near_ac), meet(near_ab, near_ba))


def morley_triangle(tri: Triangle) -> Tuple[HPoint, HPoint, HPoint]:
    """Vertices of the inner equilateral triangle of adjacent trisectors.

    Ordered (U1, V1, W1) = (meet nearest side BC, nearest CA, nearest AB).
    """
    return _trisectors_and_meets(tri)[1]


def _centroid(pts: Tuple[HPoint, HPoint, HPoint]) -> HPoint:
    (x0, y0), (x1, y1), (x2, y2) = [_affine_xy(p) for p in pts]
    return HPoint((0 + x0 + x1 + x2) / 3.0, (0 + y0 + y1 + y2) / 3.0, 1.0)


def first_morley_center(tri: Triangle) -> HPoint:
    """Centroid of the equilateral trisector triangle."""
    return _centroid(morley_triangle(tri))


def second_morley_center(tri: Triangle, eps: float = DEFAULT_EPS) -> HPoint:
    """Common point of the cevians from each vertex to the far trisector meet.

    The three lines A-U1, B-V1, C-W1 are concurrent; the meet of the first
    two is returned after checking the third passes through it.
    """
    u1, v1, w1 = morley_triangle(tri)
    la = join(tri.A, u1)
    lb = join(tri.B, v1)
    lc = join(tri.C, w1)
    verdict = concurrency(la, lb, lc, eps)
    if not verdict.holds:
        raise ConcurrencyViolated(
            f"trisector-meet cevians are not concurrent (residual {verdict.residual!r})"
        )
    return meet(la, lb)


class MorleyCenters(Record):
    """The two distinguished concurrence points of the configuration."""

    first: HPoint
    second: HPoint


class MorleyData(Record):
    """Full trisector cevian configuration with its fitted conics.

    ``config.cevians`` are the six trisectors as cevian lines in the order
    (AA1, BB1, CC1, AA2, BB2, CC2), and ``(config.U1, config.V1,
    config.W1)`` is the equilateral trisector triangle; ``inner_conic``
    passes through the six derived points and ``cevian_conic`` is tangent
    to all six trisectors.  ``trisector_meets`` is the same triangle as
    ``morley_triangle`` computes it, from adjacent-trisector meets: the
    labeling self-check matches it to ``(U1, V1, W1)`` within tolerance,
    not bit for bit.
    """

    config: CevianConfig
    report: ConditionReport
    centers: MorleyCenters
    inner_conic: Conic
    cevian_conic: Conic
    trisector_meets: Tuple[HPoint, HPoint, HPoint]


def _matches_morley(cfg: CevianConfig, target, tol: float) -> bool:
    pairs = zip((cfg.U1, cfg.V1, cfg.W1), target)
    return all(projective_gap(got, want) <= tol for got, want in pairs)


def morley_config(tri: Triangle, eps: float = DEFAULT_EPS) -> MorleyData:
    """Build the trisector cevian configuration and verify its conics.

    The two conics of the Poncelet porism are the witnesses of the report's
    inner6 and tangent6 verdicts: ``inner_conic`` is fitted through five
    derived points and ``cevian_conic`` is tangent to five trisectors.  Both
    are self-checked at ``_CHECK_TOL``: ``inner_conic`` must contain Z2 and
    ``cevian_conic`` must touch CC2, and a missing or failing witness raises
    ``TheoremConsistencyError``.
    """
    trisectors, target = _trisectors_and_meets(tri)
    triples = [tuple(meet(pair[k], side) for pair, side in zip(trisectors, tri.sides)) for k in (0, 1)]
    cfg = build_config(tri, CevianFeet.from_triples(*triples))
    if not _matches_morley(cfg, target, _CHECK_TOL):
        raise LabelingSelfCheckFailed(
            "the trisector labeling does not reproduce the equilateral trisector triangle"
        )

    report = check_conditions(cfg, eps)
    inner = report.inner6.witness_conic
    if inner is None or not inner.contains(cfg.Z2, _CHECK_TOL):
        raise TheoremConsistencyError(
            "no conic through five derived points picks up the sixth", verdicts=report
        )
    cevian_conic = report.tangent6.witness_conic
    if cevian_conic is None or not cevian_conic.is_tangent(cfg.cevians[5], _CHECK_TOL):
        raise TheoremConsistencyError(
            "no conic tangent to five trisectors touches the sixth", verdicts=report
        )

    if not report.concurrent.holds:
        raise ConcurrencyViolated(
            f"trisector-meet cevians are not concurrent (residual {report.concurrent.residual!r})"
        )
    second = meet(join(tri.A, cfg.U1), join(tri.B, cfg.V1))
    centers = MorleyCenters(first=_centroid(target), second=second)

    return MorleyData(
        config=cfg,
        report=report,
        centers=centers,
        inner_conic=inner,
        cevian_conic=cevian_conic,
        trisector_meets=target,
    )


def equilateral_side_spread(tri: Triangle) -> Tuple[float, float]:
    """Mean side length of the trisector triangle and its relative spread."""
    return side_spread(morley_triangle(tri))


def side_spread(vertices: Tuple[HPoint, HPoint, HPoint]) -> Tuple[float, float]:
    """Mean side length of a finite triangle and its relative spread."""
    pts = [_affine_xy(p) for p in vertices]
    sides = [
        math.dist(pts[i], pts[(i + 1) % 3]) for i in range(3)
    ]
    mean = (0 + sides[0] + sides[1] + sides[2]) / 3.0
    spread = (max(sides) - min(sides)) / mean
    return mean, spread
