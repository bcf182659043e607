"""Deterministic SVG rendering of configurations, conics, and chains.

The output is a pure function of the geometric input: fixed palette,
fixed decimal formatting, no timestamps, so rendering the same scene
twice yields byte-identical files.  The drawing frame is the triangle's
bounding box (or the chain's) padded by 15 percent; conics are drawn as
closed 256-gon polylines sampled through the rational parametrization at
a point of the conic, and infinite lines are clipped to the frame.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from .cevians import CevianConfig
from .conics import Conic, intersect_line
from .errors import GeometryError
from .linalg import row_norm
from .poncelet import ChainResult, spread_on_conic
from .projective import HLine, HPoint, join
from .scalars import DEFAULT_EPS, float_scaled

CONIC_SAMPLES = 256
MARGIN = 0.15

_TRIANGLE_COLOR = "#1f3a5f"
_CEVIAN_FIRST = "#c0392b"
_CEVIAN_SECOND = "#2980b9"
_POINT_COLOR = "#111111"
_INNER_COLOR = "#8e44ad"
_CONIC_COLORS = ("#27ae60", "#e67e22", "#16a085")
_CHAIN_COLOR = "#c0392b"


def _affine(p: HPoint) -> Optional[Tuple[float, float]]:
    """Affine float coordinates of a point, or None for a point that is not
    drawn: an exact point at infinity (z == 0), a float point whose z is
    below 1e-14 of its largest coordinate, or any point whose coordinates
    are not finite floats.  Exact coordinates are divided as integers, which
    rounds each quotient once, whatever the size of the integers."""
    x, y, z = p.coords
    if type(z) is int:
        if z == 0:
            return None
        try:
            xy = (x / z, y / z)
        except OverflowError:
            return None
    else:
        if z == 0.0 or abs(z) < 1e-14 * max(abs(x), abs(y)):
            return None
        xy = (x / z, y / z)
    return xy if math.isfinite(xy[0]) and math.isfinite(xy[1]) else None


class Frame:
    """Affine window plus y-flip mapping geometry into SVG user units."""

    def __init__(self, xs: Sequence[float], ys: Sequence[float]):
        xmin, xmax = min(xs), max(xs)
        ymin, ymax = min(ys), max(ys)
        span = max(xmax - xmin, ymax - ymin, 1e-9)
        pad = MARGIN * span
        self.xmin, self.xmax = xmin - pad, xmax + pad
        self.ymin, self.ymax = ymin - pad, ymax + pad
        self.width = self.xmax - self.xmin
        self.height = self.ymax - self.ymin
        self.stroke = 0.008 * max(self.width, self.height)
        self.radius = 0.012 * max(self.width, self.height)

    def to_svg(self, x: float, y: float) -> Tuple[float, float]:
        return (x, self.ymin + self.ymax - y)  # flip y so up is up

    def viewbox(self) -> str:
        return f"{_fmt(self.xmin)} {_fmt(self.ymin)} {_fmt(self.width)} {_fmt(self.height)}"

    def contains(self, x: float, y: float, slack: float = 0.0) -> bool:
        return (
            self.xmin - slack <= x <= self.xmax + slack
            and self.ymin - slack <= y <= self.ymax + slack
        )


def _fmt(v: float) -> str:
    out = f"{v:.4f}"
    return "0.0000" if out == "-0.0000" else out


def _polyline(frame: Frame, pts: Sequence[Tuple[float, float]], color: str, width_scale: float = 1.0, closed: bool = False) -> str:
    mapped = [frame.to_svg(x, y) for x, y in pts]
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in mapped)
    tag = "polygon" if closed else "polyline"
    return (
        f'<{tag} points="{coords}" fill="none" stroke="{color}" '
        f'stroke-width="{_fmt(width_scale * frame.stroke)}" />'
    )


def _segment(frame: Frame, a: Tuple[float, float], b: Tuple[float, float], color: str, width_scale: float = 1.0, dashed: bool = False) -> str:
    (x1, y1), (x2, y2) = frame.to_svg(*a), frame.to_svg(*b)
    dash = f' stroke-dasharray="{_fmt(3 * frame.stroke)},{_fmt(2 * frame.stroke)}"' if dashed else ""
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="{color}" stroke-width="{_fmt(width_scale * frame.stroke)}"{dash} />'
    )


def _dot(frame: Frame, p: Tuple[float, float], color: str, radius_scale: float = 1.0) -> str:
    x, y = frame.to_svg(*p)
    return f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(radius_scale * frame.radius)}" fill="{color}" />'


def _document(frame: Frame, body: List[str]) -> str:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{frame.viewbox()}" '
        f'width="640" height="{_fmt(640 * frame.height / frame.width)}">',
        f'<rect x="{_fmt(frame.xmin)}" y="{_fmt(frame.ymin)}" width="{_fmt(frame.width)}" '
        f'height="{_fmt(frame.height)}" fill="#fdfdf8" />',
    ]
    lines.extend(body)
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _clip_line(frame: Frame, line: HLine) -> Optional[Tuple[Tuple[float, float], Tuple[float, float]]]:
    """Visible segment of an infinite line inside the frame, if any."""
    a, b, c = (float(v) for v in float_scaled(line.coords))
    hits: List[Tuple[float, float]] = []
    if b != 0.0:
        for x in (frame.xmin, frame.xmax):
            y = -(a * x + c) / b
            if frame.ymin - 1e-9 <= y <= frame.ymax + 1e-9:
                hits.append((x, y))
    if a != 0.0:
        for y in (frame.ymin, frame.ymax):
            x = -(b * y + c) / a
            if frame.xmin - 1e-9 <= x <= frame.xmax + 1e-9:
                hits.append((x, y))
    uniq: List[Tuple[float, float]] = []
    for h in hits:
        if all(math.dist(h, u) > 1e-9 * max(frame.width, frame.height) for u in uniq):
            uniq.append(h)
    if len(uniq) < 2:
        return None
    uniq.sort()
    return uniq[0], uniq[-1]


def conic_polyline_points(conic: Conic, eps: float = DEFAULT_EPS) -> List[Tuple[float, float]]:
    """Sample points along a nondegenerate conic for drawing; none for a
    degenerate conic or one that cannot be sampled."""
    try:
        samples = [_affine(p) for p in spread_on_conic(conic, CONIC_SAMPLES, eps)]
    except GeometryError:
        return []
    return [xy for xy in samples if xy is not None]


def _draw_conic(frame: Frame, conic: Conic, color: str, eps: float, pts: List[Tuple[float, float]]) -> List[str]:
    """A conic's drawing elements: the visible part of its samples ``pts``
    (from ``conic_polyline_points``), or for a degenerate conic its lines."""
    if conic.classify(eps) == "nondegenerate":
        visible = [p for p in pts if frame.contains(*p, slack=2 * max(frame.width, frame.height))]
        if len(visible) < 2:
            return []
        return [_polyline(frame, visible, color, closed=len(visible) == CONIC_SAMPLES)]
    # degenerate witnesses are one or two lines through the frame
    body = []
    try:
        lines = _component_lines(conic, eps)
    except GeometryError:
        return []
    for ln in lines:
        seg = _clip_line(frame, ln)
        if seg is not None:
            body.append(_segment(frame, seg[0], seg[1], color, dashed=True))
    return body


def _component_lines(conic: Conic, eps: float) -> List[HLine]:
    """The line(s) making up a rank-deficient conic, of rank 1 or 2 (its
    one caller, ``_draw_conic``, sends it only conics that ``classify`` does
    not call nondegenerate)."""
    if conic.rank(eps) == 1:
        return [HLine(*_lead_row(conic.gram, conic.exact))]
    # a line pair's singular point is in the kernel; pair = lines joining it
    # to the two intersections with any line avoiding the singular point.
    # A rank-2 form has a rank-1 adjugate whose rows are multiples of that point.
    # The line with the same coordinates as a real point s avoids it (s.s > 0)
    # and lies as far from it as any line can.
    singular = HPoint(*_lead_row(conic.adjugate, conic.exact))
    pts = intersect_line(conic, HLine(*singular.coords), eps)
    return [join(singular, p, eps) for p in pts]


def _lead_row(m, exact: bool):
    """The row of a rank-one symmetric matrix that names its point.  Float
    rows take the one of largest norm; exact rows are all multiples of one
    triple, so the first nonzero one canonicalizes to the same point, with
    no float that an entry past float range could overflow."""
    if exact:
        return next(row for row in m if any(row))
    return max(m, key=row_norm)


def _configuration_body(
    cfg: CevianConfig, witnesses: Sequence[Optional[Conic]], eps: float
) -> Tuple[Frame, List[str]]:
    """The frame and the drawing elements of a configuration: the window of
    the drawable vertices, or the unit window when none is (every vertex at
    infinity or past float range)."""
    tri = cfg.triangle
    corners = [xy for xy in (_affine(v) for v in tri.vertices) if xy is not None]
    frame = Frame([x for x, _ in corners] or [0.0, 1.0], [y for _, y in corners] or [0.0, 1.0])
    body: List[str] = []
    body.append(_polyline(frame, corners, _TRIANGLE_COLOR, width_scale=1.4, closed=True))

    verts = (tri.A, tri.B, tri.C)
    for which, color in ((1, _CEVIAN_FIRST), (2, _CEVIAN_SECOND)):
        for vertex, foot in zip(verts, cfg.feet.triple(which)):
            a, b = _affine(vertex), _affine(foot)
            if a is not None and b is not None:
                body.append(_segment(frame, a, b, color, width_scale=0.8))

    for i, conic in enumerate(w for w in witnesses if w is not None):
        color = _CONIC_COLORS[i % len(_CONIC_COLORS)]
        body.extend(_draw_conic(frame, conic, color, eps, conic_polyline_points(conic, eps)))

    for p in cfg.feet.outer:
        xy = _affine(p)
        if xy is not None:
            body.append(_dot(frame, xy, _POINT_COLOR, radius_scale=0.8))
    for p in cfg.inner_points:
        xy = _affine(p)
        if xy is not None and frame.contains(*xy):
            body.append(_dot(frame, xy, _INNER_COLOR, radius_scale=0.8))
    for v in verts:
        xy = _affine(v)
        if xy is not None:
            body.append(_dot(frame, xy, _TRIANGLE_COLOR))
    return frame, body


def render_configuration(
    cfg: CevianConfig,
    witnesses: Sequence[Optional[Conic]] = (),
    eps: float = DEFAULT_EPS,
) -> str:
    """SVG of a cevian configuration with optional witness conics."""
    return _document(*_configuration_body(cfg, witnesses, eps))


def render_chain(c1: Conic, c2: Conic, chain: ChainResult, eps: float = DEFAULT_EPS) -> str:
    """SVG of two conics and a chain polygon between them."""
    pts = [xy for xy in (_affine(p) for p in chain.points) if xy is not None]
    samples = [conic_polyline_points(conic, eps) for conic in (c1, c2)]
    every = pts + samples[0] + samples[1]
    xs = [x for x, _ in every] or [0.0, 1.0]
    ys = [y for _, y in every] or [0.0, 1.0]
    frame = Frame(xs, ys)
    body: List[str] = []
    for i, (conic, conic_pts) in enumerate(zip((c1, c2), samples)):
        body.extend(_draw_conic(frame, conic, _CONIC_COLORS[i % len(_CONIC_COLORS)], eps, conic_pts))
    if len(pts) >= 2:
        body.append(_polyline(frame, pts, _CHAIN_COLOR, width_scale=1.2, closed=chain.closed))
    for xy in pts:
        body.append(_dot(frame, xy, _POINT_COLOR, radius_scale=0.9))
    return _document(frame, body)


def render_morley(data, eps: float = DEFAULT_EPS) -> str:
    """SVG of the trisector configuration with its two conics, and the
    equilateral triangle drawn on top."""
    cfg = data.config
    frame, body = _configuration_body(cfg, (data.inner_conic, data.cevian_conic), eps)
    tri_pts = [xy for xy in (_affine(p) for p in (cfg.U1, cfg.V1, cfg.W1)) if xy is not None]
    body.append(_polyline(frame, tri_pts, _INNER_COLOR, width_scale=1.2, closed=True))
    return _document(frame, body)
