import math

import pytest

import conconic.svg as svg
from conconic import Conic, HLine, HPoint, Triangle, join, trace_chain
from conconic.cevians import build_config
from conconic.errors import IrrationalResult
from conconic.generate import feet_from_params
from conconic.poncelet import ChainResult
from conconic.svg import render_chain, render_configuration


def _assert_line_pair_drawn_as_two_lines(offset):
    tri = Triangle(HPoint(0.0, 0.0, 1.0), HPoint(4.0, 0.0, 1.0), HPoint(0.0, 3.0, 1.0))
    cfg = build_config(tri, feet_from_params(tri, [0.3, 0.4, 0.5, 0.6, 0.7, 0.2]))
    s = HPoint(offset, 0.5, 1.0)
    pair = Conic.from_line_pair(join(s, HPoint(1.0, 1.0, 0.0)), join(s, HPoint(1.0, -2.0, 0.0)))
    for eps in (1e-9, 1e-3):
        assert pair.classify(eps) == "line_pair"
        assert render_configuration(cfg, (pair,), eps).count("stroke-dasharray") == 2


def test_line_pair_witness_uses_the_rendering_epsilon():
    # the singular point sits 1e-4 off the line x = 0: at eps = 1e-3 it
    # counts as on it, and both lines must still be drawn
    _assert_line_pair_drawn_as_two_lines(1e-4)


def test_line_pair_just_beyond_the_rendering_epsilon_is_drawn_as_two_lines():
    # 2e-3 off x = 0, just beyond eps = 1e-3: a probe along x = 0 meets the
    # pair in two points too close for the discriminant test
    _assert_line_pair_drawn_as_two_lines(2e-3)


def test_render_chain_samples_each_conic_once(monkeypatch):
    outer, inner = Conic(1.0, 0.0, 1.0, 0.0, 0.0, -4.0), Conic(1.0, 0.0, 1.0, 0.0, 0.0, -1.0)
    chain = trace_chain(outer, inner, HPoint(2.0, 0.0, 1.0))
    expected = render_chain(outer, inner, chain)
    calls = []
    spread = svg.spread_on_conic

    def counting(conic, n, eps):
        calls.append(conic)
        return spread(conic, n, eps)

    monkeypatch.setattr(svg, "spread_on_conic", counting)
    assert render_chain(outer, inner, chain) == expected
    assert calls == [outer, inner]


def test_render_chain_draws_a_degenerate_conic_as_its_lines():
    outer = Conic(1.0, 0.0, 1.0, 0.0, 0.0, -4.0)
    chain = trace_chain(outer, Conic(1.0, 0.0, 1.0, 0.0, 0.0, -1.0), HPoint(2.0, 0.0, 1.0))
    pair = Conic.from_line_pair(join(HPoint(0.0, 0.0, 1.0), HPoint(1.0, 1.0, 0.0)),
                                join(HPoint(0.0, 0.0, 1.0), HPoint(1.0, -1.0, 0.0)))
    drawn = render_chain(outer, pair, chain)
    assert drawn.count("stroke-dasharray") == 2 and drawn.count("<polygon") == 2


def _unit_frame():
    # the box [0, 1/2]^2 padded by 15%: every bound lies inside (-1, 1), so an
    # HLine with a unit coefficient keeps its coordinates when canonicalized
    return svg.Frame([0.0, 0.5], [0.0, 0.5])


def test_frame_contains_points_on_its_slackened_edges_and_nothing_beyond():
    frame, slack = _unit_frame(), 0.25
    left, right = frame.xmin - slack, frame.xmax + slack
    low, high = frame.ymin - slack, frame.ymax + slack
    for x, y in ((left, 0.2), (right, 0.2), (0.2, low), (0.2, high), (left, low), (right, high)):
        assert frame.contains(x, y, slack)
    outside = ((math.nextafter(left, -math.inf), 0.2), (math.nextafter(right, math.inf), 0.2),
               (0.2, math.nextafter(low, -math.inf)), (0.2, math.nextafter(high, math.inf)))
    for x, y in outside:
        assert not frame.contains(x, y, slack)
    # without slack the frame's own edges are the bounds
    assert frame.contains(frame.xmin, frame.ymax) and not frame.contains(right, 0.2)


def test_a_line_grazing_a_frame_edge_within_1e9_is_clipped_to_it():
    frame = _unit_frame()
    for bound in (frame.ymin - 1e-9, frame.ymax + 1e-9):
        # y = bound: hits on the two vertical edges, checked against the y range
        seg = svg._clip_line(frame, HLine(0.0, 1.0, -bound))
        assert seg == ((frame.xmin, bound), (frame.xmax, bound))
    for bound in (frame.xmin - 1e-9, frame.xmax + 1e-9):
        # x = bound: hits on the two horizontal edges, checked against the x range
        seg = svg._clip_line(frame, HLine(1.0, 0.0, -bound))
        assert seg == ((bound, frame.ymin), (bound, frame.ymax))


def test_a_line_just_beyond_the_1e9_edge_slack_is_not_drawn():
    frame = _unit_frame()
    for bound in (math.nextafter(frame.ymin - 1e-9, -math.inf), math.nextafter(frame.ymax + 1e-9, math.inf)):
        assert svg._clip_line(frame, HLine(0.0, 1.0, -bound)) is None
    for bound in (math.nextafter(frame.xmin - 1e-9, -math.inf), math.nextafter(frame.xmax + 1e-9, math.inf)):
        assert svg._clip_line(frame, HLine(1.0, 0.0, -bound)) is None


def test_a_clipped_line_crosses_the_padded_frame_where_its_equation_says():
    # x + 3y = 5 leaves the frame of [0, 4] x [0, 3] (padded to [-0.6, 4.6]
    # x [-0.6, 3.6]) through its left and right edges
    frame = svg.Frame([0.0, 4.0], [0.0, 3.0])
    assert svg._clip_line(frame, HLine(1, 3, -5)) == ((-0.6, 1.8666666666666665), (4.6, 0.13333333333333344))


def test_a_line_grazing_a_frame_corner_is_one_point_and_not_drawn():
    # x + y = xmin + ymin + 1e-9 meets the left and bottom edges about
    # 1.4e-9 apart, under the 1e-9 * 5.2 at which two hits count as one
    frame = svg.Frame([0.0, 4.0], [0.0, 3.0])
    assert svg._clip_line(frame, HLine(1.0, 1.0, -(frame.xmin + frame.ymin + 1e-9))) is None


def test_a_chain_drawing_with_nothing_finite_to_show_frames_the_unit_square():
    empty = ChainResult(points=(), links=(), closure_step=None, gap=0.0)
    out = render_chain(Conic(1, 0, 1, 0, 0, 1), Conic(1, 0, 1, 0, 0, 2), empty)  # no real points
    assert f'viewBox="{svg.Frame([0.0, 1.0], [0.0, 1.0]).viewbox()}"' in out


def test_a_point_at_infinity_is_not_drawn():
    # an exact point with z == 0, and a float point whose z is below 1e-14
    # of its largest coordinate, have no affine place in the drawing
    assert svg._affine(HPoint(2, 4, 2)) == (1.0, 2.0)
    assert svg._affine(HPoint(1, 1, 0)) is None
    assert svg._affine(HPoint(1.0, 1.0, 0.0)) is None
    assert svg._affine(HPoint(1.0, 1.0, 1e-15)) is None
    outer = Conic.from_coeffs((1, 0, -1, 0, 0, -1))
    inner = Conic.from_coeffs((1.0, 0.0, 1.0, 0.0, 0.0, -0.25))
    for start in (HPoint(1, 1, 0), HPoint(1.0, 1.0, 0.0)):
        chain = trace_chain(outer, inner, start, max_steps=4)
        finite = [p for p in chain.points if svg._affine(p) is not None]
        assert len(finite) == len(chain.points) - 1
        assert render_chain(outer, inner, chain).count("<circle") == len(finite)


def test_a_line_pair_whose_lines_cannot_be_found_is_left_out():
    # x^2 = 2 y^2 is the pair of lines x = ±sqrt(2) y: exact arithmetic
    # cannot name them, so nothing is drawn for it
    pair = Conic.from_coeffs((1, 0, -2, 0, 0, 0))
    assert pair.classify(1e-9) == "line_pair"
    with pytest.raises(IrrationalResult):
        svg._component_lines(pair, 1e-9)
    tri = Triangle(HPoint(0.0, 0.0, 1.0), HPoint(4.0, 0.0, 1.0), HPoint(0.0, 3.0, 1.0))
    cfg = build_config(tri, feet_from_params(tri, [0.3, 0.4, 0.5, 0.6, 0.7, 0.2]))
    assert render_configuration(cfg, (pair,)) == render_configuration(cfg, ())
