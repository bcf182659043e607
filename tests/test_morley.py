import math
import random

import pytest

from conconic import (
    HPoint,
    Triangle,
    concurrency,
    join,
    morley_config,
    morley_triangle,
    porism_check,
    projective_gap,
    second_morley_center,
)
import conconic.morley as morley
from conconic.cli import main
from conconic.errors import LabelingSelfCheckFailed, TheoremConsistencyError
from conconic.generate import float_triangle
from conconic.morley import equilateral_side_spread, first_morley_center

RIGHT_345 = Triangle(HPoint(0.0, 0.0, 1.0), HPoint(4.0, 0.0, 1.0), HPoint(0.0, 3.0, 1.0))


def affine(p):
    x, y, z = (float(v) for v in p.coords)
    return (x / z, y / z)


def trig_side_oracle(tri) -> float:
    # independent classical formula: 8 R sin(A/3) sin(B/3) sin(C/3)
    pts = [affine(v) for v in tri.vertices]
    a = math.dist(pts[1], pts[2])
    b = math.dist(pts[2], pts[0])
    c = math.dist(pts[0], pts[1])
    area = 0.5 * abs(
        (pts[1][0] - pts[0][0]) * (pts[2][1] - pts[0][1])
        - (pts[2][0] - pts[0][0]) * (pts[1][1] - pts[0][1])
    )
    circumradius = a * b * c / (4.0 * area)
    alpha = math.acos((b * b + c * c - a * a) / (2 * b * c))
    beta = math.acos((a * a + c * c - b * b) / (2 * a * c))
    gamma = math.pi - alpha - beta
    return 8.0 * circumradius * math.sin(alpha / 3) * math.sin(beta / 3) * math.sin(gamma / 3)


def test_trisector_triangle_is_equilateral():
    mean, spread = equilateral_side_spread(RIGHT_345)
    assert spread < 1e-12
    assert mean == pytest.approx(trig_side_oracle(RIGHT_345), abs=1e-12)


def test_unit_equilateral_frozen_side_length():
    side = 1.0
    tri = Triangle(
        HPoint(0.0, 0.0, 1.0),
        HPoint(side, 0.0, 1.0),
        HPoint(side / 2.0, side * math.sqrt(3.0) / 2.0, 1.0),
    )
    mean, spread = equilateral_side_spread(tri)
    # 8 R sin^3(20 deg) with R = 1/sqrt(3)
    assert mean == pytest.approx(0.1847925309, abs=1e-9)
    assert spread < 1e-12


def test_orientation_invariance():
    flipped = Triangle(RIGHT_345.A, RIGHT_345.C, RIGHT_345.B)
    u1, v1, w1 = morley_triangle(RIGHT_345)
    fu1, fv1, fw1 = morley_triangle(flipped)
    # swapping B and C swaps the roles of the CA- and AB-adjacent vertices
    assert projective_gap(u1, fu1) < 1e-12
    assert projective_gap(v1, fw1) < 1e-12
    assert projective_gap(w1, fv1) < 1e-12


def test_second_center_concurrency():
    center = second_morley_center(RIGHT_345)
    u1, v1, w1 = morley_triangle(RIGHT_345)
    verdict = concurrency(join(RIGHT_345.A, u1), join(RIGHT_345.B, v1), join(RIGHT_345.C, w1))
    assert verdict.holds
    assert abs(verdict.residual) < 1e-12
    # the center lies on all three cevians
    for vertex, inner in ((RIGHT_345.A, u1), (RIGHT_345.B, v1), (RIGHT_345.C, w1)):
        line = join(vertex, inner)
        assert abs(sum(a * b for a, b in zip(line.coords, center.coords))) < 1e-9


def test_morley_config_conditions_and_conics():
    data = morley_config(RIGHT_345)
    assert data.report.all_hold
    for verdict in (data.report.outer6, data.report.inner6, data.report.tangent6):
        assert abs(verdict.residual) < 1e-10
    # derived-point conic really passes through all six derived points
    cfg = data.config
    for p in (cfg.X1, cfg.Y1, cfg.Z1, cfg.X2, cfg.Y2, cfg.Z2):
        assert data.inner_conic.contains(p)
    # cevian conic really touches all six trisectors
    for line in cfg.cevians:
        assert data.cevian_conic.is_tangent(line)
    # labeled meets reproduce the equilateral triangle
    target = morley_triangle(RIGHT_345)
    for got, want in zip((cfg.U1, cfg.V1, cfg.W1), target):
        assert projective_gap(got, want) < 1e-9


def test_labeling_self_check_failure_raises(monkeypatch):
    monkeypatch.setattr(morley, "_matches_morley", lambda *args: False)
    with pytest.raises(LabelingSelfCheckFailed):
        morley_config(RIGHT_345)


@pytest.mark.parametrize("seed", range(20))
def test_chain_conics_are_the_condition_witnesses(seed):
    low, high = (15.0, 150.0) if seed % 2 == 0 else (1.0, 178.0)
    data = morley_config(float_triangle(random.Random(seed), low, high))
    assert data.inner_conic is data.report.inner6.witness_conic
    assert data.cevian_conic is data.report.tangent6.witness_conic


def test_missing_inner_witness_is_a_consistency_error(monkeypatch, capsys):
    original = morley.check_conditions

    def without_inner_witness(cfg, eps):
        report = original(cfg, eps)
        return report.replace(inner6=report.inner6.replace(witness_conic=None))

    monkeypatch.setattr(morley, "check_conditions", without_inner_witness)
    with pytest.raises(TheoremConsistencyError):
        morley_config(RIGHT_345)
    assert main(["morley", "--triangle", "0,0 4,0 0,3", "--json"]) == 2
    assert "internal consistency violation" in capsys.readouterr().err


def test_missing_cevian_witness_is_a_consistency_error(monkeypatch):
    original = morley.check_conditions

    def without_cevian_witness(cfg, eps):
        report = original(cfg, eps)
        return report.replace(tangent6=report.tangent6.replace(witness_conic=None))

    monkeypatch.setattr(morley, "check_conditions", without_cevian_witness)
    with pytest.raises(TheoremConsistencyError, match="touches the sixth"):
        morley_config(RIGHT_345)


def test_side_spread_sums_the_sides_in_their_order():
    # the sides AB, BC, CA add in that order, from the int 0; another order
    # changes the mean's last bit here
    vertices = (HPoint(0.0, 0.0, 1.0), HPoint(0.0, 0.1, 1.0), HPoint(0.4, 0.1, 1.0))
    assert morley.side_spread(vertices) == (0.304103520853922, 1.0269876576397363)


def test_morley_centers():
    data = morley_config(RIGHT_345)
    centroid = first_morley_center(RIGHT_345)
    assert projective_gap(data.centers.first, centroid) < 1e-12
    direct = second_morley_center(RIGHT_345)
    assert projective_gap(data.centers.second, direct) < 1e-9


def test_chains_close_on_fitted_conics():
    data = morley_config(RIGHT_345)
    report = porism_check(data.inner_conic, data.cevian_conic, expected_n=3, num_samples=25)
    assert report.all_closed
    assert report.max_gap < 1e-7


def test_sliver_triangle_still_works():
    # 1-1-178 degree sliver: a documented stress case; the equilateral
    # triangle survives but the conditioning is far worse than generic
    t = math.tan(math.radians(1.0))
    sliver = Triangle(
        HPoint(0.0, 0.0, 1.0),
        HPoint(1.0, 0.0, 1.0),
        HPoint(0.5, 0.5 * t, 1.0),
    )
    mean, spread = equilateral_side_spread(sliver)
    assert mean == pytest.approx(trig_side_oracle(sliver), rel=1e-9)
    assert spread < 1e-10
    center = second_morley_center(sliver, eps=1e-6)
    assert center is not None
