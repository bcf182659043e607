"""Projective equivariance of the exact verdicts (metamorphic test).

Incidence, conconicity and concurrency are projective notions, so pushing
a configuration through an invertible integer map changes none of them:
the mapped configuration must give the same verdict tuple, the same zero
residuals, the image of each witness conic, and the same normalized chart
(the chart frame is built from the configuration's own points, so the
chart map of the image is the original one composed with the inverse
map).  The same holds for the six-point and six-line oracles on
sextuples.  The four positive families and the perturbed one, whose
residuals are nonzero, each run on seeds 0-59 with two maps per seed;
mapped points have varied last coordinates, so no verdict relies on
affine-normalized input.
"""

import random

import pytest

from conconic import CevianFeet, Triangle, build_config, check_conditions, conconic, cotangent, to_chart
from conconic.errors import GeometryError
from conconic.generate import (
    EXACT_FAMILIES,
    conconic_sextuple,
    cotangent_sextuple,
    exact_instance,
    random_line_sextuple,
    random_projective_map,
    random_sextuple,
)

SEEDS = range(60)
MAPS = 2


def assert_equivariant(before, after, pmap, label):
    """Same holds flag, same zero-ness of the residual, mapped witness."""
    assert after.holds == before.holds, label
    assert (after.residual == 0) == (before.residual == 0), label
    if before.witness_conic is None:
        assert after.witness_conic is None, label
    else:
        assert after.witness_conic == before.witness_conic.transformed(pmap), label


def chart_record(cfg):
    try:
        chart = to_chart(cfg)
    except GeometryError as err:
        return type(err).__name__
    return (chart.b1, chart.c2, chart.p, chart.q, None if chart.degenerate else chart.criterion)


@pytest.mark.parametrize("family", EXACT_FAMILIES)
def test_exact_verdicts_witnesses_and_charts_are_projectively_equivariant(family):
    for seed in SEEDS:
        rnd = random.Random(seed)
        tri, feet = exact_instance(rnd, family)
        cfg = build_config(tri, feet)
        report = check_conditions(cfg)
        chart = chart_record(cfg)
        for _ in range(MAPS):
            pmap = random_projective_map(rnd)
            image_tri = Triangle(*map(pmap.apply, tri.vertices))
            image_feet = CevianFeet(*map(pmap.apply, feet.outer))
            image_cfg = build_config(image_tri, image_feet)
            image = check_conditions(image_cfg)
            for (name, before), (_, after) in zip(report.named, image.named):
                assert_equivariant(before, after, pmap, (seed, name))
            assert chart_record(image_cfg) == chart, seed


def test_sextuple_oracles_are_projectively_equivariant():
    for seed in SEEDS:
        rnd = random.Random(seed)
        positive = seed % 2 == 0
        points = conconic_sextuple(rnd) if positive else random_sextuple(rnd)
        lines = cotangent_sextuple(rnd) if positive else random_line_sextuple(rnd)
        points_verdict, lines_verdict = conconic(points), cotangent(lines)
        assert points_verdict.holds == lines_verdict.holds == positive
        for _ in range(MAPS):
            pmap = random_projective_map(rnd)
            assert_equivariant(points_verdict, conconic([pmap.apply(p) for p in points]), pmap, seed)
            assert_equivariant(lines_verdict, cotangent([pmap.apply_line(l) for l in lines]), pmap, seed)
