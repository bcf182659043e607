import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from conconic import HPoint, Triangle
from conconic.generate import (
    concurrency_solved_instance,
    conjugate_instance,
    perturbed_failing_instance,
    through_point_instance,
)


@pytest.fixture
def rnd():
    return random.Random(0xC0FFEE)


# the five exact instance families of the benchmark's exact sweep
EXACT_FAMILIES = ("solved", "isogonal", "isotomic", "through", "perturbed")


def exact_family_instance(rnd, family):
    """(triangle, feet) of one instance of an ``EXACT_FAMILIES`` family."""
    if family == "solved":
        return concurrency_solved_instance(rnd)[:2]
    if family == "through":
        return through_point_instance(rnd)[:2]
    if family == "perturbed":
        return perturbed_failing_instance(rnd)
    return conjugate_instance(rnd, family)


# hypothesis strategies shared across test modules

# fractions in [-8, 8] with denominator at most 6, simplest first; one
# sampled strategy, because ``st.fractions`` builds a new strategy on every
# draw, which made drawing most of the running time of the tests using it
small_fractions = st.sampled_from(sorted(
    {Fraction(n, d) for d in range(1, 7) for n in range(-8 * d, 8 * d + 1)},
    key=lambda f: (f.denominator, abs(f), f),
))

nonzero_fractions = small_fractions.filter(lambda f: f != 0)

unit_interval_fractions = st.fractions(
    min_value=Fraction(1, 24), max_value=Fraction(23, 24), max_denominator=24
)


@st.composite
def exact_points(draw):
    coords = [draw(small_fractions) for _ in range(3)]
    if all(c == 0 for c in coords):
        coords[2] = Fraction(1)
    return HPoint(*coords)


@st.composite
def exact_affine_points(draw):
    return HPoint(draw(small_fractions), draw(small_fractions), 1)


@st.composite
def exact_triangles(draw):
    from hypothesis import assume

    from conconic.linalg import det3

    pts = [draw(exact_affine_points()) for _ in range(3)]
    assume(det3(tuple(p.coords for p in pts)) != 0)
    return Triangle(*pts)
