import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from conconic import HPoint, Triangle


ROOT = Path(__file__).resolve().parent.parent


def load_script(rel):
    """The module of the dev script at ``rel`` (relative to the repository
    root, e.g. ``scripts/op_count.py``), loaded afresh from its file."""
    path = ROOT / rel
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def rnd():
    return random.Random(0xC0FFEE)


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
