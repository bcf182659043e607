import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conconic.linalg import det, dot, matvec3, row_norm

from conftest import small_fractions

# entries of every backend the triple helpers see: ints, Fractions and
# floats, with both signed zeros among the floats
entries = st.one_of(
    st.integers(-10**20, 10**20),
    small_fractions,
    st.sampled_from([0.0, -0.0]),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e150, max_value=1e150),
)
same_backend = st.one_of(
    st.tuples(*[st.integers(-10**20, 10**20)] * 3),
    st.tuples(*[small_fractions] * 3),
    st.tuples(*[st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e150, 1e150))] * 3),
)
triples = st.one_of(same_backend, st.tuples(entries, entries, entries))


def sum_dot(u, v):
    return sum(a * b for a, b in zip(u, v))


@given(triples, triples)
def test_dot_matches_the_sum_of_products(u, v):
    assert repr(dot(u, v)) == repr(sum_dot(u, v))


@given(st.tuples(triples, triples, triples), triples)
def test_matvec3_matches_the_sum_of_products(m, v):
    assert repr(matvec3(m, v)) == repr(tuple(sum_dot(row, v) for row in m))


@given(st.one_of(triples, st.lists(entries, min_size=6, max_size=6)))
def test_row_norm_matches_the_sum_of_squares(row):
    assert repr(row_norm(row)) == repr(math.sqrt(sum(float(v) * float(v) for v in row)))


def test_dot_keeps_the_sign_of_zero_of_the_sum():
    # sum starts from the int 0, so an all -0.0 sum is +0.0
    assert repr(dot((-0.0, -0.0, -0.0), (1.0, 1.0, 1.0))) == "0.0"
    assert repr(matvec3(((-0.0, 0.0, -1.0),) * 3, (1.0, -1.0, 0.0))) == "(0.0, 0.0, 0.0)"
    assert type(dot((1, 2, 3), (4, 5, 6))) is int
    assert dot((Fraction(1, 2), 0, 0), (3, 1, 1)) == Fraction(3, 2)


def test_det_of_a_fraction_matrix_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rnd = random.Random(5)
    for n in (1, 2, 3, 5, 6):
        for _ in range(20):
            rows = [
                [Fraction(rnd.randint(-9, 9), rnd.randint(1, 7)) for _ in range(n)]
                for _ in range(n)
            ]
            if rnd.random() < 0.25:
                rows[-1] = [2 * a - b / 3 for a, b in zip(rows[0], rows[1 % n])]
            expected = sympy.Matrix(n, n, [sympy.Rational(v.numerator, v.denominator)
                                           for r in rows for v in r]).det()
            got = det(rows)
            assert isinstance(got, (int, Fraction))
            assert got == Fraction(int(expected.p), int(expected.q))


def test_det_keeps_integer_matrices_in_int():
    integral = det([[Fraction(2), 1, 0], [0, Fraction(3), 1], [1, 0, 4]])
    assert integral == 25 and type(integral) is int
    rational = det([[Fraction(1, 2), 0], [0, 4]])
    assert rational == 2 and type(rational) is Fraction


def test_det_picks_its_route_from_the_entry_types():
    class Count(int):
        pass

    assert type(det([[2, 1], [1, 1]])) is int
    assert det([[Count(2), 1], [1, 1]]) == 1  # an int subclass is rational, not float
    assert type(det([[Fraction(1, 3), 1], [1, 1]])) is Fraction
    assert type(det([[2, 1], [1, 1.0]])) is float
    assert type(det([[True, 0], [0, 1]])) is float  # a bool is not a number here
    assert type(det([[Fraction(1, 2), False], [0, 1]])) is float
