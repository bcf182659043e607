import random
from fractions import Fraction

import pytest

from conconic.linalg import det


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
