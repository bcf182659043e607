import functools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conconic.conics import Conic
from conconic.linalg import adjugate3, bareiss, det, det3, dot, matmul3, matvec3, row_norm, transpose3

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


def left_sum(terms):
    """The sum as one left fold from the int 0: the order that ``sum``
    takes up to Python 3.11 and that the package keeps on every version
    (from 3.12 ``sum`` compensates float rounding)."""
    return functools.reduce(operator.add, terms, 0)


def sum_dot(u, v):
    return left_sum(a * b for a, b in zip(u, v))


@given(triples, triples)
def test_dot_matches_the_sum_of_products(u, v):
    assert repr(dot(u, v)) == repr(sum_dot(u, v))


@given(st.tuples(triples, triples, triples), triples)
def test_matvec3_matches_the_sum_of_products(m, v):
    assert repr(matvec3(m, v)) == repr(tuple(sum_dot(row, v) for row in m))


@given(st.one_of(triples, st.lists(entries, min_size=6, max_size=6)))
def test_row_norm_matches_the_sum_of_squares(row):
    assert repr(row_norm(row)) == repr(math.sqrt(left_sum(float(v) * float(v) for v in row)))


def test_float_sums_fold_left_on_every_python_version():
    # Python 3.12's compensated ``sum`` reads 1.0000000000000002 and
    # 2.0000000000000004 here
    assert repr(row_norm((1.0, 1e-8, 1e-8, 1e-8, 1e-8, 0.0))) == "1.0"
    assert repr(Conic(1.0, 1e-8, 1e-8, 1e-8, 1e-8, 1e-8).gram_norm) == "2.0"


def test_dot_keeps_the_sign_of_zero_of_the_sum():
    # the sum starts from the int 0, so an all -0.0 sum is +0.0
    assert repr(dot((-0.0, -0.0, -0.0), (1.0, 1.0, 1.0))) == "0.0"
    assert repr(matvec3(((-0.0, 0.0, -1.0),) * 3, (1.0, -1.0, 0.0))) == "(0.0, 0.0, 0.0)"
    assert type(dot((1, 2, 3), (4, 5, 6))) is int
    assert dot((Fraction(1, 2), 0, 0), (3, 1, 1)) == Fraction(3, 2)


def cofactor_adjugate(m):
    """Entry [j][i] is (-1)**(i+j) times the minor of row i and column j,
    ``m[r0][s0] * m[r1][s1] - m[r0][s1] * m[r1][s0]`` over the remaining
    rows r0 < r1 and columns s0 < s1, negated as a whole."""
    def cofactor(i, j):
        (r0, r1), (s0, s1) = [k for k in range(3) if k != i], [k for k in range(3) if k != j]
        minor = m[r0][s0] * m[r1][s1] - m[r0][s1] * m[r1][s0]
        return minor if (i + j) % 2 == 0 else -minor
    return tuple(tuple(cofactor(i, j) for i in range(3)) for j in range(3))


def indexed_transpose(m):
    return tuple(tuple(m[r][c] for r in range(3)) for c in range(3))


signed_zeros = st.sampled_from([0.0, -0.0])
matrices = st.one_of(
    st.tuples(triples, triples, triples),
    st.tuples(*[st.tuples(*[st.one_of(signed_zeros, st.sampled_from([1.0, -1.0, 2.0]))] * 3)] * 3),
)
SINGULAR = [
    ((0.0, -0.0, 0.0), (-0.0, -0.0, 0.0), (0.0, 0.0, -0.0)),
    ((1.0, 2.0, -0.0), (2.0, 4.0, 0.0), (-3.0, -6.0, -0.0)),
    ((0.1, 0.2, 0.3), (0.4, 0.5, 0.6), (0.7, 0.8, 0.9)),
    ((1, 2, 3), (4, 5, 6), (7, 8, 9)),
    ((2, -4, 6), (-1, 2, -3), (0, 0, 0)),
    ((Fraction(1, 2), Fraction(1, 3), 1), (1, Fraction(2, 3), 2), (Fraction(-3, 7), 5, 0)),
]


@given(matrices)
def test_adjugate3_matches_the_cofactor_definition_bit_for_bit(m):
    assert repr(adjugate3(m)) == repr(cofactor_adjugate(m))
    assert repr(transpose3(m)) == repr(indexed_transpose(m))


@pytest.mark.parametrize("m", SINGULAR)
def test_adjugate3_of_singular_matrices_matches_the_cofactor_definition(m):
    assert repr(adjugate3(m)) == repr(cofactor_adjugate(m))
    assert repr(transpose3(m)) == repr(indexed_transpose(m))


def test_adjugate3_keeps_signed_zeros_and_exact_types():
    # an odd cofactor whose minor is +0.0 comes out -0.0, as -(a*b - c*d)
    # does (c*d - a*b would give +0.0)
    eye = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    assert repr(adjugate3(eye)) == "((1.0, -0.0, 0.0), (-0.0, 1.0, -0.0), (0.0, -0.0, 1.0))"
    m = ((2, -1, 0), (1, 3, 4), (0, 5, -2))
    adj = adjugate3(m)
    assert all(type(v) is int for row in adj for v in row)
    d = det3(m)
    assert matmul3(m, adj) == matmul3(adj, m) == ((d, 0, 0), (0, d, 0), (0, 0, d))
    fm = ((Fraction(1, 2), 1, 0), (0, Fraction(2, 3), 1), (1, 0, 3))
    assert matmul3(fm, adjugate3(fm)) == tuple(tuple(det3(fm) * (r == c) for c in range(3)) for r in range(3))


@pytest.mark.parametrize("entry", [
    lambda rnd: Fraction(rnd.randint(-9, 9), rnd.randint(1, 7)),
    lambda rnd: rnd.randint(-9, 9),
], ids=["fraction", "int"])
def test_det_matches_sympy(entry):
    # every matrix takes the float LU, an integer one included
    sympy = pytest.importorskip("sympy")
    rnd = random.Random(5)
    for n in (1, 2, 3, 5, 6):
        for _ in range(20):
            rows = [[entry(rnd) for _ in range(n)] for _ in range(n)]
            if rnd.random() < 0.25:
                rows[-1] = [6 * a - b for a, b in zip(rows[0], rows[1 % n])]
            expected = sympy.Matrix(n, n, [sympy.Rational(v.numerator, v.denominator)
                                           for r in rows for v in r]).det()
            got = det(rows)
            assert type(got) is float
            bound = math.prod(row_norm(r) for r in rows)  # Hadamard's bound on |det|
            assert math.isclose(got, float(expected), rel_tol=1e-9, abs_tol=1e-12 * bound)


def _sympy_matrix(sympy, rows):
    return sympy.Matrix(len(rows), len(rows[0]), [v for r in rows for v in r])


def _low_rank_rows(rnd, nrows, ncols, rank, tied_columns):
    """Integer rows of rank at most ``rank``: ``nrows`` random mixes of
    ``rank`` random rows.  With ``tied_columns`` column 1 is twice column
    0, so elimination finds no pivot in column 1 and skips it."""
    basis = [[rnd.randint(-4, 4) for _ in range(ncols)] for _ in range(rank)]
    if tied_columns:
        for b in basis:
            b[1] = 2 * b[0]
    return [
        [sum(w * b[j] for w, b in zip(weights, basis)) for j in range(ncols)]
        for weights in ([rnd.randint(-3, 3) for _ in range(rank)] for _ in range(nrows))
    ]


def test_bareiss_determinant_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rnd = random.Random(12)
    seen = set()
    for n in range(1, 7):
        for k in range(60):
            rows = [[rnd.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            if k % 3 == 1:
                rows[0][0] = 0  # a zero leading pivot: row swap, or a skipped column
            if k % 3 == 2:
                rows[-1] = [2 * a - b for a, b in zip(rows[0], rows[(k // 3) % n])]
            before = [list(r) for r in rows]
            d, _ = bareiss(rows)
            assert rows == before
            assert type(d) is int
            expected = _sympy_matrix(sympy, rows).det()
            assert d == int(expected)
            seen.add((d != 0, rows[0][0] == 0))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("shape", [(5, 6), (6, 6)])
def test_bareiss_kernel_at_rank_one_short_matches_sympy_nullspace(shape):
    sympy = pytest.importorskip("sympy")
    nrows, ncols = shape
    rnd = random.Random(ncols * 10 + nrows)
    checked = 0
    for k in range(120):
        rows = _low_rank_rows(rnd, nrows, ncols, ncols - 1, tied_columns=k % 2 == 1)
        matrix = _sympy_matrix(sympy, rows)
        if matrix.rank() != ncols - 1:
            continue
        d, kernel = bareiss(rows)
        assert d == 0
        assert all(type(v) is int for v in kernel) and any(kernel)
        (expected,) = matrix.nullspace()
        assert sympy.Matrix.hstack(sympy.Matrix(kernel), expected).rank() == 1
        checked += 1
    assert checked >= 100


@pytest.mark.parametrize("shape", [(3, 3), (5, 6), (6, 6)])
def test_bareiss_has_no_kernel_two_short_of_full_rank(shape):
    sympy = pytest.importorskip("sympy")
    nrows, ncols = shape
    rnd = random.Random(ncols * 100 + nrows)
    for k in range(60):
        rank = rnd.randint(0, ncols - 2)
        rows = _low_rank_rows(rnd, nrows, ncols, rank, tied_columns=k % 2 == 1 and rank > 0)
        assert _sympy_matrix(sympy, rows).rank() <= ncols - 2
        assert bareiss(rows) == (0, None)
