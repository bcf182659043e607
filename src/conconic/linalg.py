"""Small dense linear algebra over exact rationals or floats.

Everything here works on plain tuples/lists so both backends share one code
path.  A determinant past 3x3 is partially pivoted LU in floats, whatever
its entries: exact six-point verdicts take their 6x6 determinant and
witness from 3x3 brackets (``conics._bracket_parts``), so no library
caller has an exact one to take.  ``bareiss``, a fraction-free integer
echelon pass that also returns the integral null vector of a matrix whose
rank is one below its column count, is the exact reference that the
tests check those bracket verdicts against; no library function calls it.

The triple helpers (``dot``, ``cross``, ``det3``, ``matvec3``,
``transpose3``, ``adjugate3`` and the triple case of ``row_norm``) are
written out term by term and fix their order themselves.  A sum runs
``0 + a0*b0 + a1*b1 + a2*b2``, one left fold from the int 0, and a longer
``row_norm`` loops in that order.  The builtin ``sum`` keeps that order
only up to Python 3.11 (from 3.12 it compensates float rounding), so no
float sum of the package calls it.  An adjugate entry is the minor
``p*q - r*s`` of the cofactor definition, negated as a whole where its
sign is odd.  So a float result keeps its last bit on every Python version
and the sign of a zero (an all ``-0.0`` sum gives ``+0.0``), and exact
entries stay ``int`` or ``Fraction``.

A float chain step runs these forms a few dozen times, and there the
cost of a call exceeds its arithmetic.  So the helpers on the chain path
(``conics._meet_coords`` and ``_form_zero``,
``poncelet._point_on_line_away_from`` and ``second_intersection``,
``projective.unit_coords`` and ``coincident``) write the crosses, Gram
forms and norms out in place, in exactly the order fixed here: a form is
``0 + a0*b0 + a1*b1 + a2*b2``, and a cross with a basis vector keeps its
literal ``*0`` and ``*1`` products (``l1*0 - l2*0``), which give each
zero its sign.  A chain therefore keeps its last bits and signed zeros,
and an exact triple takes the same lines and stays exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .scalars import Scalar, all_exact

Triple = Tuple[Scalar, Scalar, Scalar]


def dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    """Dot product of two triples."""
    return 0 + u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def cross(u: Sequence[Scalar], v: Sequence[Scalar]) -> Triple:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def det3(m: Sequence[Sequence[Scalar]]) -> Scalar:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def transpose3(m):
    r0, r1, r2 = m
    return ((r0[0], r1[0], r2[0]), (r0[1], r1[1], r2[1]), (r0[2], r1[2], r2[2]))


def matvec3(m, v) -> Triple:
    r0, r1, r2 = m
    x, y, z = v
    return (
        0 + r0[0] * x + r0[1] * y + r0[2] * z,
        0 + r1[0] * x + r1[1] * y + r1[2] * z,
        0 + r2[0] * x + r2[1] * y + r2[2] * z,
    )


def matmul3(a, b):
    bt = transpose3(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def adjugate3(m):
    """Transposed cofactor matrix; equals det(m) * inverse(m)."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = m
    return (
        (b1 * c2 - b2 * c1, -(a1 * c2 - a2 * c1), a1 * b2 - a2 * b1),
        (-(b0 * c2 - b2 * c0), a0 * c2 - a2 * c0, -(a0 * b2 - a2 * b0)),
        (b0 * c1 - b1 * c0, -(a0 * c1 - a1 * c0), a0 * b1 - a1 * b0),
    )


def row_norm(row: Sequence[Scalar]) -> float:
    """Euclidean norm in float; triples skip the generic loop."""
    if len(row) == 3:
        x, y, z = float(row[0]), float(row[1]), float(row[2])
        return math.sqrt(x * x + y * y + z * z)
    total = 0
    for v in row:
        total += float(v) * float(v)
    return math.sqrt(total)


def bareiss(rows: Sequence[Sequence[int]]) -> Tuple[int, Optional[Tuple[int, ...]]]:
    """One fraction-free echelon pass over an integer matrix (Bareiss 1968).

    Forward elimination with row swaps; a column with no nonzero pivot left
    is skipped.  Every entry then stays an integer minor of the row-swapped
    matrix, so each division by the previous pivot is exact.  Returns
    ``(d, kernel)``:

    - ``d`` is the determinant of a square matrix: the sign of the swaps
      times the last pivot at full rank, else 0 (always 0 when not square);
    - ``kernel`` is the integral null vector when the rank is one below the
      column count, else None.  It is back-substituted from the free entry
      set to the last pivot, which makes it the Cramer vector of the pivot
      columns, so every quotient there is exact too.
    """
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    sign = prev = 1
    pivots = []  # pivot column of each echelon row
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        if m[r][c] == 0:
            swap = next((i for i in range(r + 1, nrows) if m[i][c] != 0), None)
            if swap is None:
                continue
            m[r], m[swap] = m[swap], m[r]
            sign = -sign
        top = m[r]
        p = top[c]
        for i in range(r + 1, nrows):
            row = m[i]
            a = row[c]
            for j in range(c + 1, ncols):
                row[j] = (row[j] * p - a * top[j]) // prev
            row[c] = 0
        pivots.append(c)
        prev = p
        r += 1
    d = sign * prev if r == nrows == ncols else 0
    if r != ncols - 1:
        return d, None
    (free,) = set(range(ncols)).difference(pivots)
    x = [0] * ncols
    x[free] = prev
    for row, c in zip(reversed(m[:r]), reversed(pivots)):
        x[c] = -sum(row[j] * x[j] for j in range(c + 1, ncols)) // row[c]
    return d, tuple(x)


def det(rows) -> float:
    """Determinant of a square matrix by partially pivoted LU in floats,
    whatever the entry types."""
    n = len(rows)
    m = [[float(v) for v in r] for r in rows]
    d = 1.0
    for k in range(n):
        pivot_row = max(range(k, n), key=lambda i: abs(m[i][k]))
        if m[pivot_row][k] == 0.0:
            return 0.0
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            d = -d
        pivot = m[k][k]
        d *= pivot
        for i in range(k + 1, n):
            factor = m[i][k] / pivot
            for j in range(k, n):
                m[i][j] -= factor * m[k][j]
    return d


def normalized_det(rows) -> Scalar:
    """Determinant residual of a square matrix, ``det3`` for three rows and
    ``det`` otherwise: an exact ``det3`` is returned as it is, a float
    one divided by the product of the Euclidean row norms (``0.0`` when
    that product is zero), so a float residual is scale invariant."""
    d = det3(rows) if len(rows) == 3 else det(rows)
    if not isinstance(d, float):
        return d
    scale = math.prod(row_norm(r) for r in rows)
    return d / scale if scale else 0.0


def nullspace(rows, ncols: int, eps: float = 0.0):
    """Null space basis of an underdetermined system via Gaussian elimination.

    Exact entries use exact pivots; float entries treat a pivot column as
    zero when its best pivot is below ``eps`` times the largest entry seen.
    Returns a list of null vectors, one per free column.
    """
    flat = [v for r in rows for v in r]
    exact = all_exact(flat)
    if exact:
        m = [[Fraction(v) for v in r] for r in rows]
    else:
        m = [[float(v) for v in r] for r in rows]
        norm_scale = max((abs(v) for r in m for v in r), default=0.0)
    nrows = len(m)
    pivots = []  # (row, col)
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pivot_row = None
        if exact:
            pivot_row = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        else:
            best = max(range(r, nrows), key=lambda i: abs(m[i][c]))
            if abs(m[best][c]) > eps * max(norm_scale, 1e-300):
                pivot_row = best
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot = m[r][c]
        m[r] = [v / pivot for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append((r, c))
        r += 1
    pivot_cols = [c for _, c in pivots]
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0) if exact else 0.0] * ncols
        vec[fc] = Fraction(1) if exact else 1.0
        for row, col in pivots:
            vec[col] = -m[row][fc]
        basis.append(tuple(vec))
    return basis
