"""Exact rational linear algebra.

Rank and square solves over the rationals for matrices up to 64x64, by
fraction-free (Bareiss) integer elimination: each row is scaled to
integers once, which keeps both the rank and the solution, and every
later update divides exactly, so no gcd is taken until the solution's
Fractions are formed.  Floats are binary rationals, so float input is
handled exactly, and a float64 array system is scaled in one np.frexp
pass.  A row (c, ..., c | t), c != 0, fixes the unknowns' sum at t/c, so
the solve eliminates over one unknown fewer.  This is the exact solve of
basis decompositions (every square indexed family holds such a row) and
the oracle that anchors the floating-point rank threshold in the test
suite.
"""

from fractions import Fraction
from math import lcm

import numpy as np

__all__ = ["exact_rank", "exact_solve"]

_MAX_SIDE = 64


def _check(rows):
    try:
        m = rows if getattr(rows, "ndim", 0) == 2 else list(map(list, rows))
    except TypeError:       # a row that is a number: a vector, not a matrix
        raise ValueError("expected a 2-D matrix") from None
    if m is not rows and any(np.ndim(x) for row in m for x in row):
        raise ValueError("expected a 2-D matrix")   # an entry that is a row
    if not len(m) or not len(m[0]):
        raise ValueError("empty matrix")
    ncols = len(m[0])
    if any(len(r) != ncols for r in m):
        raise ValueError("ragged matrix")
    if len(m) > _MAX_SIDE or ncols > _MAX_SIDE:
        raise ValueError("exact path is limited to small matrices")
    return m


def _integer_rows(m):
    """Each row times the lcm of its entries' denominators.

    Entries are read by their own ``as_integer_ratio`` (int, float,
    Fraction, Decimal); a row holding a type without it goes through
    Fraction.
    """
    out = []
    for row in m:
        try:
            ratios = [x.as_integer_ratio() for x in row]
        except AttributeError:
            ratios = [Fraction(x).as_integer_ratio() for x in row]
        scale = lcm(*(d for _, d in ratios))
        out.append([a * (scale // d) for a, d in ratios])
    return out


def _float_rows(a):
    """_integer_rows of a float64 array: an entry M * 2**k, M odd or 0,
    has denominator 2**max(0, -k), so it scales to M << (k - min(0, K))
    with K the least k in its row."""
    if not np.isfinite(a).all():
        raise ValueError("exact path needs finite entries")
    mant, exp = np.frexp(a)
    mant = (mant * 2.0**53).astype(np.int64)
    zeros = np.bitwise_count((mant & -mant) - 1)  # trailing 0 bits; 1 at 0
    k = np.where(mant == 0, 0, exp - 53 + zeros)
    shift = k - np.minimum(k.min(axis=1, keepdims=True), 0)
    return [list(map(int.__lshift__, row, s))
            for row, s in zip((mant >> zeros).tolist(), shift.tolist())]


def _eliminate(m, ncols):
    """Bareiss-eliminate the integer rows m in place over their first
    ncols columns and return the number of pivots found there.

    Row r below the k-th pivot p becomes (p*row - row[col]*top) // prev,
    where prev is the previous pivot (1 at the start); the division is
    exact because every entry stays a minor of the input.  A column
    without a pivot is skipped, which keeps that property.  Only the
    columns right of the pivot are updated: at and left of it, every row
    below the pivot row is zero.
    """
    nrows, width = len(m), len(m[0])
    rank, prev = 0, 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        p = top[col]
        for r in range(rank + 1, nrows):
            cur = m[r]
            c = cur[col]
            cur[col] = 0
            for j in range(col + 1, width):
                cur[j] = (p * cur[j] - c * top[j]) // prev
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank


def exact_rank(rows):
    """Rank over the rationals via fraction-free integer elimination."""
    m = _integer_rows(_check(rows))
    return _eliminate(m, len(m[0]))


def exact_solve(rows, rhs):
    """Solve a square rational system exactly; raises on singular input.

    Given a row (c, ..., c | t), t/c = u/v, x_last is u/v minus the
    others' sum, and each other row becomes
    ((a_ij - a_i,last) * v | b_i * v - a_i,last * u) over one unknown fewer.
    """
    a = _check(rows)
    b = rhs if isinstance(rhs, np.ndarray) else list(rhs)
    n = len(a)
    if len(a[0]) != n or np.shape(b) != (n,):
        raise ValueError("exact_solve expects a square system")
    if getattr(a, "dtype", None) == getattr(b, "dtype", None) == np.float64:
        m = _float_rows(np.column_stack((a, b)))
    else:
        m = _integer_rows([list(row) + [v] for row, v in zip(a, b)])
    const = next((r for r in m if r[0] and r[:n].count(r[0]) == n), None)
    if const and n > 1:
        m.remove(const)
        (u, v), n = Fraction(const[n], const[0]).as_integer_ratio(), n - 1
        m = [[(e - row[n]) * v for e in row[:n]] + [row[-1] * v - row[n] * u]
             for row in m]
    if _eliminate(m, n) < n:
        raise ZeroDivisionError("singular system")
    # The last pivot d is the determinant of the eliminated integer
    # system, so by Cramer's rule every y = d*x is an integer and each
    # back-substitution division below is exact.
    d = m[n - 1][n - 1]
    y = [0] * n
    for r in range(n - 1, -1, -1):
        row = m[r]
        acc = d * row[n] - sum(row[c] * y[c] for c in range(r + 1, n))
        y[r] = acc // row[r]
    x = [Fraction(w, d) for w in y]
    if len(x) < len(a):
        x.append(Fraction(u * d - v * sum(y), v * d))
    return x
