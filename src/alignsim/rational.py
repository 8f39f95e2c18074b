"""Exact rational linear algebra on float64 arrays.

Rank and square solves over the rationals for matrices up to 64x64, by
fraction-free (Bareiss) integer elimination: each row is scaled to
integers once, which keeps both the rank and the solution, and every
later update divides exactly, so no gcd is taken until the solution's
Fractions are formed.  Every input is a float64 array, and floats are
binary rationals, so each row scales exactly to integers in one np.frexp
pass.  A row (c, ..., c | t), c != 0, fixes the unknowns' sum at t/c, so
the solve eliminates over one unknown fewer.  This is the exact solve of
basis decompositions (every indexed family's system holds such a row)
and the oracle that anchors the floating-point rank threshold in the
test suite.
"""

from fractions import Fraction

import numpy as np

__all__ = ["exact_rank", "exact_solve"]

_MAX_SIDE = 64


def _check(a):
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64
            and a.ndim == 2):
        raise ValueError("expected a 2-D float64 array")
    if not a.size:
        raise ValueError("empty matrix")
    if max(a.shape) > _MAX_SIDE:
        raise ValueError("exact path is limited to small matrices")
    return a


def _float_rows(a):
    """Each row of a float64 array times the least power of two that
    makes it integral: an entry M * 2**k, M odd or 0, has denominator
    2**max(0, -k), so it scales to M << (k - min(0, K)) with K the least
    k in its row."""
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
    m = _float_rows(_check(rows))
    return _eliminate(m, len(m[0]))


def exact_solve(rows, rhs):
    """Solve a square float64 system over the rationals; raises
    ZeroDivisionError on singular input.

    Given a row (c, ..., c | t), t/c = u/v, x_last is u/v minus the
    others' sum, and each other row becomes
    ((a_ij - a_i,last) * v | b_i * v - a_i,last * u) over one unknown fewer.
    """
    a = _check(rows)
    n = len(a)
    if (a.shape[1] != n or not isinstance(rhs, np.ndarray)
            or rhs.dtype != np.float64 or rhs.shape != (n,)):
        raise ValueError("exact_solve expects a square float64 system")
    m = _float_rows(np.column_stack((a, rhs)))
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
