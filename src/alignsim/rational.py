"""Exact rational linear algebra on float64 arrays.

Rank and square solves over the rationals for matrices up to 64x64, by
two-step fraction-free (Bareiss) integer elimination: each row is scaled
to integers once, which keeps both the rank and the solution, and every
later update divides exactly, so no gcd is taken until the solution's
Fractions are formed.  A pass eliminates two pivot columns: each entry
below both pivots becomes (c0*a[i][j] - c1*a[k+1][j] + c2*a[k][j]) //
prev, with prev the previous pivot and c0, c1, c2 2x2 minors over prev,
in 3 products and 1 division where two one-column passes take 4 and 2.
By Sylvester's identity every coefficient and every result is a minor
of the input, so each division is exact.  Every input is a float64
array, and floats are binary rationals, so each row scales exactly to
integers in one np.frexp pass.  A row (c, ..., c | t), c != 0, fixes
the unknowns' sum at t/c, so the solve eliminates over one unknown
fewer.  This is the exact solve of basis decompositions (every indexed
family's system holds such a row) and the oracle that anchors the
floating-point rank threshold in the test suite.
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

    A pass takes pivot columns c, c+1.  With prev the previous pivot (1
    at the start), k the first pivot row and D(r, i) the 2x2 minor of
    rows r, i on columns c, c+1, row i's one-step entry at c+1 is
    c1 = D(k, i) // prev.  The first row with c1 != 0 moves to k+1 and
    takes its one-step value; each row i below it becomes
    (c0*a[i][j] - c1*a[k+1][j] + c2*a[k][j]) // prev, with the second
    pivot c0 = D(k, k+1) // prev and c2 = D(k+1, i) // prev: the 3x3
    minor of rows k, k+1, i on columns c, c+1, j over prev**2.  Every
    entry is a minor of the input, so by Sylvester's identity every
    coefficient and every result is again one, and each // is exact.
    The last column, and a pivot column whose next column has no pivot
    (every c1 is 0), take the one-step update
    (p*a[i][j] - a[i][c]*a[k][j]) // prev with p = a[k][c]; a column
    without a pivot is skipped.  The pivot rows are those of a
    one-column pass, so every row ends with the same integers.  Only the
    columns right of the pivots are updated: at and left of them, every
    row below the pivot rows is zero.
    """
    nrows = len(m)
    rank, prev, col = 0, 1, 0
    while col < ncols and rank < nrows:
        pivot = next((r for r in range(rank, nrows) if m[r][col]), None)
        if pivot is None:
            col += 1
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        p, nxt = top[col], col + 1
        if nxt < ncols:
            q = top[nxt]
            c1s = [(p * row[nxt] - row[col] * q) // prev
                   for row in m[rank + 1:]]
            second = next((i for i, c1 in enumerate(c1s) if c1), None)
            if second is not None:
                k = rank + 1
                m[k], m[k + second] = m[k + second], m[k]
                c1s[0], c1s[second] = c1s[second], c1s[0]
                mid, c0, s = m[k], c1s[0], nxt + 1
                a, b = mid[col], mid[nxt]
                t0, t1 = top[s:], mid[s:]
                mid[s:] = [(p * y - a * x) // prev for x, y in zip(t0, t1)]
                mid[col], mid[nxt] = 0, c0
                for row, c1 in zip(m[k + 1:], c1s[1:]):
                    c2 = (a * row[nxt] - row[col] * b) // prev
                    row[s:] = [(c0 * z - c1 * y + c2 * x) // prev
                               for x, y, z in zip(t0, t1, row[s:])]
                    row[col] = row[nxt] = 0
                prev, rank, col = c0, rank + 2, s
                continue
        t0 = top[nxt:]
        for row in m[rank + 1:]:
            c = row[col]
            row[nxt:] = [(p * y - c * x) // prev
                         for x, y in zip(t0, row[nxt:])]
            row[col] = 0
        prev, rank, col = p, rank + 1, nxt
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
