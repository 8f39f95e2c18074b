"""Exact rational linear algebra.

A deliberately small Gaussian-elimination kernel over ``fractions.Fraction``,
used as a slow secondary oracle for matrices up to 64x64: it anchors
the floating-point tolerance policy in the test suite and provides the
exact solve path for basis decompositions.
"""

from fractions import Fraction

__all__ = ["exact_rank", "exact_solve", "to_fractions"]

_MAX_SIDE = 64


def to_fractions(rows):
    """Deep-copy a matrix-like nest of numbers into Fractions."""
    return [[Fraction(x) for x in row] for row in rows]


def _check(rows):
    m = to_fractions(rows)
    if not m or not m[0]:
        raise ValueError("empty matrix")
    ncols = len(m[0])
    if any(len(r) != ncols for r in m):
        raise ValueError("ragged matrix")
    if len(m) > _MAX_SIDE or ncols > _MAX_SIDE:
        raise ValueError("exact path is limited to small matrices")
    return m


def _eliminate(m, ncols):
    """Forward-eliminate m in place over its first ncols columns and
    return the number of pivots found there.

    Row updates touch only the columns at and right of the pivot: to its
    left, the pivot row and every row below it are already zero.
    """
    nrows = len(m)
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        inv = top[col]
        for r in range(rank + 1, nrows):
            cur = m[r]
            if cur[col] != 0:
                factor = cur[col] / inv
                cur[col:] = [a - factor * b
                             for a, b in zip(cur[col:], top[col:])]
        rank += 1
        if rank == nrows:
            break
    return rank


def exact_rank(rows):
    """Rank over the rationals via fraction-free-enough Gaussian elimination."""
    m = _check(rows)
    return _eliminate(m, len(m[0]))


def exact_solve(rows, rhs):
    """Solve a square rational system exactly; raises on singular input."""
    a = _check(rows)
    b = [Fraction(x) for x in rhs]
    n = len(a)
    if len(a[0]) != n or len(b) != n:
        raise ValueError("exact_solve expects a square system")
    m = [row + [v] for row, v in zip(a, b)]
    if _eliminate(m, n) < n:
        raise ZeroDivisionError("singular system")
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = m[r][n] - sum(m[r][c] * x[c] for c in range(r + 1, n))
        x[r] = acc / m[r][r]
    return x
