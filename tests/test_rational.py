"""Exact rank and solve by fraction-free integer elimination."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignsim.rational import (_eliminate, _float_rows, exact_rank,
                               exact_solve)


def arr(rows):
    return np.array(rows, dtype=np.float64)


def test_exact_rank_basics():
    assert exact_rank(arr([[1, 0], [0, 1]])) == 2
    assert exact_rank(arr([[0, 0], [0, 0]])) == 0
    assert exact_rank(arr([[1, 2], [2, 4]])) == 1
    # (1/3, 2/3) scaled by 3
    assert exact_rank(arr([[1, 2]])) == 1


def test_exact_rank_rectangular_and_product_structure():
    rng = np.random.default_rng(11)
    for _ in range(100):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(1, 8))
        inner = int(rng.integers(0, min(rows, cols) + 1))
        a = rng.integers(-4, 5, size=(rows, inner))
        b = rng.integers(-4, 5, size=(inner, cols))
        m = a @ b
        assert exact_rank(m.astype(np.float64)) == np.linalg.matrix_rank(m)


def test_exact_solve_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        while True:
            a = rng.integers(-5, 6, size=(n, n))
            if np.linalg.matrix_rank(a) == n:
                break
        x_true = [Fraction(int(v), int(rng.integers(1, 5)))
                  for v in rng.integers(-9, 10, size=n)]
        rhs = [sum(Fraction(int(a[i][j])) * x_true[j] for j in range(n))
               for i in range(n)]
        # the rhs times the lcm of its denominators, a float64 integer,
        # scales the solution by the same factor
        scale = math.lcm(*(v.denominator for v in rhs))
        x = exact_solve(a.astype(np.float64),
                        arr([int(v * scale) for v in rhs]))
        assert [v / scale for v in x] == x_true


def test_exact_solve_singular_raises():
    with pytest.raises(ZeroDivisionError):
        exact_solve(arr([[1, 2], [2, 4]]), arr([1, 1]))


def test_shape_validation():
    with pytest.raises(ValueError):
        exact_rank(np.empty((0, 2)))
    with pytest.raises(ValueError):
        exact_solve(arr([[1, 2, 3]]), arr([1]))
    with pytest.raises(ValueError):
        exact_rank(np.ones((1, 65)))
    # a vector is not a matrix, nor is a stack of matrices
    with pytest.raises(ValueError, match="2-D"):
        exact_rank(np.ones(3))
    with pytest.raises(ValueError, match="2-D"):
        exact_rank(np.ones((2, 2, 2)))
    # only float64 arrays: no lists, int arrays or Fraction entries
    for rows in ([[1.0, 2.0]], [[1, 2], [3]], np.ones((2, 2), dtype=int),
                 np.array([[Fraction(1, 3)]], dtype=object)):
        with pytest.raises(ValueError, match="float64"):
            exact_rank(rows)


# Every float is a binary (dyadic) rational; small integers, full 53-bit
# floats and Fractions with mixed denominators all go through the integer
# row scaling.  A Fraction system is scaled to a dyadic one before it
# becomes a float64 array (see as_float64).
SMALL_INTS = st.integers(-3, 3)
DYADICS = st.floats(-4, 4, allow_nan=False, allow_infinity=False)
EIGHTHS = st.integers(-64, 64).map(lambda k: k / 8)
FRACTIONS = st.fractions(-4, 4, max_denominator=12)


def as_float64(rows, rhs):
    """The system times the odd part of its denominators' lcm, as float64
    arrays: Fraction entries become dyadic, and a subnormal's power-of-two
    denominator cannot overflow the scale.  A 53-bit float times that
    factor may round; the checks read the system from the arrays."""
    entries = [Fraction(v) for v in [*(v for row in rows for v in row), *rhs]]
    scale = math.lcm(*(v.denominator for v in entries))
    scale >>= (scale & -scale).bit_length() - 1
    return (arr([[float(Fraction(v) * scale) for v in row] for row in rows]),
            arr([float(Fraction(v) * scale) for v in rhs]))


def _residuals(rows, x, rhs):
    """Each equation's exact residual for a float64 system."""
    return [sum(Fraction(a) * xi for a, xi in zip(row, x)) - Fraction(v)
            for row, v in zip(rows.tolist(), rhs.tolist())]


@st.composite
def nonsingular_systems(draw):
    """A diagonally dominant square system with its rows shuffled, so that
    elimination meets zero leading entries and has to swap rows."""
    n = draw(st.integers(1, 7))
    entries = draw(st.sampled_from([SMALL_INTS, DYADICS, FRACTIONS]))
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 2 * sum(abs(v) for j, v in enumerate(row) if j != i) + 1
    rows = draw(st.permutations(rows))
    return rows, draw(st.lists(entries, min_size=n, max_size=n))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(system=nonsingular_systems())
def test_exact_solve_satisfies_the_system_exactly(system):
    rows, rhs = as_float64(*system)
    x = exact_solve(rows, rhs)
    assert all(isinstance(v, Fraction) for v in x)
    assert _residuals(rows, x, rhs) == [0] * len(rows)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 7))
def test_exact_solve_raises_on_singular_systems(data, n):
    entries = data.draw(st.sampled_from([SMALL_INTS, EIGHTHS]))
    rows = [data.draw(st.lists(entries, min_size=n, max_size=n))
            for _ in range(n - 1)]
    coeffs = data.draw(st.lists(SMALL_INTS, min_size=n - 1,
                                max_size=n - 1))
    # an exact integer combination of the other rows (zero when n == 1)
    rows.append([sum((c * row[j] for c, row in zip(coeffs, rows)), 0)
                 for j in range(n)])
    rows = data.draw(st.permutations(rows))
    rhs = data.draw(st.lists(entries, min_size=n, max_size=n))
    with pytest.raises(ZeroDivisionError, match="singular system"):
        exact_solve(arr(rows), arr(rhs))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), rows=st.integers(1, 7), cols=st.integers(1, 7),
       inner=st.integers(0, 7))
def test_exact_rank_matches_numpy_on_integer_matrices(data, rows, cols,
                                                      inner):
    """Wide, tall and rank-deficient products, some with zeroed columns:
    columns dependent on earlier ones are skipped as pivot columns."""
    inner = min(inner, rows, cols)
    a = np.array(data.draw(st.lists(SMALL_INTS, min_size=rows * inner,
                                    max_size=rows * inner)),
                 dtype=int).reshape(rows, inner)
    b = np.array(data.draw(st.lists(SMALL_INTS, min_size=inner * cols,
                                    max_size=inner * cols)),
                 dtype=int).reshape(inner, cols)
    m = a @ b
    zeroed = data.draw(st.sets(st.integers(0, cols - 1)), label="zeroed")
    m[:, sorted(zeroed)] = 0
    assert exact_rank(m.astype(np.float64)) == np.linalg.matrix_rank(m)


def _with_constant_row(data, reduced, last, entries):
    """A square system holding (c, ..., c | t) at a drawn position, whose
    other rows are `reduced` lifted by a drawn last column:
    a_ij = r_ij + last_i, so det = +-c * det(reduced).  Half the draws
    take an integral t/c, half a fractional one."""
    n = len(reduced) + 1
    c = data.draw(entries.filter(lambda v: v != 0), label="c")
    ratio = data.draw(st.one_of(
        SMALL_INTS, FRACTIONS.filter(lambda f: f.denominator > 1)),
        label="t/c")
    rows = [[Fraction(v) + l for v in row] + [l]
            for row, l in zip(reduced, last)]
    k = data.draw(st.integers(0, n - 1), label="constant row")
    rows.insert(k, [c] * n)
    rhs = data.draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
    rhs.insert(k, Fraction(c) * ratio)
    return rows, rhs


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_exact_solve_with_a_constant_row_satisfies_the_system(data):
    reduced, _ = data.draw(nonsingular_systems(), label="reduced")
    entries = data.draw(st.sampled_from([SMALL_INTS, DYADICS, FRACTIONS]))
    last = data.draw(st.lists(entries, min_size=len(reduced),
                              max_size=len(reduced)))
    rows, rhs = as_float64(*_with_constant_row(data, reduced, last, entries))
    x = exact_solve(rows, rhs)
    assert all(isinstance(v, Fraction) for v in x)
    assert _residuals(rows, x, rhs) == [0] * len(rows)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 6))
def test_exact_solve_with_a_constant_row_raises_on_singular_systems(data,
                                                                    n):
    entries = data.draw(st.sampled_from([SMALL_INTS, EIGHTHS]))
    reduced = [data.draw(st.lists(entries, min_size=n, max_size=n))
               for _ in range(n - 1)]
    coeffs = data.draw(st.lists(SMALL_INTS, min_size=n - 1,
                                max_size=n - 1))
    # dependent reduced rows (a zero row when n == 1, which makes the
    # lifted row a second constant row)
    reduced.append([sum((c * row[j] for c, row in zip(coeffs, reduced)), 0)
                    for j in range(n)])
    last = data.draw(st.lists(entries, min_size=n, max_size=n))
    rows, rhs = as_float64(*_with_constant_row(data, reduced, last, entries))
    with pytest.raises(ZeroDivisionError, match="singular system"):
        exact_solve(rows, rhs)


# floats across the whole exponent range: signed zeros, subnormals, and
# 53-bit mantissas scaled by 2**-1000 to 2**1000
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.0]),
    st.integers(-2**52, 2**52).map(lambda k: k * 5e-324),
    st.builds(math.ldexp, st.floats(-1, 1, allow_nan=False),
              st.integers(-1000, 1000)))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 6))
def test_float_array_rows_match_the_entry_path(data, n):
    rows = np.array(data.draw(st.lists(FLOATS, min_size=n * n,
                                       max_size=n * n)),
                    dtype=np.float64).reshape(n, n)
    rhs = np.array(data.draw(st.lists(FLOATS, min_size=n, max_size=n)),
                   dtype=np.float64)
    system = np.column_stack((rows, rhs))
    # each row's Fraction values times the least power of two that
    # clears their denominators (every denominator is a power of two)
    want = []
    for row in system.tolist():
        fracs = [Fraction(v) for v in row]
        scale = max(v.denominator for v in fracs)
        want.append([int(v * scale) for v in fracs])
    assert _float_rows(system) == want
    try:
        x = exact_solve(rows, rhs)
    except ZeroDivisionError:
        # singular: the exact rank of the float rows is below n
        assert exact_rank(rows) < n
    else:
        assert _residuals(rows, x, rhs) == [0] * n


@pytest.mark.parametrize("rows, rhs", [
    (np.eye(2), np.array([1.0, np.inf])),
    (np.array([[1.0, np.nan], [0.0, 1.0]]), np.ones(2)),
    (np.array([[1.0, -np.inf], [0.0, 1.0]]), np.ones(2)),
    (np.eye(65), np.ones(65)),
    (np.ones((2, 3)), np.ones(2)),
    (np.eye(2), np.ones(3)),
    (np.eye(2), np.ones((2, 1))),
    (np.empty((0, 0)), np.empty(0)),
    (np.ones(2), np.ones(2)),
    ([[1.0, 0.0], [0.0, 1.0]], np.ones(2)),
    (np.eye(2, dtype=int), np.ones(2)),
    (np.array([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]],
              dtype=object), np.ones(2)),
    (np.eye(2), [1.0, 1.0]),
    (np.eye(2), np.ones(2, dtype=int)),
    (np.eye(2), np.array([Fraction(1), Fraction(1)], dtype=object)),
])
def test_float_array_system_validation(rows, rhs):
    with pytest.raises(ValueError):
        exact_solve(rows, rhs)


def one_column_eliminate(m, ncols):
    """The one-column Bareiss pass, kept as the reference for _eliminate:
    row r below the k-th pivot p becomes (p*row - row[col]*top) // prev,
    prev the previous pivot (1 at the start), and a column without a
    pivot is skipped."""
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


# few distinct values and many zeros, so that pivots are missing, 2x2
# minors vanish and rows have to be swapped
SPARSE_INTS = st.sampled_from([0, 0, 0, 1, -1, 2])
BIG_INTS = st.integers(-2**60, 2**60)


@st.composite
def integer_rows(draw):
    """Tall, wide and square integer rows, drawn entry by entry or as a
    product of lower inner dimension, with some columns zeroed, and the
    number of leading columns to eliminate over (odd or even, up to the
    width)."""
    rows, width = draw(st.integers(1, 9)), draw(st.integers(1, 10))
    entries = draw(st.sampled_from([SMALL_INTS, SPARSE_INTS, BIG_INTS]))
    inner = draw(st.integers(0, min(rows, width) + 1))
    if inner > min(rows, width):
        m = [draw(st.lists(entries, min_size=width, max_size=width))
             for _ in range(rows)]
    else:
        a = [draw(st.lists(SMALL_INTS, min_size=inner, max_size=inner))
             for _ in range(rows)]
        b = [draw(st.lists(entries, min_size=width, max_size=width))
             for _ in range(inner)]
        m = [[sum(x * y[j] for x, y in zip(row, b)) for j in range(width)]
             for row in a]
    for j in draw(st.sets(st.integers(0, width - 1)), label="zeroed"):
        for row in m:
            row[j] = 0
    return m, draw(st.integers(1, width), label="ncols")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(system=integer_rows())
def test_two_step_pass_leaves_the_one_column_rows(system):
    m, ncols = system
    got, want = [row[:] for row in m], [row[:] for row in m]
    assert _eliminate(got, ncols) == one_column_eliminate(want, ncols)
    assert got == want
    assert all(type(v) is int for row in got for v in row)
