"""Numeric rank policy, cross-checked against the exact rational oracle."""

import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignsim import linalg
from alignsim.linalg import is_subspace, numeric_rank_by_shape
from alignsim.rational import exact_rank


def _normalized(a, axis=-2):
    """The kernel's scaling step (-2: columns), inside the overflow context
    that numeric_rank_by_shape enters for it."""
    with np.errstate(over="ignore"):
        return linalg._unit_vectors(a, axis)


def test_default_tolerance():
    assert linalg.RELATIVE_THRESHOLD == 1e-8


def _ratio_matrix(ratio):
    # equal column norms, so the kernel's column scaling keeps the
    # singular values' ratio: sigma_2 / sigma_1 = ratio
    return np.array([[1.0, 1.0], [-ratio, ratio]])


def test_rank_threshold_boundary():
    # 2e-8 sits above the fixed 1e-8 threshold and 5e-9 below it
    above, below = _ratio_matrix(2e-8), _ratio_matrix(5e-9)
    r = numeric_rank_by_shape(
        {"above": above, "below": below, "stack": np.stack([above, below])})
    assert (r["above"], r["below"], r["stack"].tolist()) == (2, 1, [2, 1])


def test_normalized_unit_norms():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(6, 4)) * 100
    norms = np.linalg.norm(_normalized(a), axis=0)
    assert np.allclose(norms, 1.0)


def test_normalized_keeps_zero_columns():
    a = np.zeros((3, 2))
    a[:, 0] = [1.0, 2.0, 2.0]
    out = _normalized(a)
    assert np.all(out[:, 1] == 0.0)


@pytest.mark.parametrize("lo, hi", [(1e160, 2e160), (1e-300, 2e-300),
                                    (1e-170, 2e-170)])
def test_normalized_rescales_large_and_tiny_columns(lo, hi):
    # squares of these entries overflow or underflow; an exact power-of-two
    # scale gives the bits of the same matrix brought near 1
    rng = np.random.default_rng(5)
    a = rng.uniform(lo, hi, size=(2, 7, 4)) * rng.choice([-1.0, 1.0],
                                                         size=(2, 7, 4))
    a[0, :, 1] = 0.0
    _, exp = np.frexp(np.abs(a).max(axis=-2, keepdims=True))
    want = _normalized(np.ldexp(a, -exp))
    assert _normalized(a).tobytes() == want.tobytes()
    assert np.allclose(np.linalg.norm(want, axis=-2)[:, [0, 2, 3]], 1.0)
    # row normalization too, and the ranks are the ones near 1
    m = a[1][:, :3] * [1.0, 1.0, 0.5]
    assert _normalized(m, axis=-1).tobytes() == _normalized(
        np.ldexp(m, -np.frexp(np.abs(m).max(axis=-1, keepdims=True))[1]),
        axis=-1).tobytes()
    near_one = a[1] / np.abs(a[1]).max()
    assert numeric_rank_by_shape({"a1": a[1], "near_one": near_one}) == {
        "a1": 4, "near_one": 4}
    assert numeric_rank_by_shape({"m": m}, balance_rows=True) == {"m": 3}
    assert numeric_rank_by_shape({"a0": a[0], "a1": a[1]}) == {"a0": 3,
                                                              "a1": 4}


def test_normalized_keeps_the_bits_of_representable_norms():
    # the rescale runs only for out-of-range norms, and where it would not
    # be needed it changes nothing
    rng = np.random.default_rng(9)
    for _ in range(200):
        a = rng.normal(size=(9, 5)) * 10.0 ** rng.uniform(-8, 8, size=5)
        _, exp = np.frexp(np.abs(a).max(axis=0))
        assert _normalized(a).tobytes() == _normalized(
            np.ldexp(a, -exp)).tobytes()


def test_rank_simple_cases():
    assert numeric_rank_by_shape(
        {"eye": np.eye(5), "zeros": np.zeros((4, 3)), "ones": np.ones((4, 3)),
         "column": np.array([[1.0], [2.0], [3.0]])}) == {
            "eye": 5, "zeros": 0, "ones": 1, "column": 1}
    # integer input is ranked as float, in one stack with its shape
    assert numeric_rank_by_shape(
        {"int": np.eye(3, dtype=int), "float": np.ones((3, 3))}) == {
            "int": 3, "float": 1}


def test_rank_matches_exact_oracle_on_random_integer_matrices():
    rng = np.random.default_rng(7)
    for _ in range(200):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        inner = int(rng.integers(0, min(rows, cols) + 1))
        if inner == 0:
            m = np.zeros((rows, cols))
        else:
            a = rng.integers(-5, 6, size=(rows, inner))
            b = rng.integers(-5, 6, size=(inner, cols))
            m = (a @ b).astype(float)
        assert numeric_rank_by_shape({"m": m}) == {"m": exact_rank(m)}


def test_rank_near_dependence_respects_threshold(monkeypatch):
    base = np.array([[1.0, 1.0], [0.0, 1e-12], [0.0, 0.0]])
    assert numeric_rank_by_shape({"base": base}) == {"base": 1}
    monkeypatch.setattr(linalg, "RELATIVE_THRESHOLD", 1e-15)
    assert numeric_rank_by_shape({"base": base}) == {"base": 2}


def test_balance_rows_recovers_dimensions_on_tiny_rows():
    # two independent columns whose difference lives only in a row that is
    # ~1e-10 of the others: plain rank collapses it, balanced rank does not
    m = np.array([[1.0, 1.0], [2.0, 2.0], [1e-10, 2e-10]])
    assert numeric_rank_by_shape({"m": m}) == {"m": 1}
    assert numeric_rank_by_shape({"m": m}, balance_rows=True) == {"m": 2}
    # rank never exceeds the true value: dependent columns stay dependent
    dep = np.column_stack([m[:, 0], 3.0 * m[:, 0]])
    # zero rows are left alone
    z = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    assert numeric_rank_by_shape({"dep": dep, "z": z},
                                 balance_rows=True) == {"dep": 1, "z": 2}
    # each matrix of a stack is balanced on its own
    assert numeric_rank_by_shape({"stack": np.stack([m, dep, z])},
                                 balance_rows=True)["stack"].tolist() == [
                                     2, 1, 2]


def test_is_subspace():
    rng = np.random.default_rng(3)
    b = rng.normal(size=(6, 3))
    inside = b @ rng.normal(size=(3, 2))
    outside = rng.normal(size=(6, 1))
    assert is_subspace(inside, b)
    assert not is_subspace(outside, b)
    a, c = np.eye(4)[:, :2], np.eye(4)[:, 2:]
    assert is_subspace(a, a) and not is_subspace(a, c)
    with pytest.raises(ValueError):
        is_subspace(np.eye(3), np.eye(4))


def _rescaled(m):
    """m with each column brought near 1 by an exact power of two."""
    return np.ldexp(m, -np.frexp(np.abs(m).max(axis=-2, keepdims=True))[1])


def test_one_overflow_context_covers_every_shape():
    # numeric_rank_by_shape enters np.errstate(over="ignore") once for all
    # its shapes, and the kernel enters none of its own: columns near
    # 1e160, whose squares overflow, and near 1e-300, whose squares
    # underflow, in three shapes, a stack and a balance_rows call raise no
    # warning and get the ranks of their rescaled copies
    rng = np.random.default_rng(11)
    ms = {}
    for rows, cols in ((5, 3), (6, 4), (7, 2)):
        m = rng.uniform(0.5, 2.0, size=(rows, cols))
        m[:, 0] *= 1e160
        m[:, 1] *= 1e-300
        if cols > 2:
            m[:, -1] = m[:, 0]      # a dependent column: rank cols - 1
        ms[f"{rows}x{cols}"] = m
    ms["stack"] = np.stack([ms["6x4"], ms["6x4"][::-1]])
    big = {"big": rng.uniform(1e160, 2e160, size=(4, 3)),
           "tiny": rng.uniform(1e-300, 2e-300, size=(4, 5))}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = numeric_rank_by_shape(ms)
        got_balanced = numeric_rank_by_shape(big, balance_rows=True)
    want = numeric_rank_by_shape({k: _rescaled(m) for k, m in ms.items()})
    assert {k: np.asarray(v).tolist() for k, v in got.items()} == {
        k: np.asarray(v).tolist() for k, v in want.items()} == {
        "5x3": 2, "6x4": 3, "7x2": 2, "stack": [3, 3]}
    assert got_balanced == numeric_rank_by_shape(
        {k: _rescaled(m) for k, m in big.items()}, balance_rows=True) == {
        "big": 3, "tiny": 4}


def test_rank_rejects_nonfinite():
    with pytest.raises(ValueError):
        numeric_rank_by_shape({"m": np.array([[np.nan, 1.0]])})


def _svd_2d(m):
    """Singular values of a lone 2-D matrix, computed one matrix at a time:
    columns scaled by their np.linalg.norm, then one factorization."""
    norms = np.linalg.norm(m, axis=0)
    return np.linalg.svd(m / np.where(norms > 0, norms, 1.0),
                         compute_uv=False)


def _factored(fn, *args):
    """fn(*args) and the singular values of every matrix np.linalg.svd
    factored meanwhile, one array per matrix."""
    svd = np.linalg.svd
    seen = []

    def spy(a, *rest, **kwargs):
        s = svd(a, *rest, **kwargs)
        seen.extend(s.reshape(-1, s.shape[-1]))
        return s

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "svd", spy)
        out = fn(*args)
    return out, seen


def _same_arrays(got, want):
    """Equal as multisets of arrays, bit for bit."""
    return sorted(a.tobytes() for a in got) == sorted(a.tobytes() for a in want)


@st.composite
def containment_cases(draw):
    """A base, and a stack of candidates inside it, outside it, partly
    inside, or zero; columns are power-scaled and some are zeroed."""
    rows = draw(st.integers(1, 14))
    base_cols = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(["inside", "outside", "mixed",
                                           "zero"]), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inner = draw(st.integers(0, min(rows, base_cols)))
    base = rng.normal(size=(rows, inner)) @ rng.normal(size=(inner, base_cols))

    def candidate(kind):
        inside = base @ rng.normal(size=(base_cols, cols))
        if kind == "inside":
            return inside
        if kind == "outside":
            return rng.normal(size=(rows, cols))
        if kind == "mixed":
            return np.hstack([inside[:, 1:], rng.normal(size=(rows, 1))])
        return np.zeros((rows, cols))

    def scaled(m):
        m = m * 10.0 ** rng.integers(-12, 13, size=m.shape[1])
        return np.where(rng.random(m.shape[1]) < 0.15, 0.0, m)

    return scaled(base), np.array([scaled(candidate(k)) for k in kinds])


@settings(derandomize=True, max_examples=80, deadline=None)
@given(containment_cases())
def test_stacked_containment_matches_one_at_a_time(case):
    base, stack = case
    joints = [np.hstack([base, c]) for c in stack]
    ranks, seen = _factored(numeric_rank_by_shape,
                            {"base": base} | dict(enumerate(joints)))
    base_rank = ranks.pop("base")
    assert [r == base_rank for r in ranks.values()] == [
        is_subspace(c, base) for c in stack]
    assert ranks == {i: numeric_rank_by_shape({"j": j})["j"]
                     for i, j in enumerate(joints)}
    # every matrix the stack factored gets the singular values it gets
    # alone: the raw [base, c] is joined before normalizing
    want = [_svd_2d(np.hstack([base, c])) for c in stack] + [_svd_2d(base)]
    assert _same_arrays(seen, want)


@pytest.mark.parametrize("balance_rows", [False, True])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(containment_cases())
def test_stacked_numeric_rank_matches_one_at_a_time(balance_rows, case):
    base, stack = case
    rank = functools.partial(numeric_rank_by_shape, balance_rows=balance_rows)

    def svd_2d(m):
        return _svd_2d(_normalized(m, axis=-1) if balance_rows else m)

    def alone(m):
        return rank({"m": m})["m"]

    def ranked_by_name(ms):
        """The ranks of ms and the singular values factored, after checking
        that the ranks carry ms's names in ms's order and that each name's
        rank is its matrix's (or each of its stack's matrices') alone."""
        ranks, seen = _factored(rank, ms)
        assert list(ranks) == list(ms)
        assert {k: np.atleast_1d(r).tolist() for k, r in ranks.items()} == {
            k: [alone(x) for x in (m if m.ndim == 3 else [m])]
            for k, m in ms.items()}
        return ranks, seen

    ranks, seen = ranked_by_name({f"c{i}": m for i, m in enumerate(stack)})
    assert all(type(r) is int for r in ranks.values())
    assert len(seen) == len(stack)
    assert _same_arrays(seen, [svd_2d(m) for m in stack])
    # a dict of mixed shapes, ranked one stack per shape; the names are out
    # of sorted order, so the result's order is the input's, not a sort's
    mixed = {"z": base.T, **{f"c{i}": m for i, m in enumerate(stack)},
             "a": base}
    _, seen = ranked_by_name(mixed)
    assert _same_arrays(seen, [svd_2d(m) for m in mixed.values()])
    # 3-D stacks among 2-D matrices: an int array per stack, ranked with
    # the matrices of its shape
    mixed = {"stack": stack, "base_t": base.T, "first": stack[:1],
             "base": base, "reversed": stack[::-1]}
    ranks, seen = ranked_by_name(mixed)
    singles = [m for item in mixed.values()
               for m in (item if item.ndim == 3 else [item])]
    assert {k: np.ndim(r) for k, r in ranks.items()} == {
        "stack": 1, "base_t": 0, "first": 1, "base": 0, "reversed": 1}
    assert type(ranks["base_t"]) is int and type(ranks["base"]) is int
    assert _same_arrays(seen, [svd_2d(m) for m in singles])


def test_stacked_rank_validation():
    nan_inside, inf_inside = np.ones((2, 3, 3)), np.ones((4, 3, 2))
    nan_inside[1, 2, 0] = np.nan
    inf_inside[3, 0, 1] = -np.inf
    for ms, message in (
            ({"a": np.ones(3)}, "non-empty"),                  # not a matrix
            ({"a": np.ones((2, 3, 1, 1))}, "non-empty"),       # not a stack
            ({"a": np.zeros((3, 0))}, "non-empty"),            # no columns
            # an empty batch
            ({"a": np.eye(3), "b": np.zeros((0, 3, 3))}, "non-empty"),
            ({"a": np.eye(3), "b": np.full((3, 3), np.nan)}, "finite"),
            ({"a": np.eye(3), "b": np.full((3, 1), np.inf)}, "finite"),
            ({"a": np.eye(3), "b": nan_inside}, "finite"),  # nan in a stack
            # inf in a stack
            ({"a": inf_inside, "b": np.ones((3, 2))}, "finite")):
        with pytest.raises(ValueError, match=message):
            numeric_rank_by_shape(ms)
