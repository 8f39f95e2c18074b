"""Numeric rank policy, cross-checked against the exact rational oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignsim.linalg import (DEFAULT_TOL, RankTolerance, balanced_rank,
                             is_subspace, is_subspace_each, joint_rank,
                             joint_rank_each, normalize_columns, numeric_rank,
                             numeric_rank_each, same_span_each)
from alignsim.rational import exact_rank


def test_default_tolerance():
    assert DEFAULT_TOL.relative_threshold == 1e-8


@pytest.mark.parametrize("bad", [0.0, 1.0, -1e-8, 2.0])
def test_tolerance_validation(bad):
    with pytest.raises(ValueError):
        RankTolerance(bad)


def test_normalize_columns_unit_norms():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(6, 4)) * 100
    norms = np.linalg.norm(normalize_columns(a), axis=0)
    assert np.allclose(norms, 1.0)


def test_normalize_columns_keeps_zero_columns():
    a = np.zeros((3, 2))
    a[:, 0] = [1.0, 2.0, 2.0]
    out = normalize_columns(a)
    assert np.all(out[:, 1] == 0.0)


def test_rank_simple_cases():
    assert numeric_rank(np.eye(5)) == 5
    assert numeric_rank(np.zeros((4, 3))) == 0
    assert numeric_rank(np.ones((4, 3))) == 1
    one_dim = np.array([1.0, 2.0, 3.0])
    assert numeric_rank(one_dim) == 1


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
        assert numeric_rank(m) == exact_rank(m.astype(int).tolist())


def test_rank_near_dependence_respects_threshold():
    base = np.array([[1.0, 1.0], [0.0, 1e-12], [0.0, 0.0]])
    assert numeric_rank(base) == 1
    assert numeric_rank(base, RankTolerance(1e-15)) == 2


def test_balanced_rank_recovers_dimensions_on_tiny_rows():
    # two independent columns whose difference lives only in a row that is
    # ~1e-10 of the others: plain rank collapses it, balanced rank does not
    m = np.array([[1.0, 1.0], [2.0, 2.0], [1e-10, 2e-10]])
    assert numeric_rank(m) == 1
    assert balanced_rank(m) == 2
    # rank never exceeds the true value: dependent columns stay dependent
    dep = np.column_stack([m[:, 0], 3.0 * m[:, 0]])
    assert balanced_rank(dep) == 1
    # zero rows are left alone
    z = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    assert balanced_rank(z) == 2


def test_joint_rank_concatenates():
    a = np.eye(4)[:, :2]
    b = np.eye(4)[:, 2:]
    assert joint_rank([a, b]) == 4
    assert joint_rank([a, a]) == 2


def test_joint_rank_validates_rows():
    with pytest.raises(ValueError):
        joint_rank([np.eye(3), np.eye(4)])
    with pytest.raises(ValueError):
        joint_rank([])


def test_is_subspace():
    rng = np.random.default_rng(3)
    b = rng.normal(size=(6, 3))
    inside = b @ rng.normal(size=(3, 2))
    outside = rng.normal(size=(6, 1))
    assert is_subspace(inside, b)
    assert not is_subspace(outside, b)
    with pytest.raises(ValueError):
        is_subspace(np.eye(3), np.eye(4))


def test_rank_rejects_nonfinite():
    with pytest.raises(ValueError):
        numeric_rank(np.array([[np.nan, 1.0]]))


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
    flags, seen = _factored(is_subspace_each, stack, base)
    assert flags.tolist() == [is_subspace(c, base) for c in stack]
    assert joint_rank_each(base, stack).tolist() == [
        joint_rank([base, c]) for c in stack]
    # every matrix the stack factored gets the singular values it gets
    # alone: the raw [base, c] is joined before normalizing
    want = [_svd_2d(np.hstack([base, c])) for c in stack] + [_svd_2d(base)]
    assert _same_arrays(seen, want)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(containment_cases(), st.integers(0, 2**32 - 1))
def test_stacked_span_equality_matches_one_at_a_time(case, seed):
    base, lefts = case
    rng = np.random.default_rng(seed)
    cols = lefts.shape[2]
    # half the rights span what their left spans, half a random space
    rights = np.array([
        left @ rng.normal(size=(cols, cols)) if rng.random() < 0.5
        else rng.normal(size=left.shape) for left in lefts])
    flags, seen = _factored(same_span_each, lefts, rights)
    assert flags.tolist() == [is_subspace(a, b) and is_subspace(b, a)
                              for a, b in zip(lefts, rights)]
    want = [_svd_2d(m) for a, b in zip(lefts, rights)
            for m in (np.hstack([b, a]), b, np.hstack([a, b]), a)]
    assert _same_arrays(seen, want)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(containment_cases())
def test_stacked_numeric_rank_matches_one_at_a_time(case):
    _, stack = case
    ranks, seen = _factored(numeric_rank_each, stack)
    assert ranks.tolist() == [numeric_rank(m) for m in stack]
    assert len(seen) == len(stack)
    assert _same_arrays(seen, [_svd_2d(m) for m in stack])


def test_stacked_rank_validation():
    with pytest.raises(ValueError):
        numeric_rank_each(np.eye(3))                    # not a stack
    with pytest.raises(ValueError):
        numeric_rank_each(np.full((2, 3, 1), np.nan))
    with pytest.raises(ValueError):
        is_subspace_each(np.eye(3), np.eye(3))          # not a stack
    with pytest.raises(ValueError):
        is_subspace_each(np.zeros((2, 4, 1)), np.eye(3))
    with pytest.raises(ValueError):
        same_span_each(np.zeros((2, 3, 1)), np.zeros((3, 3, 1)))
    with pytest.raises(ValueError):
        is_subspace_each(np.full((1, 3, 1), np.inf), np.eye(3))
