"""Numeric rank and subspace tests.

All rank decisions in the package go through this module so the
floating-point tolerance policy lives in exactly one place: a singular
value counts toward the rank when it exceeds ``relative_threshold``
times the largest singular value.

One private kernel makes every decision.  It takes a ``(batch, rows,
cols)`` stack, scales each column to unit length along the row axis and
takes the singular values of every matrix from one ``np.linalg.svd``
call; LAPACK factors each matrix of a stack on its own, so a matrix gets
the same singular values, bit for bit, alone or inside a stack.  Inputs
are validated at the public functions.  ``numeric_rank_each`` ranks a
stack of same-shape matrices in one kernel call, and
``numeric_rank_by_shape`` ranks a list of matrices with one such stack
per distinct shape, so a caller with many small rank decisions (the
joints of every receiver in a trial) makes one call per shape.
``joint_rank_each`` and ``is_subspace_each`` test a whole stack of
candidates with one or two kernel calls: each joint matrix is
concatenated from the raw ``[base, candidate]`` before it is normalized,
exactly as ``joint_rank`` does, so the batched results equal the
one-at-a-time ones.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RankTolerance",
    "DEFAULT_TOL",
    "numeric_rank",
    "numeric_rank_each",
    "numeric_rank_by_shape",
    "balanced_rank",
    "joint_rank",
    "joint_rank_each",
    "is_subspace",
    "is_subspace_each",
]


@dataclass(frozen=True)
class RankTolerance:
    relative_threshold: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.relative_threshold < 1.0:
            raise ValueError("relative_threshold must lie in (0, 1)")


DEFAULT_TOL = RankTolerance()


def _as_matrix(m):
    a = np.asarray(m, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError("expected a non-empty 2-D matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _as_stack(m):
    a = np.asarray(m, dtype=float)
    if a.ndim != 3 or 0 in a.shape:
        raise ValueError("expected a non-empty (batch, rows, cols) stack")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _normalized(a):
    """Columns scaled to unit length along the row axis (zero columns
    untouched), for a matrix or a stack of them."""
    # np.linalg.norm's own formula, without its per-call overhead
    norms = np.sqrt((a * a).sum(axis=-2, keepdims=True))
    return a / np.where(norms > 0, norms, 1.0)


def _ranks(stack, tol):
    """Numeric rank of every matrix of a validated (batch, rows, cols) stack."""
    s = np.linalg.svd(_normalized(stack), compute_uv=False)
    return (s > tol.relative_threshold * s[:, :1]).sum(axis=-1)


def numeric_rank(m, tol=DEFAULT_TOL):
    """Count singular values above the relative threshold."""
    return int(_ranks(_as_matrix(m)[None], tol)[0])


def numeric_rank_each(ms, tol=DEFAULT_TOL):
    """``numeric_rank(m)`` for every matrix ``m`` of a (batch, rows, cols)
    stack, as an integer array, from one kernel call."""
    return _ranks(_as_stack(ms), tol)


def numeric_rank_by_shape(ms, tol=DEFAULT_TOL):
    """``numeric_rank(m)`` for every matrix ``m`` of a list, as a list of
    ints, from one ``numeric_rank_each`` stack per distinct shape."""
    by_shape = {}
    for i, m in enumerate(ms):
        by_shape.setdefault(np.shape(m), []).append(i)
    ranks = [0] * len(ms)
    for idx in by_shape.values():
        for i, r in zip(idx, numeric_rank_each([ms[i] for i in idx], tol)):
            ranks[i] = int(r)
    return ranks


def balanced_rank(m, tol=DEFAULT_TOL):
    """Rank after normalizing nonzero rows, then columns.

    Row scaling by a positive diagonal preserves rank exactly, and it keeps
    the threshold meaningful for matrices whose rows live on wildly
    different scales — e.g. columns that are products of many diagonal
    ratios, where a few rows can be orders of magnitude smaller than the
    rest and a true dimension would otherwise fall below the threshold.
    Only use this when every row is known to be signal, never noise.
    """
    a = _as_matrix(m)
    norms = np.linalg.norm(a, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    return int(_ranks((a / safe[:, None])[None], tol)[0])


def joint_rank(ms, tol=DEFAULT_TOL):
    """Rank of the column-wise concatenation of a list of matrices."""
    ms = list(ms)
    if not ms:
        raise ValueError("joint_rank needs at least one matrix")
    mats = [_as_matrix(m) for m in ms]
    rows = {m.shape[0] for m in mats}
    if len(rows) != 1:
        raise ValueError("matrices must share a row count")
    return int(_ranks(np.hstack(mats)[None], tol)[0])


def joint_rank_each(base, cands, tol=DEFAULT_TOL):
    """``joint_rank([base, c])`` for every matrix ``c`` of a (batch, rows,
    cols) stack, as an integer array."""
    base, cands = _as_matrix(base), _as_stack(cands)
    if cands.shape[1] != base.shape[0]:
        raise ValueError("row counts differ")
    bases = np.broadcast_to(base, (len(cands),) + base.shape)
    return _ranks(np.concatenate([bases, cands], axis=-1), tol)


def is_subspace(a, b, tol=DEFAULT_TOL):
    """True iff the column span of ``a`` lies inside the column span of ``b``."""
    return bool(is_subspace_each(_as_matrix(a)[None], b, tol)[0])


def is_subspace_each(cands, base, tol=DEFAULT_TOL):
    """``is_subspace(c, base)`` for every matrix ``c`` of a (batch, rows,
    cols) stack, as a boolean array; the base's rank is computed once."""
    return joint_rank_each(base, cands, tol) == numeric_rank(base, tol)
