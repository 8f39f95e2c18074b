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
are validated at the public functions.  The regime verifiers list every
matrix they rank, joints concatenated from the raw ``[base, candidate]``
before they are normalized, and ``numeric_rank_by_shape`` ranks the
list with one kernel call per distinct shape.  ``numeric_rank``,
``joint_rank`` and ``is_subspace`` make one decision each.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RankTolerance",
    "DEFAULT_TOL",
    "numeric_rank",
    "numeric_rank_by_shape",
    "balanced_rank",
    "joint_rank",
    "is_subspace",
]


@dataclass(frozen=True)
class RankTolerance:
    relative_threshold: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.relative_threshold < 1.0:
            raise ValueError("relative_threshold must lie in (0, 1)")


DEFAULT_TOL = RankTolerance()


def _as_stack(m):
    """A non-empty, finite (batch, rows, cols) float stack."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 3 or 0 in a.shape:
        raise ValueError("expected non-empty 2-D matrices")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _as_matrix(m):
    """A matrix, or a vector as one column, validated as a stack of one."""
    a = np.asarray(m, dtype=float)
    return _as_stack(a[None, :, None] if a.ndim == 1 else a[None])[0]


# a norm below this may have lost bits to squares that underflow
_TINY_NORM = 2.0 ** -480


def _normalized(a, axis=-2):
    """Vectors along ``axis`` (columns by default) scaled to unit length,
    zero vectors untouched, for a matrix or a stack of them.

    A vector whose plain norm overflows or underflows is first scaled by
    the power of two that brings its largest entry into [0.5, 1).  Such a
    scale is exact, so a vector with a representable norm would get the
    same bits either way.
    """
    # np.linalg.norm's own formula, without its per-call overhead; squares
    # that overflow are rescaled below
    with np.errstate(over="ignore"):
        norms = np.sqrt((a * a).sum(axis=axis, keepdims=True))
    # entries below about 1e-162 square to zero, so a zero norm qualifies
    # too; a true zero vector has exponent 0 and keeps its entries
    if norms.min() < _TINY_NORM or norms.max() == np.inf:
        out_of_range = (norms == np.inf) | (norms < _TINY_NORM)
        _, exp = np.frexp(np.abs(a).max(axis=axis, keepdims=True))
        a = np.ldexp(a, np.where(out_of_range, -exp, 0))
        norms = np.sqrt((a * a).sum(axis=axis, keepdims=True))
    return a / np.where(norms > 0, norms, 1.0)


def _ranks(stack, tol):
    """Numeric rank of every matrix of a validated (batch, rows, cols) stack."""
    s = np.linalg.svd(_normalized(stack), compute_uv=False)
    return (s > tol.relative_threshold * s[:, :1]).sum(axis=-1)


def numeric_rank(m, tol=DEFAULT_TOL):
    """Count singular values above the relative threshold."""
    return int(_ranks(_as_matrix(m)[None], tol)[0])


def numeric_rank_by_shape(ms, tol=DEFAULT_TOL):
    """``numeric_rank(m)`` for every 2-D array ``m`` of a list, as a list
    of ints, from one kernel call per distinct shape."""
    by_shape, ranks = {}, [0] * len(ms)
    for i, m in enumerate(ms):
        by_shape.setdefault(m.shape, []).append(i)
    for idx in by_shape.values():
        stack = _as_stack([ms[i] for i in idx])
        for i, r in zip(idx, _ranks(stack, tol).tolist()):
            ranks[i] = r
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
    return int(_ranks(_normalized(_as_matrix(m), axis=-1)[None], tol)[0])


def joint_rank(ms, tol=DEFAULT_TOL):
    """Rank of the column-wise concatenation of a list of matrices."""
    mats = [_as_matrix(m) for m in ms]
    if len({m.shape[0] for m in mats}) != 1:
        raise ValueError("joint_rank needs matrices that share a row count")
    return numeric_rank(np.hstack(mats), tol)


def is_subspace(a, b, tol=DEFAULT_TOL):
    """True iff the column span of ``a`` lies inside the column span of ``b``."""
    return joint_rank([b, a], tol) == numeric_rank(b, tol)
