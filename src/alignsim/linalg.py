"""Numeric rank and subspace tests.

All rank decisions in the package go through this module so the
floating-point rank policy lives in exactly one place: a singular value
counts toward the rank when it exceeds the fixed ``RELATIVE_THRESHOLD``
times the largest singular value.

One private kernel makes every decision.  It takes a ``(batch, rows,
cols)`` stack, scales each column to unit length along the row axis and
takes the singular values of every matrix from one ``np.linalg.svd``
call; LAPACK factors each matrix of a stack on its own, so a matrix gets
the same singular values, bit for bit, alone or inside a stack.  Shapes
are validated at the public functions, finiteness by the kernel's norm
range test.  The regime verifiers list every matrix they rank, as 2-D
matrices or C-ordered 3-D stacks, joints built from the raw ``[base,
candidate]`` before they are normalized, and ``numeric_rank_by_shape``
ranks the list with one kernel call per matrix shape.  ``numeric_rank``,
``joint_rank`` and ``is_subspace`` make one decision each.
"""

import numpy as np

__all__ = [
    "numeric_rank",
    "numeric_rank_by_shape",
    "balanced_rank",
    "joint_rank",
    "is_subspace",
]


RELATIVE_THRESHOLD = 1e-8


def _as_matrix(m):
    """A non-empty float matrix, or a vector as one column."""
    a = np.asarray(m, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2 or 0 in a.shape:
        raise ValueError("expected non-empty 2-D matrices")
    return a


# a norm below this may have lost bits to squares that underflow
_TINY_NORM = 2.0 ** -480


def _normalized(a, axis=-2):
    """Vectors along ``axis`` (columns by default) scaled to unit length,
    zero vectors untouched, for a matrix or a stack of them.

    A vector whose plain norm overflows or underflows is first scaled by
    the power of two that brings its largest entry into [0.5, 1).  Such a
    scale is exact, so a vector with a representable norm would get the
    same bits either way.  Only then are the entries checked: a nan or
    inf entry gives a nan or inf norm and raises ValueError.
    """
    # np.linalg.norm's own formula, without its per-call overhead; squares
    # that overflow are rescaled below
    with np.errstate(over="ignore"):
        norms = np.sqrt((a * a).sum(axis=axis, keepdims=True))
    # entries below about 1e-162 square to zero, so a zero norm qualifies
    # too; a true zero vector has exponent 0 and keeps its entries
    if not (norms.min() >= _TINY_NORM and norms.max() < np.inf):
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        out_of_range = (norms == np.inf) | (norms < _TINY_NORM)
        _, exp = np.frexp(np.abs(a).max(axis=axis, keepdims=True))
        a = np.ldexp(a, np.where(out_of_range, -exp, 0))
        norms = np.sqrt((a * a).sum(axis=axis, keepdims=True))
    return a / np.where(norms > 0, norms, 1.0)


def _ranks(stack):
    """Numeric rank of every matrix of a non-empty (batch, rows, cols) stack."""
    s = np.linalg.svd(_normalized(stack), compute_uv=False)
    return (s > RELATIVE_THRESHOLD * s[:, :1]).sum(axis=-1)


def numeric_rank(m):
    """Count singular values above the relative threshold."""
    return int(_ranks(_as_matrix(m)[None])[0])


def numeric_rank_by_shape(ms):
    """``numeric_rank`` of every array of a list, an int for a 2-D matrix
    and an int array for a 3-D stack, from one kernel call per distinct
    ``(rows, cols)`` on that shape's matrices in list order.  A lone
    C-contiguous float64 array is ranked as it is; the kernel sums columns
    in memory order, so a stack built in place must be C-ordered."""
    by_shape, ranks = {}, [None] * len(ms)
    for i, m in enumerate(ms):
        if m.ndim not in (2, 3) or 0 in m.shape:
            raise ValueError("expected non-empty 2-D matrices or 3-D stacks")
        by_shape.setdefault(m.shape[-2:], []).append(i)
    for idx in by_shape.values():
        parts = [ms[i] if ms[i].ndim == 3 else ms[i][None] for i in idx]
        a = parts[0]
        lone = len(parts) == 1 and a.dtype == float and a.flags.c_contiguous
        r = _ranks(a if lone else np.concatenate(parts, dtype=float))
        start = 0
        for i, part in zip(idx, parts):
            ranks[i] = (r[start:start + len(part)] if ms[i].ndim == 3
                        else int(r[start]))
            start += len(part)
    return ranks


def balanced_rank(m):
    """Rank after normalizing nonzero rows, then columns.

    Row scaling by a positive diagonal preserves rank exactly, and it keeps
    the threshold meaningful for matrices whose rows live on wildly
    different scales — e.g. columns that are products of many diagonal
    ratios, where a few rows can be orders of magnitude smaller than the
    rest and a true dimension would otherwise fall below the threshold.
    Only use this when every row is known to be signal, never noise.
    """
    return int(_ranks(_normalized(_as_matrix(m), axis=-1)[None])[0])


def joint_rank(ms):
    """Rank of the column-wise concatenation of a list of matrices."""
    mats = [_as_matrix(m) for m in ms]
    if len({m.shape[0] for m in mats}) != 1:
        raise ValueError("joint_rank needs matrices that share a row count")
    return numeric_rank(np.hstack(mats))


def is_subspace(a, b):
    """True iff the column span of ``a`` lies inside the column span of ``b``."""
    return joint_rank([b, a]) == numeric_rank(b)
