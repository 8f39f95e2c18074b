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
are validated at ``numeric_rank_by_shape``, which enters the one
np.errstate(over="ignore") of its call, finiteness by the kernel's norm
range test.  The regime verifiers name every matrix they rank, 2-D
matrices or C-ordered 3-D stacks, joints built from the raw ``[base,
candidate]`` before they are normalized, and ``numeric_rank_by_shape``
returns each rank under its name from one kernel call per matrix shape;
with ``balance_rows`` it first scales every nonzero row to unit length.
``is_subspace`` is one such call on a base and its joint.
"""

import numpy as np

__all__ = ["numeric_rank_by_shape", "is_subspace"]


RELATIVE_THRESHOLD = 1e-8


# a norm below this may have lost bits to squares that underflow
_TINY_NORM = 2.0 ** -480


@np.errstate(over="ignore")
def _normalized(a, axis=-2):
    """``_unit_vectors`` in its own np.errstate, for direct callers."""
    return _unit_vectors(a, axis)


def _unit_vectors(a, axis):
    """Vectors along ``axis`` (-2: columns) scaled to unit length, zero
    vectors untouched, for a matrix or a stack of them, inside the caller's
    np.errstate(over="ignore").

    A vector whose plain norm overflows or underflows is first scaled by
    the power of two that brings its largest entry into [0.5, 1).  Such a
    scale is exact, so a vector with a representable norm would get the
    same bits either way.  Only then are the entries checked: a nan or
    inf entry gives a nan or inf norm and raises ValueError.
    """
    # np.linalg.norm's own formula, without its per-call overhead
    norms = np.sqrt(np.add.reduce(a * a, axis=axis, keepdims=True))
    # entries below about 1e-162 square to zero, so a zero norm qualifies
    # too; a true zero vector has exponent 0 and keeps its entries
    if not (np.minimum.reduce(norms, axis=None) >= _TINY_NORM
            and np.maximum.reduce(norms, axis=None) < np.inf):
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        out_of_range = (norms == np.inf) | (norms < _TINY_NORM)
        _, exp = np.frexp(np.abs(a).max(axis=axis, keepdims=True))
        a = np.ldexp(a, np.where(out_of_range, -exp, 0))
        norms = np.sqrt(np.add.reduce(a * a, axis=axis, keepdims=True))
        norms[norms == 0] = 1.0     # in range, every norm is positive
    return a / norms


def _ranks(stack, balance_rows):
    """Numeric rank of every matrix of a C-ordered float64 3-D stack."""
    if balance_rows:
        stack = _unit_vectors(stack, -1)
    s = np.linalg.svd(_unit_vectors(stack, -2), compute_uv=False)
    return np.add.reduce(s > RELATIVE_THRESHOLD * s[:, :1], axis=-1)


@np.errstate(over="ignore")
def numeric_rank_by_shape(ms, balance_rows=False):
    """Numeric ranks of a dict ``name -> array`` under the same names in the
    same order, an int per 2-D matrix and an int array per 3-D stack, from
    one kernel call per distinct ``(rows, cols)`` on that shape's matrices
    in dict order.  A lone C-contiguous float64 array is ranked as it is;
    the kernel sums columns in memory order, so build stacks C-ordered.
    The call runs in one np.errstate(over="ignore") for all its shapes.

    ``balance_rows`` first scales every nonzero row to unit length.  That
    keeps the rank exactly and lifts a true dimension that lives only in
    tiny rows (columns that are products of many diagonal ratios) above
    the threshold; use it only when every row is signal, never noise.
    """
    by_shape, ranks = {}, dict.fromkeys(ms)
    for name, m in ms.items():
        if m.ndim not in (2, 3) or 0 in m.shape:
            raise ValueError("expected non-empty 2-D matrices or 3-D stacks")
        by_shape.setdefault(m.shape[-2:], []).append(name)
    for names in by_shape.values():
        if len(names) == 1:
            m = ms[names[0]]
            r = _ranks(np.ascontiguousarray(m if m.ndim == 3 else m[None],
                                            dtype=float), balance_rows)
            ranks[names[0]] = r if m.ndim == 3 else int(r[0])
            continue
        parts = [ms[k] if ms[k].ndim == 3 else ms[k][None] for k in names]
        r = _ranks(np.concatenate(parts, dtype=float), balance_rows)
        start = 0
        for k, part in zip(names, parts):
            ranks[k] = (r[start:start + len(part)] if ms[k].ndim == 3
                        else int(r[start]))
            start += len(part)
    return ranks


def is_subspace(a, b):
    """True iff the column span of matrix ``a`` lies inside that of ``b``."""
    ranks = numeric_rank_by_shape({"base": b, "joint": np.hstack([b, a])})
    return ranks["joint"] == ranks["base"]
