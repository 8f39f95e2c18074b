"""Blind precoding from the union cross-channel pattern.

All transmitters share one column set: the indicators 1_b of the union
blocks (s change points, s+1 blocks) mixed by powers of a fully random
diagonal G, columns 1_b G^j with j in [1, rho], giving n = 2*rho*(s+1)
slots and n/2 columns.  It spans what the columns Q^a G^j, a in [1, s+1],
span for a generator diagonal Q matching the union pattern with distinct
nonzero block values, and is block-diagonal where those powers are
ill-conditioned.  Every cross channel maps the set into its own span, so
the interference at each receiver stays inside those n/2 dimensions; free
dimensions appear wherever the direct channel changes at slots where no
cross channel does.
"""

import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel import ChangingPattern, constant_intervals, separated_uniform
from .linalg import numeric_rank_by_shape

__all__ = [
    "BlindPlan",
    "BlindScheme",
    "plan_blind",
    "draw_blind",
    "build_blind_scheme",
    "predicted_free_dims",
    "generic_free_dims",
    "verify_blind",
    "blind_total_dof",
]


@dataclass(frozen=True)
class BlindPlan:
    """The seed-free part of a blind scheme: its checked layout."""
    n: int
    rho: int
    union: ChangingPattern


@dataclass(frozen=True)
class BlindScheme:
    n: int
    rho: int
    union: ChangingPattern
    precoders: tuple             # the shared basis, once per transmitter
    interference_basis: np.ndarray   # read-only n x (n/2)


def plan_blind(cross_union: ChangingPattern, rho):
    """Check that the union pattern has n = 2*rho*(s+1) slots."""
    if rho < 1:
        raise ValueError("rho must be >= 1")
    s = len(cross_union.change_points)
    n = 2 * rho * (s + 1)
    if cross_union.n != n:
        raise ValueError(f"n = {cross_union.n} must equal 2*rho*(s+1) = {n}, "
                         f"where s = {s} is the number of cross change "
                         "points")
    return BlindPlan(n=n, rho=rho, union=cross_union)


def draw_blind(plan: BlindPlan, K, seed):
    """The shared column set for K transmitters, drawn from seed: 1_b G^j,
    b-major, for the union blocks b and the mixer G keyed [seed, 5].

    Its span is that of Q^a G^j, a = 1..s+1, for any generator Q with
    s+1 distinct nonzero block values: the Vandermonde matrix of Q's
    powers on those values is invertible, so span{Q^a} = span{1_b}.
    """
    rng = np.random.default_rng([seed, 5])
    gam = np.asarray(separated_uniform(rng, plan.n))
    lengths = plan.union.lengths
    blocks = np.eye(len(lengths)).repeat(lengths, axis=0)
    powers = gam[:, None] ** np.arange(1, plan.rho + 1)
    basis = (blocks[:, :, None] * powers[:, None, :]).reshape(plan.n, -1)
    basis.setflags(write=False)     # one basis for all K precoders
    return BlindScheme(n=plan.n, rho=plan.rho, union=plan.union,
                       precoders=(basis,) * K, interference_basis=basis)


def build_blind_scheme(cross_union: ChangingPattern, rho, K, seed):
    """``draw_blind`` of ``plan_blind``; perfbench's tests import it."""
    return draw_blind(plan_blind(cross_union, rho), K, seed)


def predicted_free_dims(scheme: BlindScheme, direct_pattern: ChangingPattern):
    """Interference-free dimensions implied by the patterns alone.

    Counts the union-pattern blocks in which the direct channel has a
    change point of its own (one not shared with any cross channel); each
    such block frees rho dimensions, capped at the n/2 precoder width.
    A change point coinciding with a cross change point is not private.
    """
    if direct_pattern.n != scheme.n:
        raise ValueError("patterns must share n")
    longest_direct_block = max(
        len(b) for b in constant_intervals(direct_pattern))
    if scheme.n // 2 < longest_direct_block:
        warnings.warn("column budget is smaller than the longest direct-"
                      "channel block; the free-dimension count may be loose")
    private = set(direct_pattern.change_points) - set(scheme.union.change_points)
    blocks = constant_intervals(scheme.union)
    hits = sum(1 for b in blocks if any(c in private for c in b))
    return min(scheme.n // 2, scheme.rho * hits)


def generic_free_dims(scheme, direct_pattern: ChangingPattern):
    """Exact generic free-dimension count, valid for arbitrarily short runs;
    ``scheme`` is a BlindScheme or its BlindPlan.

    Within a union block b the shared columns span the first rho mixing
    powers restricted to b, and the direct channel multiplies them by a
    step function with one level per of its value-runs inside b, so the
    joint span has generic dimension min(2*rho, sum_r min(rho, |r|), |b|).
    This refines the block-indicator count of predicted_free_dims, and the
    two agree whenever every direct value-run is at least rho slots long.
    """
    if direct_pattern.n != scheme.n:
        raise ValueError("patterns must share n")
    rho = scheme.rho
    direct_runs = constant_intervals(direct_pattern)
    total = 0
    for block in constant_intervals(scheme.union):
        lo, hi = block[0], block[-1]
        runs = [[s for s in run if lo <= s <= hi] for run in direct_runs]
        runs = [r for r in runs if r]
        base = min(rho, len(block))
        joint = min(2 * rho, sum(min(rho, len(r)) for r in runs), len(block))
        total += max(0, joint - base)
    return min(scheme.n // 2, total)


def verify_blind(scheme: BlindScheme, instance, expected_free):
    """Rank checks of a blind scheme on a sampled network, as
    ``(checks, measured, total_dof)``; ``expected_free[k]`` is the generic
    free-dimension count of the direct link into receiver k
    (``generic_free_dims`` of its pattern), and the total is
    ``blind_total_dof`` of the measured free dimensions.

    The scheme is stated for diagonal links: a direct transform that is
    not the identity raises ValueError.  The raw ``[basis, received]``
    joint of link (p, q) is row p*K + q of one C-ordered stack, written in
    place by one broadcast product of the gains.  One
    ``numeric_rank_by_shape`` call ranks it as ``joint`` and the basis as
    ``basis_rank``, its CSV column.  A cross link is contained in the basis
    span when its joint rank equals the basis rank; a direct link's excess
    is its receiver's free dimensions.
    """
    if instance.n != scheme.n:
        raise ValueError("instance slot count differs from scheme")
    K, basis = instance.K, scheme.interference_basis
    kinds = {instance.transforms[k].kind for k in range(K)} - {"identity"}
    if kinds:
        raise ValueError("the blind scheme needs identity direct links, "
                         f"not direct_kind {kinds.pop()!r}")
    w = basis.shape[1]
    joints = np.empty((K * K, scheme.n, 2 * w))
    joints[:, :, :w] = basis
    np.multiply(instance.gains[:, :, None], basis, out=joints[:, :, w:])
    measured = numeric_rank_by_shape({"basis_rank": basis, "joint": joints})
    joint, base = measured.pop("joint").reshape(K, K), measured["basis_rank"]
    free = [min(w, int(joint[k, k]) - base) for k in range(K)]
    checks = {
        "basis_full_rank": base == w,
        "cross_containment": all(joint[p, q] == base for p in range(K)
                                 for q in range(K) if p != q),
        "predicted_equals_measured": all(
            want == f for want, f in zip(expected_free, free, strict=True))}
    measured.update((f"free_dims_rx{k + 1}", f) for k, f in enumerate(free))
    return checks, measured, blind_total_dof(free, scheme.n)


def blind_total_dof(free_dims, n):
    """Sum of per-user free fractions, floored at the time-sharing baseline."""
    total = Fraction(int(sum(free_dims)), int(n))
    return max(total, Fraction(1))
