"""Blind precoding from the union cross-channel pattern.

All transmitters share one column set built from powers of a generator
diagonal Q (matching the union of all cross patterns, s change points)
mixed by powers of a fully random diagonal: columns Q^a G^j 1 with
a in [1, s+1] and j in [1, rho], giving n = 2*rho*(s+1) slots and
n/2 columns.  Every cross channel maps the set into its own span, so the
interference at each receiver stays inside those n/2 dimensions; free
dimensions appear wherever the direct channel changes at slots where no
cross channel does.
"""

import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel import (ChangingPattern, constant_intervals, sample_channel,
                      separated_uniform)
from .linalg import DEFAULT_TOL, joint_rank_each, numeric_rank

__all__ = [
    "BlindScheme",
    "build_blind_scheme",
    "predicted_free_dims",
    "generic_free_dims",
    "measure_links",
    "measured_free_dims",
    "blind_total_dof",
]


@dataclass(frozen=True)
class BlindScheme:
    n: int
    rho: int
    sigma_prime: int
    union: ChangingPattern
    precoders: tuple             # the shared basis, once per transmitter
    interference_basis: np.ndarray   # read-only n x (n/2)


def build_blind_scheme(cross_union: ChangingPattern, rho, K, seed):
    """Construct the shared column set for K transmitters."""
    if rho < 1:
        raise ValueError("rho must be >= 1")
    s = len(cross_union.change_points)
    n = 2 * rho * (s + 1)
    if cross_union.n != n:
        raise ValueError("pattern slot count must equal 2*rho*(s+1)")
    gen = sample_channel(cross_union, seed, distinct_blocks="all")
    rng = np.random.default_rng(seed + 1)
    gam = np.asarray(separated_uniform(rng, n))
    cols = [(gen ** a) * (gam ** j)
            for a in range(1, s + 2) for j in range(1, rho + 1)]
    basis = np.column_stack(cols)
    basis.setflags(write=False)     # one basis for all K precoders
    return BlindScheme(n=n, rho=rho, sigma_prime=s, union=cross_union,
                       precoders=(basis,) * K, interference_basis=basis)


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


def generic_free_dims(scheme: BlindScheme, direct_pattern: ChangingPattern):
    """Exact generic free-dimension count, valid for arbitrarily short runs.

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


def measure_links(scheme: BlindScheme, instance, tol=DEFAULT_TOL):
    """(basis rank, cross containment, free dimensions per receiver),
    measured by rank on a sampled network.

    The basis is factored once, and the [basis, received] joint of every
    link (p, q) is ranked in one stack: a cross link is contained in the
    basis span when its joint rank equals the basis rank, and a direct
    link's excess over it is its receiver's free dimensions.
    """
    if instance.n != scheme.n:
        raise ValueError("instance slot count differs from scheme")
    K, basis = instance.K, scheme.interference_basis
    seen = [instance.received_matrix(p, q, scheme.precoders[q])
            for p in range(K) for q in range(K)]
    base = numeric_rank(basis, tol)
    joint = joint_rank_each(basis, seen, tol).reshape(K, K)
    contained = bool(all(joint[p, q] == base for p in range(K)
                         for q in range(K) if p != q))
    free = [min(scheme.n // 2, int(joint[k, k]) - base) for k in range(K)]
    return base, contained, free


def measured_free_dims(scheme: BlindScheme, instance, tol=DEFAULT_TOL):
    """Interference-free dimensions measured by rank, per receiver."""
    return measure_links(scheme, instance, tol)[2]


def blind_total_dof(free_dims, n):
    """Sum of per-user free fractions, floored at the time-sharing baseline."""
    total = Fraction(int(sum(free_dims)), int(n))
    return max(total, Fraction(1))
