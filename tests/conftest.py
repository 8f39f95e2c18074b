"""Shared builders for network configurations used across the test suite."""

import numpy as np
import pytest

from alignsim.channel import ChangingPattern, NetworkConfig


def fastfading_config(K, n, hidden_count, direct_kind="memory",
                      memory_distance=None):
    """Per-slot-changing network with the first hidden_count slots hidden
    on every cross link."""
    allpts = list(range(2, n + 1))
    patterns = [[list(allpts) for _ in range(K)] for _ in range(K)]
    unknown = [[([] if p == q else list(range(1, hidden_count + 1)))
                for q in range(K)] for p in range(K)]
    return NetworkConfig(K=K, n=n, patterns=patterns, unknown=unknown,
                         direct_kind=direct_kind,
                         memory_distance=memory_distance or (hidden_count + 2))


def random_cross_pattern(rng, n, sigma):
    """sigma sorted change points drawn without replacement, or None when the
    slot range cannot host that many."""
    if sigma == 0:
        return ()
    if n < sigma + 1:
        return None
    pts = sorted(rng.choice(range(2, n + 1), size=sigma, replace=False).tolist())
    return tuple(pts)


def spaced_direct_pattern(rng, n, rho, union_pts, max_count):
    """Direct change points with every value-run piece at least rho slots
    long: pairwise gaps >= rho, distance >= rho from union change points,
    and >= rho slots from both ends."""
    pts = []
    cand = list(range(2, n + 1))
    rng.shuffle(cand)
    for c in cand:
        if len(pts) >= max_count:
            break
        if (all(abs(c - p) >= rho for p in pts)
                and all(abs(c - u) >= rho for u in union_pts)
                and c - 1 >= rho and n - c + 1 >= rho):
            pts.append(c)
    return tuple(sorted(pts))


def blind_config(rng, n, K, cross_pts, direct_sampler):
    """All cross links share cross_pts; direct links get per-receiver
    patterns from direct_sampler(k)."""
    nest = [[list(cross_pts) for _ in range(K)] for _ in range(K)]
    for k in range(K):
        nest[k][k] = sorted(direct_sampler(k))
    return NetworkConfig(K=K, n=n, patterns=nest, direct_kind="identity")
