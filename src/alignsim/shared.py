"""Same-destination-pattern regime: sharing-based precoders and DoF bounds.

When every channel arriving at a receiver shares one changing pattern, a
basis vector transmitted by r different transmitters collapses to a single
dimension at each non-sharing receiver, provided its support sits inside a
slot window where all those receivers are constant.  This module builds
such schemes greedily and evaluates the closed-form total-DoF curve
sharing_dof(K, r) = K*r / (r^2 - r + K) together with its integer optimizer.

A construction is a seed-free plan (``plan_shared``: windows, capacity
drops, carrier repair, expected dimensions and the fill count) and a
seeded draw of its random fill columns (``draw_shared``);
``construct_shared`` is the one composed of the two, and one plan serves
any number of draws.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .channel import (ChangingPattern, NetworkConfig, constant_intervals,
                      union_pattern)
from .linalg import numeric_rank_by_shape

__all__ = [
    "BoundResult",
    "SharedVector",
    "SharedPlan",
    "SharedPatternScheme",
    "best_sharing_degree",
    "sharing_dof",
    "dof_upper_bound",
    "scheme_counts",
    "curve_f",
    "dof_table",
    "plan_shared",
    "draw_shared",
    "construct_shared",
    "verify_shared",
    "pair_demo_patterns",
    "dense_demo_patterns",
    "demo_network_config",
]


# ---------------------------------------------------------------------------
# closed-form bounds


def sharing_dof(K, r):
    """Total DoF of the r-sharing scheme family, exact."""
    if K < 1 or r < 1:
        raise ValueError("K and r must be positive")
    return Fraction(K * r, r * r - r + K)


def best_sharing_degree(K):
    """Smallest integer r with r(r+1) >= K; maximizes sharing_dof over ints."""
    if K < 1:
        raise ValueError("K must be >= 1")
    # ceil((sqrt(1+4K)-1)/2) without floating point
    r = (math.isqrt(1 + 4 * K) - 1) // 2
    while r * (r + 1) < K:
        r += 1
    while r > 1 and (r - 1) * r >= K:
        r -= 1
    return r


@dataclass(frozen=True)
class BoundResult:
    K: int
    r_star: int
    dof: Fraction
    per_r_curve: tuple


def dof_upper_bound(K):
    """Optimal sharing degree, its DoF and the integer curve around it.

    For very large K the full curve would be K fractions, so it is trimmed
    to a window around the optimizer; r_star and dof stay exact regardless.
    """
    r_star = best_sharing_degree(K)
    if K <= 10_000:
        rs = range(1, K + 1)
    else:
        rs = range(max(1, r_star - 50), min(K, r_star + 50) + 1)
    return BoundResult(K=K, r_star=r_star, dof=sharing_dof(K, r_star),
                       per_r_curve=tuple((r, sharing_dof(K, r)) for r in rs))


def scheme_counts(K, r):
    """Slot count, desired dims per receiver, and total DoF of the r-scheme.

    n counts one slot group per r-subset avoiding a transmitter plus the
    desired copies; the ratio provably equals sharing_dof(K, r).
    """
    if not 1 <= r <= K - 1:
        raise ValueError("r must lie in [1, K-1]")
    n = math.comb(K - 1, r) + r * math.comb(K - 1, r - 1)
    desired = math.comb(K - 1, r - 1)
    total = Fraction(K * desired, n)
    if total != sharing_dof(K, r):
        raise ValueError(f"scheme DoF {total} differs from sharing_dof({K}, {r})")
    return n, desired, total


def curve_f(K, xs):
    """The real-valued relaxation K*x/(x^2-x+K) at the given points, past
    1e150 (where x*x nears overflow) evaluated as K/(x-1+K/x)."""
    xs = [float(x) for x in xs]
    if K < 1 or not all(0 < x < math.inf for x in xs):
        raise ValueError("need K >= 1 and positive, finite curve points")
    return [(x, K * x / (x * x - x + K) if x < 1e150
             else K / (x - 1 + K / x)) for x in xs]


def dof_table(k_min, k_max):
    """Rows (K, r_star, d(r_star)) for a range of user counts."""
    if k_min < 1 or k_max < k_min:
        raise ValueError("need 1 <= k_min <= k_max")
    rows = []
    for K in range(k_min, k_max + 1):
        r_star = best_sharing_degree(K)
        rows.append((K, r_star, sharing_dof(K, r_star)))
    return rows


# ---------------------------------------------------------------------------
# scheme construction


@dataclass(frozen=True)
class SharedVector:
    vid: int
    subset: tuple          # transmitters that originally share the vector
    kept: tuple            # transmitters still carrying it after repair
    support: tuple         # 1-based slots allowed to be nonzero
    values: np.ndarray     # read-only length-n column


@dataclass(frozen=True)
class SharedPlan:
    """Everything of an r-sharing scheme but its random fill columns."""
    K: int
    r: int
    n: int
    vectors: tuple                 # kept window vectors
    dropped: tuple                 # vector ids dropped, sorted
    window_columns: tuple          # per transmitter, its read-only n x d
                                   # block of window vectors
    fill_count: int                # fill columns, dealt round-robin
    expected_desired: tuple        # per-receiver desired dims
    expected_used: tuple           # per-receiver occupied dims
    total_dof: Fraction


@dataclass(frozen=True)
class SharedPatternScheme:
    """A plan with its fill columns drawn."""
    plan: SharedPlan
    fill: np.ndarray               # read-only (fill_count, n); row i is a
                                   # full-support column of tx i mod K
    precoders: tuple               # per-transmitter n x d arrays


def _runs_in_window(pattern: ChangingPattern, window):
    """Number of constant value-runs of the pattern inside a slot window."""
    lo, hi = window[0], window[-1]
    return 1 + sum(1 for c in pattern.change_points if lo < c <= hi)


def _feasible_runs(nonmember_patterns, n):
    if not nonmember_patterns:
        return [list(range(1, n + 1))]
    merged = union_pattern(nonmember_patterns)
    return constant_intervals(merged)


def _pick_window(subset, patterns, n, r):
    """Best size-r window constant at all non-members; None when impossible."""
    K = len(patterns)
    nonmembers = [patterns[p] for p in range(K) if p not in subset]
    best = None
    for run in _feasible_runs(nonmembers, n):
        if len(run) < r:
            continue
        for start in range(len(run) - r + 1):
            window = run[start:start + r]
            score = min(_runs_in_window(patterns[p], window) for p in subset)
            key = (score, window[0])   # ties go to the rightmost window
            if best is None or key >= best[0]:
                best = (key, window)
    return None if best is None else tuple(best[1])


def _window_values(rank_in_group, window, n):
    """Orthogonal in-window profiles; the first vector is all ones."""
    w = len(window)
    col = np.zeros(n)
    profile = np.cos(np.pi * rank_in_group * (np.arange(w) + 0.5) / w)
    if rank_in_group == 0:
        profile = np.ones(w)
    for slot, v in zip(window, profile):
        col[slot - 1] = v
    return col


def _read_only(a):
    a.setflags(write=False)
    return a


def plan_shared(K, r, patterns, n):
    """The seed-free part of the greedy r-sharing construction over given
    per-receiver patterns.

    patterns[p] is the changing pattern shared by every channel into
    receiver p.  One candidate vector per r-subset of transmitters; a
    vector survives only if it has a size-r support window constant at all
    non-member receivers; over-full windows and collapsing member copies
    are repaired by dropping vectors/members; the leftover dimensions are
    counted for the full-support random fill columns that ``draw_shared``
    adds.
    """
    if not 1 <= r <= K - 1:
        raise ValueError("r must lie in [1, K-1]")
    patterns = [p if isinstance(p, ChangingPattern) else ChangingPattern(n, tuple(p))
                for p in patterns]
    if len(patterns) != K or any(p.n != n for p in patterns):
        raise ValueError("need one n-slot pattern per receiver")

    # capacity: an identical support window of size w carries at most w
    # vectors, with orthogonal in-window profiles
    placed = []              # (vid, subset, window, values)
    dropped = []
    in_window = {}
    for vid, subset in enumerate(combinations(range(K), r)):
        window = _pick_window(subset, patterns, n, r)
        if window is None:
            dropped.append(vid)
            continue
        rank = in_window.get(window, 0)
        if rank >= len(window):
            dropped.append(vid)
            continue
        in_window[window] = rank + 1
        placed.append((vid, subset, window,
                       _read_only(_window_values(rank, window, n))))

    # repair collapsing desired copies: while some member receiver sees fewer
    # value-runs in the support than the vector has carriers, remove the
    # carrier with the widest precoder (ties: lowest transmitter index)
    width = [sum(1 for _, subset, _, _ in placed if t in subset)
             for t in range(K)]
    vectors = []
    for vid, subset, window, values in placed:
        kept = subset
        while kept and not all(_runs_in_window(patterns[p], window) >= len(kept)
                               for p in kept):
            victim = max(kept, key=lambda t: (width[t], -t))
            kept = tuple(t for t in kept if t != victim)
            width[victim] -= 1
        if kept:
            vectors.append(SharedVector(vid, subset, kept, window, values))

    # expected occupied/desired dimensions per receiver
    used = [0] * K
    desired = [0] * K
    for v in vectors:
        live = len(v.kept)
        for p in range(K):
            if p not in v.subset:
                used[p] += 1
            elif p in v.kept:
                used[p] += live
                desired[p] += 1
            else:
                used[p] += min(live, _runs_in_window(patterns[p], v.support))

    # random fill: spend leftover dimensions on unshared full-support columns,
    # handed out round-robin so no transmitter hoards the leftover space
    fills = max(0, n - max(used))
    for i in range(fills):
        desired[i % K] += 1
    used = [u + fills for u in used]

    columns = []
    for t in range(K):
        cols = [v.values for v in vectors if t in v.kept]
        columns.append(_read_only(np.column_stack(cols) if cols
                                  else np.zeros((n, 0))))
    return SharedPlan(K=K, r=r, n=n, vectors=tuple(vectors),
                      dropped=tuple(sorted(dropped)),
                      window_columns=tuple(columns), fill_count=fills,
                      expected_desired=tuple(desired),
                      expected_used=tuple(used),
                      total_dof=max(Fraction(sum(desired), n), Fraction(1)))


def draw_shared(plan: SharedPlan, seed):
    """The scheme of a plan with its fill columns drawn from seed.

    Fill i goes to transmitter i mod K, after its window vectors; every
    precoder must have full column rank.
    """
    K = plan.K
    rng = np.random.default_rng(seed)
    fill = _read_only(rng.uniform(-1.0, 1.0, size=(plan.fill_count, plan.n)))
    precoders = tuple(np.hstack([plan.window_columns[t], fill[t::K].T])
                      for t in range(K))
    live = [t for t in range(K) if precoders[t].shape[1]]
    ranks = numeric_rank_by_shape([precoders[t] for t in live])
    for t, rank in zip(live, ranks):
        if rank != precoders[t].shape[1]:
            raise ValueError(f"precoder of transmitter {t + 1} has rank {rank}, "
                             f"not full column rank {precoders[t].shape[1]}")
    return SharedPatternScheme(plan, fill, precoders)


def construct_shared(K, r, patterns, n, seed=0):
    """Greedy r-sharing construction over given per-receiver patterns: the
    plan of ``plan_shared`` with the fill columns ``draw_shared`` draws."""
    return draw_shared(plan_shared(K, r, patterns, n), seed)


def verify_shared(scheme: SharedPatternScheme, instance):
    """Desired and interference dimensions at every receiver, measured by
    rank on a sampled network, as ``(checks, measured)``.

    Each received matrix is built once; the joints of every receiver
    (everything arriving, interference only) are ranked with one
    ``numeric_rank_by_shape`` call, one stack per joint shape, and a joint
    without columns has rank 0.  A receiver's desired dimensions are the
    excess of the first over the second.
    """
    K, n, precoders = instance.K, instance.n, scheme.precoders
    joints = []             # per receiver: arriving, then interference
    for p in range(K):
        seen = [instance.received_matrix(p, q, precoders[q]) for q in range(K)]
        joints += [np.hstack(seen), np.hstack(seen[:p] + seen[p + 1:])]
    found = iter(numeric_rank_by_shape([m for m in joints if m.size]))
    ranks = [next(found) if m.size else 0 for m in joints]
    used, interference = ranks[::2], ranks[1::2]
    desired = [u - i for u, i in zip(used, interference)]
    checks = {
        "imperfect_alignment": sum(interference) < (K - 1) * n,
        "no_pollution": all(0 <= d <= precoders[p].shape[1]
                            for p, d in enumerate(desired)),
        "dims_match_construction": (
            tuple(desired) == scheme.plan.expected_desired
            and tuple(used) == scheme.plan.expected_used)}
    measured = {}
    for p in range(K):
        measured[f"desired_rx{p + 1}"] = desired[p]
        measured[f"used_rx{p + 1}"] = used[p]
    return checks, measured


# ---------------------------------------------------------------------------
# shipped demo pattern families


def pair_demo_patterns():
    """4-user, 8-slot pattern family where pair-sharing reaches 9/8 DoF."""
    n = 8
    pts = [(3, 4, 5), (3, 4, 5, 6), (2, 7, 8), (5, 6, 7, 8)]
    return [ChangingPattern(n, p) for p in pts], n


def dense_demo_patterns():
    """4-user, 10-slot pattern family where pair-sharing reaches 12/10 DoF.

    Four disjoint two-slot windows host the pairs {1,2}, {3,4}, {1,3} and
    {2,4}; each receiver is a member of exactly two windows (2 dims each),
    sees the other two collapse to one dimension each, and the four
    leftover dimensions are filled round-robin, giving per-receiver
    desired dims (3, 3, 3, 3).
    """
    n = 10
    pts = [(2, 3, 5, 6, 7, 9, 10), (2, 3, 5, 7, 8, 9, 10),
           (3, 4, 5, 6, 7, 9, 10), (3, 4, 5, 7, 8, 9, 10)]
    return [ChangingPattern(n, p) for p in pts], n


def demo_network_config(patterns, n):
    """Same-destination network config: every link into rx p uses pattern p."""
    K = len(patterns)
    nest = [[list(patterns[p].change_points) for _ in range(K)] for p in range(K)]
    return NetworkConfig(K=K, n=n, patterns=nest, direct_kind="identity")
