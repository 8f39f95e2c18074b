"""Half-CSI fast-fading alignment and the CSIT-fraction bound calculators.

Every cross link (p, q) has a set U of slots whose gain is hidden from
everyone.  For each such link we build a surrogate family (indexed basis)
whose members agree with the true channel on known slots.  Ratios of
first-family surrogates around the 3-user loop give a diagonal transfer
map T; mixing its powers with powers of a diagonal G (identity outside
the union of hidden slots, random inside) yields column sets whose spans
are immune to the hidden gains: any surrogate-member substitution moves
columns only inside the span.

Also implemented: the exact CSIT-fraction metric, the closed-form sum-DoF
caps as a function of that fraction, and the K-user generalization built
from pairwise transfer maps.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel import NetworkInstance, UnknownSet, separated_uniform
from .decomposition import build_indexed_basis
# is_subspace is bound here, unused, because perfbench's tracing test
# checks that the tracer rebinds alignsim.fastfading.is_subspace
from .linalg import (DEFAULT_TOL, is_subspace, is_subspace_each,
                     numeric_rank_by_shape, numeric_rank_each)

__all__ = [
    "FastFading3Scheme",
    "KUserScheme",
    "build_3user",
    "verify_3user",
    "build_kuser",
    "upsilon_fraction",
    "dof_cap_given_upsilon",
    "min_upsilon_for_max_dof",
    "hidden_union",
]

KUSER_SIZE_GUARD = 100_000
_COMBO_CAP = 64     # member substitutions checked per verification loop


# ---------------------------------------------------------------------------
# closed-form calculators


def hidden_union(unknown_sets):
    """Union of all cross-link hidden-slot sets."""
    out = set()
    for u in unknown_sets:
        out |= set(u.indices if isinstance(u, UnknownSet) else u)
    return frozenset(out)


def upsilon_fraction(unknown_sets, n):
    """Fraction of slots on which every transmitter has perfect CSIT."""
    union = hidden_union(unknown_sets)
    if any(i < 1 or i > n for i in union):
        raise ValueError("hidden slots must lie in [1, n]")
    return 1 - Fraction(len(union), n)


def dof_cap_given_upsilon(K, upsilon):
    """Sum-DoF cap as a function of the perfect-CSIT time fraction.

    K=2 needs no CSI (cap 1).  K=3 uses 9/7 + 3u/7.  Even K >= 4 uses
    K*(K/2 + u*(K/2 - 1)) / (K/2 + K - 1).  Odd K >= 5 is evaluated with
    the even-K formula; only the u >= 1/2 threshold is pinned there, so
    treat intermediate values as indicative.
    """
    u = Fraction(upsilon)
    if not 0 <= u <= 1:
        raise ValueError("upsilon must lie in [0, 1]")
    if K < 2:
        raise ValueError("K must be >= 2")
    if K == 2:
        return Fraction(1)
    if K == 3:
        return Fraction(9, 7) + Fraction(3, 7) * u
    half = Fraction(K, 2)
    return K * (half + u * (half - 1)) / (half + K - 1)


def min_upsilon_for_max_dof(K):
    """Smallest perfect-CSIT fraction at which the K/2 sum-DoF is reachable."""
    if K < 2:
        raise ValueError("K must be >= 2")
    return Fraction(0) if K == 2 else Fraction(1, 2)


# ---------------------------------------------------------------------------
# 3-user scheme


@dataclass(frozen=True)
class FastFading3Scheme:
    n: int
    L: int                      # number of hidden slots (union over links)
    epsilon: int
    omega: tuple                # sorted hidden slots
    loop_transfer: np.ndarray   # diagonal values of the loop map T
    gamma: np.ndarray           # diagonal mixer, 1 outside omega
    surrogates: dict            # (p, q) -> indexed BasisFamily
    tx_columns: tuple           # precoder matrix per transmitter (V1, V2, V3)
    seed_columns: dict          # "tx1"/"tx2"/"tx3" raw column sets pre-transform
    expected: dict              # expected numeric ranks and totals


def _surrogate(fams, p, q):
    return fams[(p, q)].members[0]


def _hidden_slot_setup(instance, seed, fixed_slots):
    """Hidden union, surrogate families and diagonal mixer (1 outside the
    union) of a scheme needing 2L + fixed_slots slots; the slot count is
    checked before any family is built."""
    K, n = instance.K, instance.n
    cross = [(p, q) for p in range(K) for q in range(K) if p != q]
    omega = sorted(hidden_union([instance.unknown_set(p, q) for p, q in cross]))
    expect_n = 2 * len(omega) + fixed_slots
    if n != expect_n:
        raise ValueError(
            f"slot count must equal 2L + {fixed_slots} = {expect_n}")
    fams = {}
    for idx, (p, q) in enumerate(cross):
        fams[(p, q)] = build_indexed_basis(
            instance.channel(p, q), instance.unknown_set(p, q),
            seed * 613 + idx + 1)
    rng = np.random.default_rng(seed)
    gam = np.ones(n)
    for slot, v in zip(omega, separated_uniform(rng, len(omega), avoid=(1.0,))):
        gam[slot - 1] = v
    return omega, fams, gam


def build_3user(instance: NetworkInstance, epsilon, seed):
    """Construct the three precoders from surrogate families only.

    The builder reads true gains solely on known slots (the indexed basis
    copies those and redraws hidden ones), so hidden values never leak in.
    """
    if instance.K != 3:
        raise ValueError("this constructor is for 3 users")
    if epsilon < 1:
        raise ValueError("epsilon must be >= 1")
    n = instance.n
    omega, fams, gam = _hidden_slot_setup(instance, seed, 2 * epsilon + 1)
    L = len(omega)

    t = (_surrogate(fams, 0, 1) * _surrogate(fams, 1, 2) * _surrogate(fams, 2, 0)
         / (_surrogate(fams, 1, 0) * _surrogate(fams, 2, 1) * _surrogate(fams, 0, 2)))

    def columns(i_lo, i_hi):
        return np.column_stack([(t ** i) * (gam ** j)
                                for i in range(i_lo, i_hi + 1)
                                for j in range(1, L + 2)])

    a = columns(0, epsilon)
    b = columns(1, epsilon)
    c = columns(0, epsilon - 1)
    v1 = a
    v3 = (_surrogate(fams, 1, 0) / _surrogate(fams, 1, 2))[:, None] * b
    v2 = (_surrogate(fams, 2, 0) / _surrogate(fams, 2, 1))[:, None] * c
    expected = {
        "rank_tx1": L + epsilon + 1,
        "rank_seed": L + epsilon,
        "joint_rank": 2 * (L + epsilon) + 1,
        "dof": (Fraction(L + epsilon + 1, n), Fraction(L + epsilon, n),
                Fraction(L + epsilon, n)),
    }
    return FastFading3Scheme(n=n, L=L, epsilon=epsilon, omega=tuple(omega),
                             loop_transfer=t, gamma=gam, surrogates=fams,
                             tx_columns=(v1, v2, v3),
                             seed_columns={"tx1": a, "tx3": b, "tx2": c},
                             expected=expected)


def _member_combos(fams, keys, rng):
    """Member index per key for every substitution to check, one row each
    in lexicographic order: all of them when there are at most
    _COMBO_CAP, else the distinct rows among _COMBO_CAP random draws.

    Rows are deduplicated as mixed-radix codes (first key most
    significant), whose numeric order is the rows' lexicographic order.
    """
    sizes = [len(fams[k].members) for k in keys]
    if np.prod(sizes) <= _COMBO_CAP:
        return np.indices(sizes).reshape(len(sizes), -1).T
    draw = rng.integers(0, sizes, size=(_COMBO_CAP, len(sizes)))
    radix = np.cumprod([1, *sizes[:0:-1]])[::-1]
    return np.column_stack(np.unravel_index(np.unique(draw @ radix), sizes))


def verify_3user(scheme: FastFading3Scheme, instance: NetworkInstance,
                 tol=DEFAULT_TOL):
    """Rank-based verification on true (hidden values included) channels.

    Returns a dict of named boolean checks plus measured numbers.  The
    desired/interference separation check needs a non-diagonal direct
    transform whose bandwidth exceeds the hidden-slot gaps; with other
    transforms the result is reported but flagged as not guaranteed.

    Every rank is taken from a stack of same-shape matrices, six kernel
    calls in all.  One ``numeric_rank_by_shape`` call ranks the seed
    column sets, the received matrices R10 and R20 of the containments,
    the three joints ``[R10, H12 v3]``, ``[R20, H21 v2]`` and ``[H00 v1,
    H01 v2]``, and every distinct side of ``rx1_span_equality``: a side
    depends on one surrogate member only, so each member's side is ranked
    once and read back per substitution.  Each of the up to 64
    substitutions then factors one joint ``[right, left]``, whose rank
    equals that of ``[left, right]``, as column order does not change a
    rank; the two sides span the same space when both ranks equal the
    joint's.  ``loop_closure`` tests its substitutions with
    ``is_subspace_each`` against one base.  The verdicts equal those of
    one ``is_subspace`` call per containment, and the seeded draws come in
    the same order: the combos first, then one gamma exponent per combo.
    """
    n, L, eps = scheme.n, scheme.L, scheme.epsilon
    v1, v2, v3 = scheme.tx_columns
    fams = scheme.surrogates
    rng = np.random.default_rng(instance.seed + 17)
    checks = {}
    measured = {}

    # a list of member substitutions is one (combos, n) array per link
    def substituted(keys, combos):
        return [fams[k].members[picks] for k, picks in zip(keys, combos.T)]

    r10 = instance.received_matrix(1, 0, v1)
    r20 = instance.received_matrix(2, 0, v1)
    # the rx1 span sides of every member of links (0, 1) and (0, 2)
    sides12 = fams[(0, 1)].members[:, :, None] * v2
    sides13 = fams[(0, 2)].members[:, :, None] * v3
    (measured["rank_tx1"], rank_r10, rank_r20, measured["rank_seed_b"],
     measured["rank_seed_c"], joint_rx2, joint_rx3, measured["joint_rank"],
     *side_ranks) = numeric_rank_by_shape(
        [scheme.seed_columns["tx1"], r10, r20, scheme.seed_columns["tx3"],
         scheme.seed_columns["tx2"],
         np.hstack([r10, instance.received_matrix(1, 2, v3)]),
         np.hstack([r20, instance.received_matrix(2, 1, v2)]),
         np.hstack([instance.received_matrix(0, 0, v1),
                    instance.received_matrix(0, 1, v2)]),
         *sides12, *sides13], tol)
    checks["rank_tx1"] = measured["rank_tx1"] == L + eps + 1
    checks["rank_seeds"] = (measured["rank_seed_b"] == L + eps
                            and measured["rank_seed_c"] == L + eps)

    # interference from TX2 and TX3 collapses to one span at RX1, for every
    # surrogate-member substitution of the two incoming links
    keys = [(0, 1), (0, 2)]
    combos = _member_combos(fams, keys, rng)
    g12, g13 = substituted(keys, combos)
    joint = numeric_rank_each(
        np.concatenate([g13[:, :, None] * v3, g12[:, :, None] * v2], axis=-1),
        tol)
    side_ranks = np.array(side_ranks)
    checks["rx1_span_equality"] = bool(np.all(
        (joint == side_ranks[combos[:, 0]])
        & (joint == side_ranks[len(sides12) + combos[:, 1]])))

    # loop-map substitutions stay inside the base span
    gamma_powers = np.array([scheme.gamma ** j for j in range(1, L + 2)])
    base = np.column_stack([scheme.loop_transfer * g for g in gamma_powers])
    keys = [(0, 1), (1, 2), (2, 0), (1, 0), (2, 1), (0, 2)]
    combos = _member_combos(fams, keys, rng)
    jps = rng.integers(1, L + 2, size=len(combos))
    g = substituted(keys, combos)
    vecs = ((g[0] * g[1] * g[2]) / (g[3] * g[4] * g[5])
            * gamma_powers[jps - 1])
    checks["loop_closure"] = bool(np.all(is_subspace_each(
        vecs[:, :, None], base, tol)))

    # true-channel containments at RX2 and RX3
    checks["rx2_containment"] = joint_rx2 == rank_r10
    checks["rx3_containment"] = joint_rx3 == rank_r20

    # desired + interference fills all n dimensions at RX1
    checks["rx1_separation"] = measured["joint_rank"] == 2 * (L + eps) + 1

    if len(scheme.omega) <= 1:
        gaps_ok = True
    else:
        gaps_ok = all(b - a < max(1, instance.transforms[0].distance)
                      for a, b in zip(scheme.omega, scheme.omega[1:]))
    measured["separation_guaranteed"] = bool(
        instance.transforms[0].kind in ("memory", "permutation") and gaps_ok)
    return {"checks": checks, "measured": measured}


# ---------------------------------------------------------------------------
# K-user generalization


@dataclass(frozen=True)
class KUserScheme:
    K: int
    n: int
    L: int
    n_star: int
    N: int
    omega: tuple
    tx1_columns: np.ndarray
    seed_columns: np.ndarray
    expected: dict


def _grid_columns(maps, gamma_powers, lo, hi):
    """One column per exponent tuple a in [lo, hi]^N, in itertools.product
    order, times each gamma power in turn: 1 * maps[0]**a_0 * ... *
    maps[N-1]**a_(N-1) * gamma_powers[j], multiplied in that order."""
    n = gamma_powers.shape[1]
    rows = np.ones((1, n))
    for t in maps:
        powers = np.array([t ** a for a in range(lo, hi + 1)])
        rows = (rows[:, None] * powers).reshape(-1, n)
    return (rows[:, None] * gamma_powers).reshape(-1, n).T


def build_kuser(instance: NetworkInstance, n_star, seed):
    """Pairwise-transfer column families for K >= 3 users.

    Exponent grids over the N = (K-1)(K-2)-1 pairwise transfer maps give
    the seed set (exponents 1..n_star) and the first transmitter's set
    (exponents 0..n_star); expected ranks are L + n_star^N and
    L + (n_star+1)^N over n = 2L + n_star^N + (n_star+1)^N slots.
    """
    K, n = instance.K, instance.n
    if K < 3:
        raise ValueError("need K >= 3")
    if n_star < 1:
        raise ValueError("n_star must be >= 1")
    N = (K - 1) * (K - 2) - 1
    if (n_star + 1) ** N > KUSER_SIZE_GUARD:
        raise ValueError("exponent grid too large for direct construction")
    omega, fams, gam = _hidden_slot_setup(instance, seed,
                                          n_star ** N + (n_star + 1) ** N)
    L = len(omega)

    def q1(p, q):
        return _surrogate(fams, p, q)

    relay = {q: q1(0, 2) * q1(1, 0) / (q1(0, q) * q1(1, 2))
             for q in range(1, K)}
    pairs = [(p, q) for p in range(1, K) for q in range(1, K)
             if p != q and (p, q) != (1, 2)]
    if len(pairs) != N:
        raise ValueError(f"expected {N} transfer-map pairs, got {len(pairs)}")
    maps = [q1(*pq) / q1(pq[0], 0) * relay[pq[1]] for pq in pairs]
    gamma_powers = np.array([gam ** j for j in range(1, L + 2)])
    seed_cols = _grid_columns(maps, gamma_powers, 1, n_star)
    tx1_cols = _grid_columns(maps, gamma_powers, 0, n_star)
    expected = {"dim_seed": L + n_star ** N,
                "dim_tx1": L + (n_star + 1) ** N}
    return KUserScheme(K=K, n=n, L=L, n_star=n_star, N=N, omega=tuple(omega),
                       tx1_columns=tx1_cols, seed_columns=seed_cols,
                       expected=expected)
