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
from pairwise transfer maps.  ``verify_3user`` and ``verify_kuser`` check
the two constructions by rank and return ``(checks, measured)``.

Each construction is a seed-free plan (``plan_3user``, ``plan_kuser``: the
parameter and slot-count checks and the sorted hidden union) and a
seeded draw of the scheme from it (``draw_3user``, ``draw_kuser``).
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel import NetworkInstance, UnknownSet, separated_uniform
from .decomposition import build_indexed_basis
# is_subspace is bound here, unused, because perfbench's tracing test
# checks that the tracer rebinds alignsim.fastfading.is_subspace
from .linalg import balanced_rank, is_subspace, numeric_rank_by_shape

__all__ = [
    "FastFading3Scheme",
    "KUserScheme",
    "plan_3user",
    "draw_3user",
    "build_3user",
    "verify_3user",
    "plan_kuser",
    "draw_kuser",
    "build_kuser",
    "verify_kuser",
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
    expected: dict              # {"dof": per-user DoF fractions}


def _surrogate(fams, p, q):
    return fams[(p, q)].members[0]


def _hidden_omega(network, fixed_slots):
    """The sorted hidden union of a config's or instance's cross links,
    after checking that it has 2L + fixed_slots slots."""
    K, n = network.K, network.n
    omega = tuple(sorted(hidden_union(
        [network.unknown_set(p, q) for p in range(K) for q in range(K)
         if p != q])))
    expect_n = 2 * len(omega) + fixed_slots
    if n != expect_n:
        raise ValueError(f"n = {n} must equal 2L + {fixed_slots} = "
                         f"{expect_n}, where L = {len(omega)} is the number "
                         "of hidden slots")
    return omega


def _hidden_slot_setup(instance, omega, seed):
    """Surrogate families and the diagonal mixer (1 outside the hidden
    union omega) of a scheme."""
    K, n = instance.K, instance.n
    cross = [(p, q) for p in range(K) for q in range(K) if p != q]
    gains = [instance.channel(p, q) for p, q in cross]
    # products of three gains beyond 2^256 or below 2^-257 may overflow or
    # underflow, so such gains are scaled by a power of two ratios cancel
    _, exp = np.frexp(np.abs(gains).max())
    if abs(exp) > 256:
        gains = [np.ldexp(h, -exp) for h in gains]
    fams = {pq: build_indexed_basis(h, instance.unknown_set(*pq),
                                    seed * 613 + idx + 1)
            for idx, (pq, h) in enumerate(zip(cross, gains))}
    rng = np.random.default_rng(seed)
    gam = np.ones(n)
    for slot, v in zip(omega, separated_uniform(rng, len(omega), avoid=(1.0,))):
        gam[slot - 1] = v
    return fams, gam


def plan_3user(network, epsilon):
    """The sorted hidden union of a 3-user config or instance, after the
    user-count, epsilon and slot-count (n = 2L + 2 epsilon + 1) checks."""
    if network.K != 3:
        raise ValueError("this constructor is for 3 users")
    if epsilon < 1:
        raise ValueError("epsilon must be >= 1")
    return _hidden_omega(network, 2 * epsilon + 1)


def build_3user(instance: NetworkInstance, epsilon, seed):
    """Construct the three precoders from surrogate families only."""
    return draw_3user(instance, epsilon, plan_3user(instance, epsilon), seed)


def draw_3user(instance: NetworkInstance, epsilon, omega, seed):
    """The three precoders of a planned 3-user scheme, from surrogate
    families only.

    The builder reads true gains solely on known slots (the indexed basis
    copies those and redraws hidden ones), so hidden values never leak in.
    """
    n, L = instance.n, len(omega)
    fams, gam = _hidden_slot_setup(instance, omega, seed)

    t = (_surrogate(fams, 0, 1) * _surrogate(fams, 1, 2) * _surrogate(fams, 2, 0)
         / (_surrogate(fams, 1, 0) * _surrogate(fams, 2, 1) * _surrogate(fams, 0, 2)))

    # columns t^i * gamma^j, i-major; tx3's and tx2's seeds are those with
    # i >= 1 and with i < epsilon
    v1 = np.column_stack([(t ** i) * (gam ** j) for i in range(epsilon + 1)
                          for j in range(1, L + 2)])
    v3 = ((_surrogate(fams, 1, 0) / _surrogate(fams, 1, 2))[:, None]
          * v1[:, L + 1:])
    v2 = ((_surrogate(fams, 2, 0) / _surrogate(fams, 2, 1))[:, None]
          * v1[:, :epsilon * (L + 1)])
    expected = {"dof": (Fraction(L + epsilon + 1, n), Fraction(L + epsilon, n),
                        Fraction(L + epsilon, n))}
    return FastFading3Scheme(n=n, L=L, epsilon=epsilon, omega=omega,
                             loop_transfer=t, gamma=gam, surrogates=fams,
                             tx_columns=(v1, v2, v3), expected=expected)


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


def verify_3user(scheme: FastFading3Scheme, instance: NetworkInstance):
    """Rank-based verification on true (hidden values included) channels,
    as ``(checks, measured)``.

    The desired/interference separation check needs a non-diagonal direct
    transform whose bandwidth exceeds the hidden-slot gaps; with other
    transforms the result is reported but flagged as not guaranteed.

    One ``numeric_rank_by_shape`` call ranks every matrix, one stack per
    distinct shape; the span sides and joints and the loop joints go in
    as the stacks they are built as.  A containment holds when the rank of
    the raw ``[base, candidate]`` joint equals the base's.
    ``rx1_span_equality`` ranks each side once per surrogate member and
    one ``[right, left]`` joint per substitution: column order does not
    change a rank, so the two sides span one space when both their ranks
    equal the joint's.  The seeded draws come in a fixed order: the rx1
    substitutions, the loop-map substitutions, then their gamma exponents.
    """
    L, eps = scheme.L, scheme.epsilon
    v1, v2, v3 = scheme.tx_columns
    fams = scheme.surrogates
    rng = np.random.default_rng(instance.seed + 17)

    # a list of member substitutions is one (combos, n) array per link
    def substituted(keys, combos):
        return [fams[k].members[picks] for k, picks in zip(keys, combos.T)]

    # interference from TX2 and TX3 collapses to one span at RX1, for every
    # surrogate-member substitution of the two incoming links
    sides12 = fams[(0, 1)].members[:, :, None] * v2
    sides13 = fams[(0, 2)].members[:, :, None] * v3
    keys = [(0, 1), (0, 2)]
    span_combos = _member_combos(fams, keys, rng)
    g12, g13 = substituted(keys, span_combos)
    span_joints = np.concatenate(
        [g13[:, :, None] * v3, g12[:, :, None] * v2], axis=-1)

    # loop-map substitutions stay inside the base span; tx1's first two
    # column blocks are t^0 gamma^j and t^1 gamma^j, j = 1..L+1
    gamma_powers = v1[:, :L + 1].T
    base = v1[:, L + 1:2 * (L + 1)]
    keys = [(0, 1), (1, 2), (2, 0), (1, 0), (2, 1), (0, 2)]
    combos = _member_combos(fams, keys, rng)
    jps = rng.integers(1, L + 2, size=len(combos))
    g = substituted(keys, combos)
    vecs = ((g[0] * g[1] * g[2]) / (g[3] * g[4] * g[5])
            * gamma_powers[jps - 1])
    loop_joints = np.concatenate(
        [np.broadcast_to(base, (len(vecs),) + base.shape), vecs[:, :, None]],
        axis=-1)

    r10 = instance.received_matrix(1, 0, v1)
    r20 = instance.received_matrix(2, 0, v1)
    (rank_tx1, rank_r10, rank_r20, rank_seed_b, rank_seed_c, joint_rx2,
     joint_rx3, joint_rx1, rank_base, side12, side13, span,
     loop) = numeric_rank_by_shape(
        [v1, r10, r20, v1[:, L + 1:], v1[:, :eps * (L + 1)],
         np.hstack([r10, instance.received_matrix(1, 2, v3)]),
         np.hstack([r20, instance.received_matrix(2, 1, v2)]),
         np.hstack([instance.received_matrix(0, 0, v1),
                    instance.received_matrix(0, 1, v2)]),
         base, sides12, sides13, span_joints, loop_joints])

    checks = {
        "rank_tx1": rank_tx1 == L + eps + 1,
        "rank_seeds": rank_seed_b == L + eps and rank_seed_c == L + eps,
        "rx1_span_equality": bool(np.all(
            (span == side12[span_combos[:, 0]])
            & (span == side13[span_combos[:, 1]]))),
        "loop_closure": bool(np.all(loop == rank_base)),
        # true-channel containments at RX2 and RX3
        "rx2_containment": joint_rx2 == rank_r10,
        "rx3_containment": joint_rx3 == rank_r20,
        # desired + interference fills all n dimensions at RX1
        "rx1_separation": joint_rx1 == 2 * (L + eps) + 1}
    gaps_ok = all(b - a < max(1, instance.transforms[0].distance)
                  for a, b in zip(scheme.omega, scheme.omega[1:]))
    measured = {
        "rank_tx1": rank_tx1, "rank_seed_b": rank_seed_b,
        "rank_seed_c": rank_seed_c, "joint_rank": joint_rx1,
        "separation_guaranteed": bool(
            instance.transforms[0].kind in ("memory", "permutation")
            and gaps_ok)}
    return checks, measured


# ---------------------------------------------------------------------------
# K-user generalization


@dataclass(frozen=True)
class KUserScheme:
    n: int
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


def plan_kuser(network, n_star):
    """The sorted hidden union of a K-user config or instance, after the
    user-count, n_star, grid-size and slot-count checks."""
    K = network.K
    if K < 3:
        raise ValueError("need K >= 3")
    if n_star < 1:
        raise ValueError("n_star must be >= 1")
    N = (K - 1) * (K - 2) - 1
    if (n_star + 1) ** N > KUSER_SIZE_GUARD:
        raise ValueError("exponent grid too large for direct construction")
    return _hidden_omega(network, n_star ** N + (n_star + 1) ** N)


def build_kuser(instance: NetworkInstance, n_star, seed):
    """Pairwise-transfer column families for K >= 3 users."""
    return draw_kuser(instance, n_star, plan_kuser(instance, n_star), seed)


def draw_kuser(instance: NetworkInstance, n_star, omega, seed):
    """Pairwise-transfer column families of a planned K-user scheme.

    Exponent grids over the N = (K-1)(K-2)-1 pairwise transfer maps give
    the seed set (exponents 1..n_star) and the first transmitter's set
    (exponents 0..n_star); expected ranks are L + n_star^N and
    L + (n_star+1)^N over n = 2L + n_star^N + (n_star+1)^N slots.
    """
    K, n, L = instance.K, instance.n, len(omega)
    N = (K - 1) * (K - 2) - 1
    fams, gam = _hidden_slot_setup(instance, omega, seed)

    def q1(p, q):
        return _surrogate(fams, p, q)

    relay = {q: q1(0, 2) * q1(1, 0) / (q1(0, q) * q1(1, 2))
             for q in range(1, K)}
    pairs = [(p, q) for p in range(1, K) for q in range(1, K)
             if p != q and (p, q) != (1, 2)]
    maps = [q1(*pq) / q1(pq[0], 0) * relay[pq[1]] for pq in pairs]
    gamma_powers = np.array([gam ** j for j in range(1, L + 2)])
    seed_cols = _grid_columns(maps, gamma_powers, 1, n_star)
    tx1_cols = _grid_columns(maps, gamma_powers, 0, n_star)
    expected = {"dim_seed": L + n_star ** N,
                "dim_tx1": L + (n_star + 1) ** N}
    return KUserScheme(n=n, tx1_columns=tx1_cols, seed_columns=seed_cols,
                       expected=expected)


def verify_kuser(scheme: KUserScheme):
    """Dimensions of transmitter 1's seed and column families against the
    formula, as ``(checks, measured)``; no channel is read.

    The columns are products of many transfer-map ratios, so row
    magnitudes vary by orders of magnitude; ``balanced_rank`` equalizes
    the rows first to keep the threshold fair.
    """
    measured = {"dim_seed": balanced_rank(scheme.seed_columns),
                "dim_tx1": balanced_rank(scheme.tx1_columns)}
    checks = {"dims_match_formula": (
        measured["dim_seed"] == scheme.expected["dim_seed"]
        and measured["dim_tx1"] == scheme.expected["dim_tx1"])}
    return checks, measured
