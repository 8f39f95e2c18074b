"""Half-CSI fast-fading alignment and the CSIT-fraction bound calculators.

Every cross link (p, q) has a set U of slots whose gain is hidden from
everyone, and omega is their union.  The precoders read each cross
link's gains off omega only, with 1 on omega: ratios of those around the
3-user loop give a diagonal transfer map T; its powers times the
indicator u of the slots off omega, beside E_omega = [e_s : s in omega],
yield column sets whose spans are immune to the hidden gains: a
substitution of hidden values moves columns only along E_omega, which
each span holds.  ``verify_3user`` checks that claim for every hidden
value at once, from E_omega (a rank beside it, or an exact comparison),
not by sampling substitutions.

Also implemented: the exact CSIT-fraction metric, the closed-form sum-DoF
caps as a function of that fraction, and the K-user generalization built
from pairwise transfer maps.  ``verify_3user`` and ``verify_kuser`` check
the two constructions by rank and return ``(checks, measured, total_dof)``.

Each construction is a seed-free ``HiddenSlotPlan`` (``plan_3user``,
``plan_kuser``: after the parameter and slot-count checks, omega, the
cross links and their gain rows, [u, E_omega], the known-slot mask, the
expected DoF or dimensions and the 3-user rx1 matching) and a draw from
it and an instance's known gains (``draw_3user``, ``draw_kuser``), which
seeds nothing.
"""

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .channel import NetworkInstance, UnknownSet
# is_subspace is bound here, unused, because perfbench's tracing test
# checks that the tracer rebinds alignsim.fastfading.is_subspace
from .linalg import is_subspace, numeric_rank_by_shape

__all__ = [
    "HiddenSlotPlan",
    "FastFading3Scheme",
    "KUserScheme",
    "plan_3user",
    "draw_3user",
    "verify_3user",
    "plan_kuser",
    "draw_kuser",
    "verify_kuser",
    "upsilon_fraction",
    "dof_cap_given_upsilon",
    "min_upsilon_for_max_dof",
    "hidden_union",
]

KUSER_SIZE_GUARD = 100_000


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
class HiddenSlotPlan:
    """What a fast-fading config's hidden slots fix before any seed."""
    order: int                  # epsilon (3-user) or n_star (K-user)
    omega: tuple                # sorted hidden union
    links: tuple                # the cross links (p, q), row-major
    rows: np.ndarray            # gain row p*K + q of each cross link
    indicators: np.ndarray      # read-only [u, E_omega], u: 1 off omega
    known: np.ndarray           # read-only mask of the slots off omega
    expected: dict = None       # {"dof": per-user DoF} or the K-user ranks
    total_dof: Fraction = None  # the total DoF (3-user: if rx1 separates)
    separated: object = None    # 3-user rx1 matching; None: per permutation


@dataclass(frozen=True)
class FastFading3Scheme:
    plan: HiddenSlotPlan
    loop_transfer: np.ndarray   # diagonal values of the loop map T
    tx_columns: tuple           # precoder matrix per transmitter (V1, V2, V3)


def _plan(network, fixed_slots, order):
    """The hidden-slot plan of a config or instance, after checking that
    it has n = 2L + fixed_slots slots, L the size of the hidden union."""
    K, n = network.K, network.n
    links = tuple((p, q) for p in range(K) for q in range(K) if p != q)
    omega = tuple(sorted(hidden_union(network.unknown_set(p, q)
                                      for p, q in links)))
    if n != 2 * len(omega) + fixed_slots:
        raise ValueError(f"n = {n} must equal 2L + {fixed_slots} = "
                         f"{2 * len(omega) + fixed_slots}, where L = "
                         f"{len(omega)} is the number of hidden slots")
    basis = np.zeros((n, len(omega) + 1))
    basis[:, 0] = 1.0
    basis[np.array(omega, dtype=int) - 1] = np.eye(len(omega) + 1)[1:]
    rows, known = np.array([p * K + q for p, q in links]), basis[:, 0] == 1
    for a in (basis, rows, known):
        a.setflags(write=False)
    return HiddenSlotPlan(order, omega, links, rows, basis, known)


def _known_gains(instance, plan):
    """Each cross link's gains, row by row in the plan's link order, off
    omega and 1 on it: all of the channel that a precoder may read."""
    return np.where(plan.known, instance.gains[plan.rows], 1.0)


def plan_3user(config, epsilon):
    """The hidden-slot plan of a 3-user config, after the user-count,
    epsilon and slot-count (n = 2L + 2 epsilon + 1) checks, with the
    per-user DoF (L + epsilon + 1, L + epsilon, L + epsilon) / n.  A band
    of distance d (the identity's is 0) matches each hidden slot s to its
    own r off omega in (s, s + d] if the greedy pass taking the least r
    does."""
    if config.K != 3:
        raise ValueError("this constructor is for 3 users")
    if epsilon < 1:
        raise ValueError("epsilon must be >= 1")
    plan = _plan(config, 2 * epsilon + 1, epsilon)
    w, n = len(plan.omega) + epsilon, config.n
    dof = (Fraction(w + 1, n), Fraction(w, n), Fraction(w, n))
    separated = None
    if config.direct_kind != "permutation":
        d = config.memory_distance if config.direct_kind == "memory" else 0
        taken = set(plan.omega)
        for s in plan.omega:
            taken.add(next((r for r in range(s + 1, min(s + d, n) + 1)
                            if r not in taken), None))
        separated = None not in taken
    return replace(plan, expected={"dof": dof}, total_dof=sum(dof),
                   separated=separated)


def draw_3user(instance: NetworkInstance, plan: HiddenSlotPlan):
    """The three precoders of a planned 3-user scheme, from the known
    gains only (1 on omega), so hidden values never leak in.

    tx1's columns are [u, t u, ..., t^epsilon u, E_omega], t the loop
    map; tx3's seed drops u and tx2's drops t^epsilon u.  They span what
    the products t^i gamma^j, j = 1..L+1, span for a mixer gamma that is 1
    off omega and distinct, nonzero and not 1 on it: the Vandermonde
    matrix on the nodes {1, gamma_s} is invertible, so span{gamma^j} =
    span{u, E_omega}, and t, nonzero on omega, keeps span(E_omega).
    """
    n, L, eps, basis = instance.n, len(plan.omega), plan.order, plan.indicators
    g = dict(zip(plan.links, _known_gains(instance, plan)))
    t = g[0, 1] * g[1, 2] * g[2, 0] / (g[1, 0] * g[2, 1] * g[0, 2])
    v1 = np.empty((n, L + eps + 1))
    for i in range(eps + 1):
        np.multiply(t ** i, basis[:, 0], out=v1[:, i])
    v1[:, eps + 1:] = basis[:, 1:]
    v3 = (g[1, 0] / g[1, 2])[:, None] * v1[:, 1:]
    v2 = np.concatenate([v1[:, :eps], v1[:, eps + 1:]], axis=1)
    v2 *= (g[2, 0] / g[2, 1])[:, None]
    return FastFading3Scheme(plan=plan, loop_transfer=t,
                             tx_columns=(v1, v2, v3))


def verify_3user(scheme: FastFading3Scheme, instance: NetworkInstance):
    """Rank-based verification on true (hidden values included) channels,
    as ``(checks, measured, total_dof)``: the total is the plan's sum of
    the per-user DoF when ``rx1_separation`` holds, else 1.
    ``separation_guaranteed`` is the plan's rx1 matching, or for a drawn
    permutation whether it maps no hidden slot onto a hidden slot.

    ``rx1_span_equality`` and ``loop_closure`` claim that a span stays put
    whatever values the hidden gains take.  The scheme read each cross
    link's gains off omega only, so a substitution of values on omega
    moves a column only by a vector supported on omega, and a diagonal
    scaling that is nonzero on omega maps span(E_omega), E_omega = [e_s :
    s in omega], onto itself.  So the loop vectors t' u = t u and t' e_s
    stay in span[t u, E_omega] for every hidden value when tx1's last L
    columns equal E_omega, read from the plan's indicator basis, which
    ``loop_closure`` checks exactly, with no rank; and span(g12 v2) =
    span(g13 v3) for every pair of hidden values iff rank([s13 v3, s12 v2,
    E_omega]) equals the rank of each side, s12 and s13 the verified
    instance's gains of links (0, 1) and (0, 2) off omega, 1 on it: that
    one joint stands for E_omega inside both spans and for their equality.
    A containment holds when the rank of a raw ``[base, candidate]`` joint
    equals the base's.  One ``numeric_rank_by_shape`` call ranks a C-ordered
    stack per shape, each written in place: ``tx`` (tx1 and the rx2 and rx3
    bases), ``seeds`` (both seed sets, s12 v2 and s13 v3), ``joints`` (at
    rx2, rx3 and rx1) and the rx1 ``span``.
    """
    plan, n, eps = scheme.plan, instance.n, scheme.plan.order
    v1, v2, v3 = scheme.tx_columns
    w, e_omega = len(plan.omega) + eps, plan.indicators[:, 1:]
    h = instance.gains.reshape(3, 3, n, 1)
    tx = np.empty((3, n, w + 1))
    tx[0] = v1
    np.multiply(h[1:, 0], v1, out=tx[1:])
    seeds = np.empty((4, n, w))
    seeds[:2] = v1[:, 1:]
    seeds[1, :, :eps] = v1[:, :eps]
    # s12 v2, s13 v3: links (0, 1), (0, 2) lead this instance's known gains
    s12, s13 = _known_gains(instance, plan)[:2]
    np.multiply(s12[:, None], v2, out=seeds[2])
    np.multiply(s13[:, None], v3, out=seeds[3])
    joints = np.empty((3, n, n))
    joints[:2, :, :w + 1] = tx[1:]
    joints[2, :, :w + 1] = instance.received_matrix(0, 0, v1)
    np.multiply(h[1, 2], v3, out=joints[0, :, w + 1:])
    np.multiply(h[2, 1], v2, out=joints[1, :, w + 1:])
    np.multiply(h[0, 1], v2, out=joints[2, :, w + 1:])
    span = np.concatenate([seeds[3], seeds[2], e_omega], axis=1)
    rank = numeric_rank_by_shape({"tx": tx, "seeds": seeds, "joints": joints,
                                  "span": span})
    rank_tx1, rx2_base, rx3_base = rank["tx"].tolist()
    rank_seed_b, rank_seed_c, side12, side13 = rank["seeds"].tolist()
    rx2_joint, rx3_joint, joint_rank = rank["joints"].tolist()

    checks = {
        "rank_tx1": rank_tx1 == w + 1,
        "rank_seeds": rank_seed_b == rank_seed_c == w,
        # interference from TX2 and TX3 collapses to one span at RX1, for
        # every hidden value of the two incoming links
        "rx1_span_equality": rank["span"] == side12 == side13,
        # loop-map substitutions stay inside span[t u, E_omega]: tx1's
        # columns are [u, t u, ..., t^eps u, E_omega]
        "loop_closure": np.array_equal(v1[:, eps + 1:], e_omega),
        # true-channel containments at RX2 and RX3
        "rx2_containment": rx2_joint == rx2_base,
        "rx3_containment": rx3_joint == rx3_base,
        # desired + interference fills all n dimensions at RX1
        "rx1_separation": joint_rank == 2 * w + 1}
    separated, hidden = plan.separated, ~plan.known
    if separated is None:
        separated = not instance.transforms[0].matrix[hidden][:, hidden].any()
    measured = {"rank_tx1": rank_tx1, "rank_seed_b": rank_seed_b,
                "rank_seed_c": rank_seed_c, "joint_rank": joint_rank,
                "separation_guaranteed": separated}
    return checks, measured, (plan.total_dof if checks["rx1_separation"]
                              else Fraction(1))


# ---------------------------------------------------------------------------
# K-user generalization


@dataclass(frozen=True)
class KUserScheme:
    plan: HiddenSlotPlan
    tx1_columns: np.ndarray
    seed_columns: np.ndarray


def _grid_columns(maps, basis, lo, hi):
    """One column per exponent tuple a in [lo, hi]^N, in itertools.product
    order, u * maps[0]**a_0 * ... * maps[N-1]**a_(N-1) multiplied in that
    order, then E_omega; ``basis`` is the indicator basis [u, E_omega]."""
    n = basis.shape[0]
    rows = basis[:, :1].T
    for t in maps:
        powers = np.array([t ** a for a in range(lo, hi + 1)])
        rows = (rows[:, None] * powers).reshape(-1, n)
    return np.hstack([rows.T, basis[:, 1:]])


def plan_kuser(network, n_star):
    """The hidden-slot plan of a K-user config or instance, after the
    user-count, n_star, grid-size and slot-count checks, with the expected
    ranks L + n_star^N and L + (n_star+1)^N of the seed set and the first
    transmitter's set, N = (K-1)(K-2)-1."""
    K = network.K
    if K < 3:
        raise ValueError("need K >= 3")
    if n_star < 1:
        raise ValueError("n_star must be >= 1")
    N = (K - 1) * (K - 2) - 1
    if (n_star + 1) ** N > KUSER_SIZE_GUARD:
        raise ValueError("exponent grid too large for direct construction")
    plan = _plan(network, n_star ** N + (n_star + 1) ** N, n_star)
    L = len(plan.omega)
    return replace(plan, expected={"dim_seed": L + n_star ** N,
                                   "dim_tx1": L + (n_star + 1) ** N},
                   total_dof=Fraction(L + (n_star + 1) ** N, network.n))


def draw_kuser(instance: NetworkInstance, plan: HiddenSlotPlan):
    """Pairwise-transfer column families of a planned K-user scheme.

    Exponent grids over the N = (K-1)(K-2)-1 pairwise transfer maps give
    the seed set (exponents 1..n_star) and the first transmitter's set
    (exponents 0..n_star), each monomial times u, then E_omega; the maps
    are ratios of the known gains (1 on omega), so their grid columns,
    zero on omega, never read a hidden gain.  Each set spans what the
    monomials times gamma^j, j = 1..L+1, span, under ``draw_3user``'s
    conditions on the mixer gamma, since the maps are nonzero on omega.
    """
    K, n_star = instance.K, plan.order
    q1 = dict(zip(plan.links, _known_gains(instance, plan)))
    relay = {q: q1[0, 2] * q1[1, 0] / (q1[0, q] * q1[1, 2])
             for q in range(1, K)}
    pairs = [(p, q) for p in range(1, K) for q in range(1, K)
             if p != q and (p, q) != (1, 2)]
    maps = [q1[pq] / q1[pq[0], 0] * relay[pq[1]] for pq in pairs]
    seed_cols = _grid_columns(maps, plan.indicators, 1, n_star)
    tx1_cols = _grid_columns(maps, plan.indicators, 0, n_star)
    return KUserScheme(plan=plan, tx1_columns=tx1_cols,
                       seed_columns=seed_cols)


def verify_kuser(scheme: KUserScheme):
    """Dimensions of transmitter 1's seed and column families against the
    plan's formula, as ``(checks, measured, total_dof)``; no channel is
    read.  The total is the plan's: transmitter 1's formula dimension over
    n, whatever the checks.

    The columns are products of many transfer-map ratios, so row
    magnitudes vary by orders of magnitude; both families are ranked in
    one ``numeric_rank_by_shape`` call with ``balance_rows``, which
    equalizes the rows first to keep the threshold fair.
    """
    measured = numeric_rank_by_shape({"dim_seed": scheme.seed_columns,
                                      "dim_tx1": scheme.tx1_columns},
                                     balance_rows=True)
    checks = {"dims_match_formula": measured == scheme.plan.expected}
    return checks, measured, scheme.plan.total_dof
