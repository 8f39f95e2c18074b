"""Half-CSI fast-fading schemes and the CSIT-fraction calculators."""

import dataclasses
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from alignsim.channel import NetworkConfig, UnknownSet, sample_network
from alignsim.fastfading import (_grid_columns, _member_combos, build_3user,
                                 build_kuser, dof_cap_given_upsilon,
                                 hidden_union,
                                 min_upsilon_for_max_dof, upsilon_fraction,
                                 verify_3user, verify_kuser)
from alignsim.harness import Scenario, run_trials
from alignsim.linalg import (balanced_rank, is_subspace, joint_rank,
                             numeric_rank)
from conftest import fastfading_config


# ---------------------------------------------------------------------------
# calculators


def test_hidden_union_and_upsilon():
    sets = [UnknownSet(10, frozenset({1, 2})), UnknownSet(10, frozenset({2, 3}))]
    assert hidden_union(sets) == frozenset({1, 2, 3})
    assert upsilon_fraction(sets, 10) == Fraction(7, 10)
    assert upsilon_fraction([], 5) == 1
    with pytest.raises(ValueError):
        upsilon_fraction([{11}], 10)


def test_caps_exact_values():
    assert dof_cap_given_upsilon(2, Fraction(0)) == 1
    assert dof_cap_given_upsilon(3, Fraction(1, 2)) == Fraction(3, 2)
    assert dof_cap_given_upsilon(4, Fraction(1, 2)) == 2
    assert dof_cap_given_upsilon(3, Fraction(1)) == Fraction(12, 7)
    with pytest.raises(ValueError):
        dof_cap_given_upsilon(1, Fraction(0))
    with pytest.raises(ValueError):
        dof_cap_given_upsilon(3, Fraction(3, 2))


def test_cap_monotone_in_upsilon():
    for K in (3, 4, 6, 8):
        vals = [dof_cap_given_upsilon(K, Fraction(i, 10)) for i in range(11)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_min_upsilon():
    assert min_upsilon_for_max_dof(2) == 0
    assert min_upsilon_for_max_dof(3) == Fraction(1, 2)
    assert min_upsilon_for_max_dof(8) == Fraction(1, 2)
    # consistency: the cap at the threshold reaches K/2 for even K
    for K in (4, 6, 8):
        u = min_upsilon_for_max_dof(K)
        assert dof_cap_given_upsilon(K, u) == Fraction(K, 2)


# ---------------------------------------------------------------------------
# 3-user scheme


@pytest.mark.parametrize("L,eps", [(1, 2), (2, 2), (3, 3)])
def test_3user_ranks_and_containments(L, eps):
    n = 2 * (L + eps) + 1
    for t in range(25):
        inst = sample_network(fastfading_config(3, n, L), seed=t)
        scheme = build_3user(inst, eps, seed=t)
        checks, measured = verify_3user(scheme, inst)
        assert checks["rank_tx1"], (L, eps, t)
        assert checks["rank_seeds"], (L, eps, t)
        assert checks["rx1_span_equality"], (L, eps, t)
        assert checks["loop_closure"], (L, eps, t)
        assert checks["rx2_containment"], (L, eps, t)
        assert checks["rx3_containment"], (L, eps, t)
        assert checks["rx1_separation"], (L, eps, t)
        assert measured["rank_tx1"] == L + eps + 1
        assert measured["joint_rank"] == 2 * (L + eps) + 1
        assert measured["separation_guaranteed"]


def test_3user_small_depth_seed_rank_is_L_plus_eps():
    L, eps = 2, 1
    n = 2 * (L + eps) + 1
    inst = sample_network(fastfading_config(3, n, L), seed=0)
    scheme = build_3user(inst, eps, seed=0)
    checks, measured = verify_3user(scheme, inst)
    # at depth 1 the seed sets still have rank L + eps, not L
    assert checks["rank_seeds"]
    assert measured["rank_seed_b"] == L + eps
    assert "stated_seed_rank_small_depth" not in measured


def test_3user_identity_transform_negative_control():
    L, eps = 1, 2
    n = 2 * (L + eps) + 1
    failures = 0
    for t in range(25):
        inst = sample_network(
            fastfading_config(3, n, L, direct_kind="identity"), seed=t)
        scheme = build_3user(inst, eps, seed=t)
        checks, measured = verify_3user(scheme, inst)
        failures += not checks["rx1_separation"]
        assert not measured["separation_guaranteed"]
    assert failures > 0.95 * 25


def test_3user_validates_inputs():
    inst = sample_network(fastfading_config(3, 7, 1), seed=0)
    with pytest.raises(ValueError):
        build_3user(inst, 0, seed=0)
    with pytest.raises(ValueError):
        build_3user(inst, 3, seed=0)   # n != 2L + 2*eps + 1
    inst4 = sample_network(fastfading_config(4, 7, 1), seed=0)
    with pytest.raises(ValueError):
        build_3user(inst4, 2, seed=0)


def test_3user_deterministic_per_seed():
    inst = sample_network(fastfading_config(3, 7, 1), seed=3)
    a = build_3user(inst, 2, seed=5)
    b = build_3user(inst, 2, seed=5)
    assert np.array_equal(a.tx_columns[0], b.tx_columns[0])
    assert np.array_equal(a.loop_transfer, b.loop_transfer)


def _frontier_network(K, n, hidden, distance):
    """The benchmark's fast-fading network: every link changes every slot,
    slots 1..hidden are hidden on every cross link, and the direct links
    pass through a banded memory transform."""
    every = list(range(2, n + 1))
    return {
        "K": K, "n": n,
        "patterns": [[list(every) for _ in range(K)] for _ in range(K)],
        "unknown": [[[] if p == q else list(range(1, hidden + 1))
                     for q in range(K)] for p in range(K)],
        "direct_kind": "memory", "memory_distance": distance,
    }


@pytest.mark.parametrize("L,eps,loop_passes",
                         [(5, 2, 56), (5, 3, 56), (6, 2, 44)])
def test_3user_frontier_verdicts_are_pinned(L, eps, loop_passes):
    # From L = 5 on, loop_closure meets the float verifier's frontier and
    # fails on some trials.  These are the counts of the one-matrix-at-a-time
    # rank tests; a batched rank kernel must flip no verdict.
    n = 2 * (L + eps) + 1
    cfg = NetworkConfig(**_frontier_network(3, n, L, L + 2))
    summary = run_trials(Scenario("fastfading3", cfg, {"epsilon": eps},
                                  trials=60, base_seed=1000 * L + eps))
    passes = {name: sum(r.checks[name] for r in summary.results)
              for name in summary.results[0].checks}
    assert passes == {name: loop_passes if name == "loop_closure" else 60
                      for name in passes}


def _verify_3user_one_at_a_time(scheme, instance):
    """verify_3user's checks and measured numbers from one numeric_rank,
    is_subspace or joint_rank call per decision, the draws taken in the
    same order; also both joint ranks, [right, left] and [left, right], of
    every rx1 substitution."""
    L, eps = scheme.L, scheme.epsilon
    v1, v2, v3 = scheme.tx_columns
    fams = scheme.surrogates
    rng = np.random.default_rng(instance.seed + 17)
    checks, measured = {}, {}

    def member(key, index):
        return fams[key].members[index]

    # tx3's and tx2's seeds are the tx1 columns t^i gamma^j with i >= 1
    # and with i < eps
    measured["rank_tx1"] = numeric_rank(v1)
    measured["rank_seed_b"] = numeric_rank(v1[:, L + 1:])
    measured["rank_seed_c"] = numeric_rank(v1[:, :eps * (L + 1)])
    checks["rank_tx1"] = measured["rank_tx1"] == L + eps + 1
    checks["rank_seeds"] = (measured["rank_seed_b"] == L + eps
                            and measured["rank_seed_c"] == L + eps)

    span, joint_orders = True, []
    for i12, i13 in _member_combos(fams, [(0, 1), (0, 2)], rng):
        left = member((0, 1), i12)[:, None] * v2
        right = member((0, 2), i13)[:, None] * v3
        span &= is_subspace(left, right) and is_subspace(right, left)
        joint_orders.append((joint_rank([right, left]),
                             joint_rank([left, right])))
    checks["rx1_span_equality"] = span

    gamma_powers = np.array([scheme.gamma ** j for j in range(1, L + 2)])
    base = np.column_stack([scheme.loop_transfer * g for g in gamma_powers])
    keys = [(0, 1), (1, 2), (2, 0), (1, 0), (2, 1), (0, 2)]
    combos = _member_combos(fams, keys, rng)
    jps = rng.integers(1, L + 2, size=len(combos))
    loop = True
    for row, jp in zip(combos, jps):
        g = [member(k, i) for k, i in zip(keys, row)]
        vec = (g[0] * g[1] * g[2]) / (g[3] * g[4] * g[5]) * gamma_powers[jp - 1]
        loop &= is_subspace(vec, base)
    checks["loop_closure"] = loop

    checks["rx2_containment"] = is_subspace(
        instance.received_matrix(1, 2, v3), instance.received_matrix(1, 0, v1))
    checks["rx3_containment"] = is_subspace(
        instance.received_matrix(2, 1, v2), instance.received_matrix(2, 0, v1))
    measured["joint_rank"] = joint_rank(
        [instance.received_matrix(0, 0, v1), instance.received_matrix(0, 1, v2)])
    checks["rx1_separation"] = measured["joint_rank"] == 2 * (L + eps) + 1

    gaps_ok = all(b - a < max(1, instance.transforms[0].distance)
                  for a, b in zip(scheme.omega, scheme.omega[1:]))
    measured["separation_guaranteed"] = bool(
        instance.transforms[0].kind in ("memory", "permutation") and gaps_ok)
    return checks, measured, joint_orders


@pytest.mark.parametrize("L,eps", [(1, 2), (3, 3), (4, 3), (5, 2), (6, 2),
                                   (8, 1)])
def test_verify_3user_stacked_matches_one_at_a_time(L, eps):
    # the frontier classes from L = 5 on include failing loop_closure trials
    n = 2 * (L + eps) + 1
    verdicts = set()
    for seed in range(1000 * L + eps, 1000 * L + eps + 8):
        inst = sample_network(fastfading_config(3, n, L), seed=seed)
        scheme = build_3user(inst, eps, seed=seed)
        v1, v2, v3 = scheme.tx_columns
        # cut to its first column, v3 gives right spans that are a strict
        # part of the left ones, which only a test of both sides rejects
        short = dataclasses.replace(scheme, tx_columns=(v1, v2, v3[:, :1]))
        for variant in (scheme, short):
            out = verify_3user(variant, inst)
            checks, measured, joint_orders = _verify_3user_one_at_a_time(
                variant, inst)
            assert out == (checks, measured), seed
            assert list(out[0]) == list(checks)     # the demo's print order
            assert all(type(v) is bool for v in out[0].values())
            assert all(type(v) in (int, bool) for v in out[1].values())
            # one joint per substitution stands for both column orders
            assert all(a == b for a, b in joint_orders), seed
        assert not checks["rx1_span_equality"], seed
        verdicts.add(verify_3user(scheme, inst)[0]["loop_closure"])
    if L >= 6:
        assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# K-user generalization


def test_kuser_dims_k4():
    n = 2 * 2 + 1 + 2 ** 5            # L=2, n*=1, N=5 -> 37
    inst = sample_network(fastfading_config(4, n, 2, memory_distance=4),
                          seed=0)
    scheme = build_kuser(inst, n_star=1, seed=0)
    N = (4 - 1) * (4 - 2) - 1
    assert N == 5 and scheme.n == 2 * 2 + 1 ** N + 2 ** N
    assert balanced_rank(scheme.seed_columns) == scheme.expected["dim_seed"] == 3
    assert balanced_rank(scheme.tx1_columns) == scheme.expected["dim_tx1"] == 34
    assert verify_kuser(scheme) == ({"dims_match_formula": True},
                                    {"dim_seed": 3, "dim_tx1": 34})


def test_kuser_k3_matches_loop_construction_sizes():
    # K=3 -> N=1; n = 2L + n* + (n*+1)
    L, n_star = 1, 2
    n = 2 * L + n_star + n_star + 1
    inst = sample_network(fastfading_config(3, n, L), seed=1)
    scheme = build_kuser(inst, n_star=n_star, seed=1)
    assert balanced_rank(scheme.seed_columns) == L + n_star
    assert balanced_rank(scheme.tx1_columns) == L + n_star + 1


@pytest.mark.parametrize("N, lo, hi, L", [
    (1, 0, 3, 0), (1, 1, 2, 3), (3, 0, 2, 1), (5, 1, 1, 2), (5, 0, 1, 2)])
def test_grid_columns_match_product_loop(N, lo, hi, L):
    rng = np.random.default_rng([N, lo, hi, L])
    n = 9
    maps = [rng.uniform(0.5, 2.0, size=n) for _ in range(N)]
    gam = rng.uniform(0.5, 2.0, size=n)
    # the one-column-at-a-time loop, bit for bit
    cols = []
    for alphas in product(range(lo, hi + 1), repeat=N):
        vec = np.ones(n)
        for t, a in zip(maps, alphas):
            vec = vec * t ** a
        for j in range(1, L + 2):
            cols.append(vec * gam ** j)
    got = _grid_columns(maps, np.array([gam ** j for j in range(1, L + 2)]),
                        lo, hi)
    assert got.tobytes() == np.column_stack(cols).tobytes()


def test_kuser_guard_and_validation():
    inst = sample_network(fastfading_config(3, 7, 1), seed=0)
    with pytest.raises(ValueError):
        build_kuser(inst, n_star=0, seed=0)
    inst5 = sample_network(fastfading_config(5, 7, 1), seed=0)
    with pytest.raises(ValueError):
        build_kuser(inst5, n_star=2, seed=0)   # 3^11 exceeds the size guard
