"""Half-CSI fast-fading schemes and the CSIT-fraction calculators."""

import dataclasses
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignsim import fastfading
from alignsim.channel import (NetworkConfig, UnknownSet, sample_network,
                              separated_uniform)
from alignsim.fastfading import (_grid_columns, dof_cap_given_upsilon,
                                 draw_3user, draw_kuser, hidden_union,
                                 min_upsilon_for_max_dof, plan_3user,
                                 plan_kuser, upsilon_fraction, verify_3user,
                                 verify_kuser)
from alignsim.decomposition import build_indexed_basis
from alignsim.harness import Scenario, run_trials
from alignsim.linalg import is_subspace, numeric_rank_by_shape
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
    cfg = fastfading_config(3, n, L)
    plan = plan_3user(cfg, eps)
    for t in range(25):
        inst = sample_network(cfg, seed=t)
        scheme = draw_3user(inst, plan)
        checks, measured, total = verify_3user(scheme, inst)
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
        # user 1 carries L + eps + 1 dimensions, users 2 and 3 L + eps each
        assert total == Fraction(3 * (L + eps) + 1, n)


def test_3user_small_depth_seed_rank_is_L_plus_eps():
    L, eps = 2, 1
    n = 2 * (L + eps) + 1
    cfg = fastfading_config(3, n, L)
    inst = sample_network(cfg, seed=0)
    scheme = draw_3user(inst, plan_3user(cfg, eps))
    checks, measured, _ = verify_3user(scheme, inst)
    # at depth 1 the seed sets still have rank L + eps, not L
    assert checks["rank_seeds"]
    assert measured["rank_seed_b"] == L + eps
    assert "stated_seed_rank_small_depth" not in measured


def test_3user_identity_transform_negative_control():
    L, eps = 1, 2
    n = 2 * (L + eps) + 1
    failures = 0
    cfg = fastfading_config(3, n, L, direct_kind="identity")
    plan = plan_3user(cfg, eps)
    for t in range(25):
        inst = sample_network(cfg, seed=t)
        scheme = draw_3user(inst, plan)
        checks, measured, total = verify_3user(scheme, inst)
        failures += not checks["rx1_separation"]
        assert not measured["separation_guaranteed"]
        # no trial here separates, so each falls back to time sharing
        assert total == Fraction(1)
    assert failures > 0.95 * 25


def test_3user_validates_inputs():
    cfg = fastfading_config(3, 7, 1)
    with pytest.raises(ValueError):
        plan_3user(cfg, 0)
    with pytest.raises(ValueError):
        plan_3user(cfg, 3)   # n != 2L + 2*eps + 1
    with pytest.raises(ValueError):
        plan_3user(fastfading_config(4, 7, 1), 2)


def test_3user_draw_is_deterministic():
    cfg = fastfading_config(3, 7, 1)
    inst = sample_network(cfg, seed=3)
    plan = plan_3user(cfg, 2)
    a = draw_3user(inst, plan)
    b = draw_3user(inst, plan)
    assert np.array_equal(a.tx_columns[0], b.tx_columns[0])
    assert np.array_equal(a.loop_transfer, b.loop_transfer)


def _mixer(rng, n, omega):
    """A mixer gamma: 1 off omega and, on omega, distinct values none of
    which is 0 or 1 (separated draws over one more separated draw)."""
    g = np.asarray(separated_uniform(rng, len(omega) + 1))
    gam = np.ones(n)
    gam[np.array(omega) - 1] = g[1:] / g[0]
    return gam


def _same_span(old, new, balance_rows=False):
    """rank([old, new]), rank(old) and rank(new) are one number."""
    ranks = numeric_rank_by_shape(
        {"joint": np.hstack([old, new]), "old": old, "new": new},
        balance_rows=balance_rows)
    return len(set(ranks.values())) == 1


@settings(derandomize=True, max_examples=60, deadline=None)
@given(L=st.integers(1, 4), eps=st.integers(1, 3),
       seed=st.integers(0, 2**31 - 1))
def test_3user_columns_span_the_mixer_power_columns(L, eps, seed):
    # the mixer-power construction, tx1's columns t^i gamma^j (i-major),
    # and its seed sets and loop base are the same spans as the indicator
    # basis's, where float rank is reliable (L <= 4)
    n = 2 * (L + eps) + 1
    cfg = fastfading_config(3, n, L)
    inst = sample_network(cfg, seed=seed)
    scheme = draw_3user(inst, plan_3user(cfg, eps))
    t, v1 = scheme.loop_transfer, scheme.tx_columns[0]
    gam = _mixer(np.random.default_rng(seed), n, scheme.plan.omega)
    old = np.column_stack([t ** i * gam ** j for i in range(eps + 1)
                           for j in range(1, L + 2)])
    assert _same_span(old, v1)
    assert _same_span(old[:, L + 1:], v1[:, 1:])
    assert _same_span(old[:, :eps * (L + 1)], np.delete(v1, eps, axis=1))
    assert _same_span(old[:, L + 1:2 * (L + 1)],
                      np.hstack([v1[:, 1:2], v1[:, eps + 1:]]))


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


@pytest.mark.parametrize("L,eps", [(5, 2), (5, 3), (6, 2), (8, 3), (12, 2)])
def test_3user_frontier_verdicts_are_pinned(L, eps):
    # From L = 5 on, the float rank of a mixer-power basis of the same
    # spans falls short and its checks fail on some trials; on the
    # indicator basis every check passes on every trial, and a batched
    # rank kernel must flip no verdict.
    n = 2 * (L + eps) + 1
    cfg = NetworkConfig(**_frontier_network(3, n, L, L + 2))
    summary = run_trials(Scenario("fastfading3", cfg, {"epsilon": eps},
                                  trials=60, base_seed=1000 * L + eps))
    passes = {name: sum(r.checks[name] for r in summary.results)
              for name in summary.results[0].checks}
    assert passes == dict.fromkeys(passes, 60)


def _matching_exists(T, omega):
    """Whether T's sparsity graph matches every hidden slot s to its own
    slot r off omega with T[r, s] != 0 (1-based slots), by augmenting
    paths over the whole matrix, whatever its kind."""
    rows = [r for r in range(len(T)) if r + 1 not in omega]
    owner = {}                          # row r -> the hidden column it takes

    def augment(s, seen):
        for r in rows:
            if T[r, s] != 0 and r not in seen:
                seen.add(r)
                if r not in owner or augment(owner[r], seen):
                    owner[r] = s
                    return True
        return False

    return all(augment(s - 1, set()) for s in omega)


def _known(instance, p, q):
    """Link (p, q)'s gains with 1 on the hidden union, by definition."""
    omega = hidden_union(instance.unknown_set(a, b) for a in range(3)
                         for b in range(3) if a != b)
    g = instance.channel(p, q).copy()
    g[[s - 1 for s in omega]] = 1.0
    return g


def _verify_3user_one_at_a_time(scheme, instance):
    """verify_3user's checks and measured numbers from one rank or
    is_subspace call per matrix of its reduction, and the ranks of both
    column orders, [right, left, E_omega] and [left, right, E_omega], of
    the rx1 joint."""
    eps, omega, n = scheme.plan.order, scheme.plan.omega, instance.n
    L = len(omega)
    v1, v2, v3 = scheme.tx_columns
    checks, measured = {}, {}

    def rank(m):
        return numeric_rank_by_shape({"m": m})["m"]

    # tx1's columns are [u, t u, ..., t^eps u, E_omega]; tx3's seed drops
    # u and tx2's drops t^eps u
    measured["rank_tx1"] = rank(v1)
    measured["rank_seed_b"] = rank(v1[:, 1:])
    measured["rank_seed_c"] = rank(np.delete(v1, eps, axis=1))
    checks["rank_tx1"] = measured["rank_tx1"] == L + eps + 1
    checks["rank_seeds"] = (measured["rank_seed_b"] == L + eps
                            and measured["rank_seed_c"] == L + eps)

    e_omega = np.eye(n)[:, [s - 1 for s in omega]]
    left = _known(instance, 0, 1)[:, None] * v2
    right = _known(instance, 0, 2)[:, None] * v3
    orders = (rank(np.hstack([right, left, e_omega])),
              rank(np.hstack([left, right, e_omega])))
    checks["rx1_span_equality"] = orders[0] == rank(left) == rank(right)

    u = np.ones(n)
    u[[s - 1 for s in omega]] = 0.0
    base = np.column_stack([scheme.loop_transfer * u, e_omega])
    checks["loop_closure"] = is_subspace(e_omega, base)

    checks["rx2_containment"] = is_subspace(
        instance.received_matrix(1, 2, v3), instance.received_matrix(1, 0, v1))
    checks["rx3_containment"] = is_subspace(
        instance.received_matrix(2, 1, v2), instance.received_matrix(2, 0, v1))
    measured["joint_rank"] = rank(np.hstack(
        [instance.received_matrix(0, 0, v1),
         instance.received_matrix(0, 1, v2)]))
    checks["rx1_separation"] = measured["joint_rank"] == 2 * (L + eps) + 1

    measured["separation_guaranteed"] = _matching_exists(
        instance.transforms[0].matrix, omega)
    return checks, measured, orders


def _short_v3(scheme):
    """The scheme with v3's columns after its first zeroed: its right
    spans are a strict part of the left ones, which only a test of both
    sides rejects.  A zero column adds nothing to a span and keeps the
    shapes of verify_3user's stacks."""
    v1, v2, v3 = scheme.tx_columns
    short = v3.copy()
    short[:, 1:] = 0.0
    return dataclasses.replace(scheme, tx_columns=(v1, v2, short))


@pytest.mark.parametrize("L,eps", [(1, 2), (3, 3), (4, 3), (5, 2), (6, 2),
                                   (8, 1)])
def test_verify_3user_stacked_matches_one_at_a_time(L, eps):
    # the classes from L = 5 on are the float frontier of a mixer-power
    # basis; on the indicator basis loop_closure passes there too
    n = 2 * (L + eps) + 1
    cfg = fastfading_config(3, n, L)
    plan = plan_3user(cfg, eps)
    for seed in range(1000 * L + eps, 1000 * L + eps + 8):
        inst = sample_network(cfg, seed=seed)
        scheme = draw_3user(inst, plan)
        for variant in (scheme, _short_v3(scheme)):
            out = verify_3user(variant, inst)
            checks, measured, orders = _verify_3user_one_at_a_time(
                variant, inst)
            assert out == (checks, measured,
                           sum(variant.plan.expected["dof"])
                           if checks["rx1_separation"] else 1), seed
            assert list(out[0]) == list(checks)     # the demo's print order
            assert all(type(v) is bool for v in out[0].values())
            assert all(type(v) in (int, bool) for v in out[1].values())
            # one joint stands for both column orders
            assert orders[0] == orders[1], seed
        assert not checks["rx1_span_equality"], seed
        assert verify_3user(scheme, inst)[0]["loop_closure"], seed


@settings(derandomize=True, max_examples=150, deadline=None)
@given(L=st.integers(1, 5), eps=st.integers(1, 3),
       kind=st.sampled_from(["memory", "permutation"]), data=st.data())
def test_separation_flag_is_the_separation_verdict(L, eps, kind, data):
    # the matching rule decides rx1_separation: a random hidden set and
    # distance, the set hidden on every cross link, and three trials each
    n = 2 * (L + eps) + 1
    omega = data.draw(st.lists(st.integers(1, n), min_size=L, max_size=L,
                               unique=True))
    every = list(range(2, n + 1))
    cfg = NetworkConfig(
        K=3, n=n, patterns=[[every] * 3 for _ in range(3)],
        unknown=[[[] if p == q else omega for q in range(3)]
                 for p in range(3)],
        direct_kind=kind, memory_distance=data.draw(st.integers(1, n - 1)))
    plan = plan_3user(cfg, eps)
    assert (plan.separated is None) == (kind == "permutation")
    for seed in data.draw(st.lists(st.integers(0, 2**31 - 1), min_size=3,
                                   max_size=3)):
        inst = sample_network(cfg, seed)
        checks, measured, _ = verify_3user(draw_3user(inst, plan),
                                           inst)
        assert measured["separation_guaranteed"] == _matching_exists(
            inst.transforms[0].matrix, plan.omega)
        assert measured["separation_guaranteed"] == checks["rx1_separation"]


@pytest.mark.parametrize("kind", ["memory", "permutation", "identity"])
@pytest.mark.parametrize("L", [1, 3, 5, 8])
def test_verify_3user_stacks_hold_each_matrix_bit_for_bit(monkeypatch, L,
                                                          kind):
    # every slice of the stacks verify_3user writes in place is, byte for
    # byte, the matrix that received_matrix and hstack build, memory
    # products T @ v1 included, and each stack is C-ordered float64; at
    # L = 1 the span has the joints' shape and joins their SVD call
    eps = 2
    n = 2 * (L + eps) + 1
    cfg = fastfading_config(3, n, L, direct_kind=kind)
    plan = plan_3user(cfg, eps)
    ranked, rank, svd, svds = [], fastfading.numeric_rank_by_shape, \
        np.linalg.svd, []

    def spy_rank(ms, **kwargs):
        ranked.append(ms)
        return rank(ms, **kwargs)

    def spy_svd(*args, **kwargs):
        svds.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(fastfading, "numeric_rank_by_shape", spy_rank)
    monkeypatch.setattr(np.linalg, "svd", spy_svd)
    e_omega = np.eye(n)[:, [s - 1 for s in plan.omega]]
    for seed in range(4):
        inst = sample_network(cfg, seed)
        scheme = draw_3user(inst, plan)
        svds.clear()
        verify_3user(scheme, inst)
        assert len(svds) == (3 if L == 1 else 4)
        v1, v2, v3 = scheme.tx_columns
        rm = inst.received_matrix
        left = _known(inst, 0, 1)[:, None] * v2
        right = _known(inst, 0, 2)[:, None] * v3
        want = {
            "tx": [v1, rm(1, 0, v1), rm(2, 0, v1)],
            "seeds": [v1[:, 1:], np.hstack([v1[:, :eps], v1[:, eps + 1:]]),
                      left, right],
            "joints": [np.hstack([rm(1, 0, v1), rm(1, 2, v3)]),
                       np.hstack([rm(2, 0, v1), rm(2, 1, v2)]),
                       np.hstack([rm(0, 0, v1), rm(0, 1, v2)])],
            "span": [np.hstack([right, left, e_omega])]}
        got = ranked.pop()
        assert list(got) == list(want)
        for name, mats in want.items():
            stack = got[name]
            assert stack.dtype == np.float64 and stack.flags.c_contiguous
            assert [m.tobytes() for m in stack.reshape(
                -1, *mats[0].shape)] == [m.tobytes() for m in mats], name


def surrogate_families(instance):
    """Each cross link's indexed family on its true gains, link after link
    in row-major order from one generator: |U|+1 members that copy the
    true gain at the link's known slots and carry separated values on
    its hidden ones."""
    rng = np.random.default_rng([instance.seed, 2])
    return {(p, q): build_indexed_basis(instance.channel(p, q),
                                        instance.unknown_set(p, q), rng)
            for p in range(3) for q in range(3) if p != q}


# The sampled reference for verify_3user's reduction: each "for every
# hidden value" claim is tried on up to _COMBO_CAP substitutions of
# surrogate members, drawn from a generator seeded with the instance
# seed + 17.
_COMBO_CAP = 64


def _member_combos(sizes, rng):
    """Member index per family for every substitution to try, one row
    each in lexicographic order: all of them when there are at most
    _COMBO_CAP, else the distinct rows among _COMBO_CAP random draws."""
    if np.prod(sizes) <= _COMBO_CAP:
        return np.indices(sizes).reshape(len(sizes), -1).T
    return np.unique(rng.integers(0, sizes, size=(_COMBO_CAP, len(sizes))),
                     axis=0)


def sampled_claims(scheme, instance, fams=None):
    """(rx1_span_equality, loop_closure) from sampled substitutions of the
    surrogate families ``fams`` (by default ``surrogate_families``): each
    substituted rx1 joint [g13 v3, g12 v2] has the rank of both its
    sides, and each substituted loop vector t' b, b drawn from tx1's
    columns u and E_omega, leaves the loop base's rank unchanged."""
    eps = scheme.plan.order
    v1, v2, v3 = scheme.tx_columns
    fams = fams or surrogate_families(instance)
    rng = np.random.default_rng(instance.seed + 17)

    def substituted(keys):
        combos = _member_combos([len(fams[k].members) for k in keys], rng)
        return combos, [fams[k].members[picks]
                        for k, picks in zip(keys, combos.T)]

    span_combos, (g12, g13) = substituted([(0, 1), (0, 2)])
    base = np.hstack([v1[:, 1:2], v1[:, eps + 1:]])
    combos, g = substituted([(0, 1), (1, 2), (2, 0), (1, 0), (2, 1), (0, 2)])
    cols = np.r_[0, eps + 1:v1.shape[1]]
    picks = cols[rng.integers(0, len(cols), size=len(combos))]
    vecs = (g[0] * g[1] * g[2]) / (g[3] * g[4] * g[5]) * v1[:, picks].T
    tiled = np.broadcast_to(base, (len(vecs),) + base.shape)
    r = numeric_rank_by_shape({
        "side12": fams[(0, 1)].members[:, :, None] * v2,
        "side13": fams[(0, 2)].members[:, :, None] * v3,
        "span": np.concatenate([g13[:, :, None] * v3, g12[:, :, None] * v2],
                               axis=-1),
        "base": base,
        "loop": np.concatenate([tiled, vecs[:, :, None]], axis=-1)})
    return (bool(np.all((r["span"] == r["side12"][span_combos[:, 0]])
                        & (r["span"] == r["side13"][span_combos[:, 1]]))),
            bool(np.all(r["loop"] == r["base"])))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(L=st.integers(1, 4), eps=st.integers(1, 3),
       kind=st.sampled_from(["memory", "permutation", "identity"]),
       short=st.booleans(), seed=st.integers(0, 2**31 - 1))
def test_exact_claims_equal_the_sampled_claims(L, eps, kind, short, seed):
    # where float rank is reliable (L <= 4), the reduction's verdict is
    # the one every sampled substitution gives
    n = 2 * (L + eps) + 1
    cfg = fastfading_config(3, n, L, direct_kind=kind)
    inst = sample_network(cfg, seed=seed)
    scheme = draw_3user(inst, plan_3user(cfg, eps))
    if short:
        scheme = _short_v3(scheme)
    checks = verify_3user(scheme, inst)[0]
    assert (checks["rx1_span_equality"], checks["loop_closure"]) == (
        sampled_claims(scheme, inst)) == (not short, True)


@pytest.mark.parametrize("link", [(0, 1), (0, 2)])
@pytest.mark.parametrize("L,eps", [(1, 2), (3, 3)])
def test_member_moved_at_a_known_slot_fails_both_claims(L, eps, link):
    # a surrogate member doubled at the last slot, which is known, is no
    # substitution of hidden values: it moves the rx1 span and the loop
    # vector off their bases, so the sampled reference, which agrees with
    # verify_3user on the true families, fails both claims on the moved
    # ones
    n = 2 * (L + eps) + 1
    cfg = fastfading_config(3, n, L)
    inst = sample_network(cfg, seed=0)
    scheme = draw_3user(inst, plan_3user(cfg, eps))
    assert n not in scheme.plan.omega
    fams = surrogate_families(inst)
    members = fams[link].members.copy()
    members[-1, -1] *= 2.0
    moved = {**fams, link: dataclasses.replace(fams[link], members=members)}
    checks = verify_3user(scheme, inst)[0]
    assert (checks["rx1_span_equality"], checks["loop_closure"]) == (
        sampled_claims(scheme, inst, fams)) == (True, True)
    assert sampled_claims(scheme, inst, moved) == (False, False)


@pytest.mark.parametrize("link", [(0, 1), (0, 2)])
@pytest.mark.parametrize("L,eps", [(1, 2), (3, 3)])
def test_scheme_drawn_from_other_known_gains_fails_the_span_claim(L, eps,
                                                                  link):
    # s12 and s13 come from the verified instance, not from the scheme: a
    # scheme drawn with link (0, 1)'s or (0, 2)'s gain doubled at the last
    # slot, which is known, fails the rx1 span claim on the true instance,
    # as the sampled reference on the true families does
    n = 2 * (L + eps) + 1
    cfg = fastfading_config(3, n, L)
    plan = plan_3user(cfg, eps)
    inst = sample_network(cfg, seed=0)
    assert n not in plan.omega
    gains = inst.gains.copy()
    gains[3 * link[0] + link[1], -1] *= 2.0
    gains.setflags(write=False)
    moved = draw_3user(dataclasses.replace(inst, gains=gains), plan)
    assert verify_3user(moved, inst)[0]["rx1_span_equality"] is False
    assert sampled_claims(moved, inst)[0] is False
    assert verify_3user(draw_3user(inst, plan), inst)[0]["rx1_span_equality"]


@pytest.mark.parametrize("L,eps", [(1, 2), (2, 2), (3, 3)])
def test_base_without_one_hidden_direction_fails_loop_closure(L, eps):
    # tx1's columns with e_s zeroed, s the last hidden slot, drop it from
    # the loop base's span; with every surrogate member frozen at s, each
    # sampled loop vector stays in that span, but a hidden value at s
    # moves the loop vector off it
    n = 2 * (L + eps) + 1
    cfg = fastfading_config(3, n, L)
    inst = sample_network(cfg, seed=0)
    scheme = draw_3user(inst, plan_3user(cfg, eps))
    s = scheme.plan.omega[-1] - 1
    v1 = scheme.tx_columns[0].copy()
    v1[:, -1] = 0.0
    frozen = {}
    for key, fam in surrogate_families(inst).items():
        members = fam.members.copy()
        members[:, s] = members[0, s]
        frozen[key] = dataclasses.replace(fam, members=members)
    cut = dataclasses.replace(scheme, tx_columns=(v1, *scheme.tx_columns[1:]))
    assert sampled_claims(cut, inst, frozen)[1]
    assert not verify_3user(cut, inst)[0]["loop_closure"]
    assert verify_3user(scheme, inst)[0]["loop_closure"]


@pytest.mark.parametrize("L,eps", [(1, 2), (2, 2), (3, 3), (4, 3), (8, 1)])
def test_no_substitution_stack_reaches_the_svd(monkeypatch, L, eps):
    # a trial ranks 11 matrices, 3 of them for the span claim for every
    # hidden value and none for loop_closure, however many members the
    # surrogate families have: no (B, n, .) stack of substitutions reaches
    # the SVD
    svd, batches = np.linalg.svd, []

    def spy(a, *args, **kwargs):
        batches.append(len(a))
        return svd(a, *args, **kwargs)

    n = 2 * (L + eps) + 1
    cfg = NetworkConfig(**_frontier_network(3, n, L, L + 2))
    monkeypatch.setattr(np.linalg, "svd", spy)
    run_trials(Scenario("fastfading3", cfg, {"epsilon": eps}, trials=5,
                        base_seed=1000 * L + eps))
    assert sum(batches) == 5 * 11


# ---------------------------------------------------------------------------
# K-user generalization


def test_kuser_dims_k4():
    n = 2 * 2 + 1 + 2 ** 5            # L=2, n*=1, N=5 -> 37
    inst = sample_network(fastfading_config(4, n, 2, memory_distance=4),
                          seed=0)
    scheme = draw_kuser(inst, plan_kuser(inst, 1))
    N = (4 - 1) * (4 - 2) - 1
    assert N == 5 and inst.n == 2 * 2 + 1 ** N + 2 ** N
    assert numeric_rank_by_shape(
        {"dim_seed": scheme.seed_columns, "dim_tx1": scheme.tx1_columns},
        balance_rows=True) == scheme.plan.expected == {"dim_seed": 3,
                                                       "dim_tx1": 34}
    assert verify_kuser(scheme) == ({"dims_match_formula": True},
                                    {"dim_seed": 3, "dim_tx1": 34},
                                    Fraction(34, 37))


def test_kuser_k3_matches_loop_construction_sizes():
    # K=3 -> N=1; n = 2L + n* + (n*+1)
    L, n_star = 1, 2
    n = 2 * L + n_star + n_star + 1
    inst = sample_network(fastfading_config(3, n, L), seed=1)
    scheme = draw_kuser(inst, plan_kuser(inst, n_star))
    assert numeric_rank_by_shape(
        {"dim_seed": scheme.seed_columns, "dim_tx1": scheme.tx1_columns},
        balance_rows=True) == {"dim_seed": L + n_star,
                               "dim_tx1": L + n_star + 1}


def _indicator_basis(n, omega):
    """[u, E_omega] by its definition: u the indicator of the slots off
    omega, then e_s for each hidden slot s in order."""
    u = np.array([0.0 if k + 1 in omega else 1.0 for k in range(n)])
    return np.column_stack([u] + [np.eye(n)[:, s - 1] for s in omega])


@pytest.mark.parametrize("N, lo, hi, L", [
    (1, 0, 3, 0), (1, 1, 2, 3), (3, 0, 2, 1), (5, 1, 1, 2), (5, 0, 1, 2)])
def test_grid_columns_match_product_loop(N, lo, hi, L):
    rng = np.random.default_rng([N, lo, hi, L])
    n = 9
    maps = [rng.uniform(0.5, 2.0, size=n) for _ in range(N)]
    omega = tuple(sorted(rng.choice(range(1, n + 1), size=L, replace=False)))
    basis = _indicator_basis(n, omega)
    # the one-column-at-a-time loop, bit for bit
    cols = []
    for alphas in product(range(lo, hi + 1), repeat=N):
        vec = basis[:, 0]
        for t, a in zip(maps, alphas):
            vec = vec * t ** a
        cols.append(vec)
    cols.extend(basis[:, 1:].T)
    got = _grid_columns(maps, basis, lo, hi)
    assert got.tobytes() == np.column_stack(cols).tobytes()


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_kuser_columns_span_the_mixer_power_columns(monkeypatch, L):
    # both grids, every monomial times each mixer power gamma^j, are the
    # same spans as the indicator basis's, K = 4, n* = 1, L <= 4
    maps = []

    def spy(m, *args):
        maps.append(m)
        return _grid_columns(m, *args)

    monkeypatch.setattr(fastfading, "_grid_columns", spy)
    n = 2 * L + 1 + 2 ** 5
    cfg = fastfading_config(4, n, L, memory_distance=4)
    plan = plan_kuser(cfg, 1)
    for seed in range(5):
        maps.clear()
        scheme = draw_kuser(sample_network(cfg, seed=seed), plan)
        gam = _mixer(np.random.default_rng(seed), n, plan.omega)
        for lo, got in ((1, scheme.seed_columns), (0, scheme.tx1_columns)):
            old = []
            for alphas in product(range(lo, 2), repeat=len(maps[0])):
                vec = np.ones(n)
                for t, a in zip(maps[0], alphas):
                    vec = vec * t ** a
                old.extend(vec * gam ** j for j in range(1, L + 2))
            assert _same_span(np.column_stack(old), got, balance_rows=True)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(L=st.integers(0, 4), eps=st.integers(1, 3),
       kind=st.sampled_from(["memory", "permutation", "identity"]),
       data=st.data())
def test_accepted_ff3_scenarios_pass_every_check(L, eps, kind, data):
    # on a fast-fading config the ff3 Scenario accepts, every check passes
    # on 4 seeds; a drawn permutation may still leave rx1 unseparated,
    # which its separation_guaranteed reports
    n = 2 * (L + eps) + 1
    omega = data.draw(st.lists(st.integers(1, n), min_size=L, max_size=L,
                               unique=True))
    links = [(p, q) for p in range(3) for q in range(3) if p != q]
    sets = {link: data.draw(st.lists(st.sampled_from(omega), unique=True))
            if omega else [] for link in links}
    sets[data.draw(st.sampled_from(links))] = omega
    every = list(range(2, n + 1))
    cfg = NetworkConfig(
        K=3, n=n, patterns=[[every] * 3 for _ in range(3)],
        unknown=[[sets.get((p, q), []) for q in range(3)] for p in range(3)],
        direct_kind=kind, memory_distance=data.draw(st.integers(1, n - 1)))
    try:
        scenario = Scenario("fastfading3", cfg, {"epsilon": eps}, trials=4,
                            base_seed=data.draw(st.integers(0, 2**31)))
    except ValueError as exc:
        assert kind != "permutation" and "rx1" in str(exc)
        assert plan_3user(cfg, eps).separated is False
        return
    for r in run_trials(scenario).results:
        separated = r.measured["separation_guaranteed"]
        assert separated or kind == "permutation"
        assert r.checks == dict.fromkeys(r.checks, True) | {
            "rx1_separation": separated}, (r.seed, r.checks)


def test_kuser_guard_and_validation():
    inst = sample_network(fastfading_config(3, 7, 1), seed=0)
    with pytest.raises(ValueError):
        plan_kuser(inst, 0)
    inst5 = sample_network(fastfading_config(5, 7, 1), seed=0)
    with pytest.raises(ValueError):
        plan_kuser(inst5, 2)   # 3^11 exceeds the size guard


# ---------------------------------------------------------------------------
# what a draw reads


@st.composite
def hidden_slot_networks(draw):
    """A fast-fading config with its plan: the 3-user scheme at L <= 4 on
    memory, permutation or identity links, or the K-user one at K = 4,
    n* = 1 or K = 3, n* <= 3, L <= 3.  Each cross link hides a random
    subset of L random slots, one link all of them."""
    K = draw(st.sampled_from([3, 4]))
    if K == 3 and draw(st.booleans()):
        L, eps = draw(st.integers(0, 4)), draw(st.integers(1, 3))
        n = 2 * (L + eps) + 1
    else:
        N = (K - 1) * (K - 2) - 1
        n_star = draw(st.integers(1, 3)) if K == 3 else 1
        L, eps = draw(st.integers(0, 3)), None
        n = 2 * L + n_star ** N + (n_star + 1) ** N
    omega = draw(st.lists(st.integers(1, n), min_size=L, max_size=L,
                          unique=True))
    links = [(p, q) for p in range(K) for q in range(K) if p != q]
    sets = {link: draw(st.lists(st.sampled_from(omega), unique=True))
            if omega else [] for link in links}
    sets[draw(st.sampled_from(links))] = omega
    every = list(range(2, n + 1))
    cfg = NetworkConfig(
        K=K, n=n, patterns=[[every] * K for _ in range(K)],
        unknown=[[sets.get((p, q), []) for q in range(K)] for p in range(K)],
        direct_kind=draw(st.sampled_from(["memory", "permutation",
                                          "identity"])),
        memory_distance=draw(st.integers(1, n - 1)))
    if eps is None:
        return cfg, plan_kuser(cfg, n_star), draw_kuser
    return cfg, plan_3user(cfg, eps), draw_3user


@settings(derandomize=True, max_examples=150, deadline=None)
@given(network=hidden_slot_networks(), seed=st.integers(0, 2**32 - 1),
       values=st.randoms(use_true_random=False))
def test_schemes_read_no_hidden_gain(network, seed, values):
    # every array of a drawn scheme is the same, byte for byte, when every
    # cross link's hidden gains take other values, zero and negative ones
    # included
    cfg, plan, draw = network
    inst = sample_network(cfg, seed)
    gains = inst.gains.copy()
    for p, q in plan.links:
        for s in cfg.unknown_set(p, q).hidden:
            gains[p * cfg.K + q, s - 1] = values.choice(
                [0.0, -1.0, values.uniform(-4.0, 4.0)])
    gains.setflags(write=False)
    moved = dataclasses.replace(inst, gains=gains)
    assert not np.array_equal(gains, inst.gains) or not plan.omega
    a, b = draw(inst, plan), draw(moved, plan)
    for field in dataclasses.fields(a):
        if field.name != "plan":
            x, y = getattr(a, field.name), getattr(b, field.name)
            for u, v in zip(*((x, y) if isinstance(x, tuple) else
                              ((x,), (y,)))):
                assert u.tobytes() == v.tobytes(), field.name
