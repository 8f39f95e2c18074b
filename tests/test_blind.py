"""Pattern-only precoding: containment, basis rank, free-dimension counts."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignsim.blind import (blind_total_dof, generic_free_dims, plan_blind,
                            predicted_free_dims, verify_blind)
from alignsim.channel import (ChangingPattern, NetworkConfig, sample_network,
                              separated_uniform, union_pattern)
from alignsim.decomposition import build_power_basis
from alignsim import linalg
from alignsim.harness import Scenario, run_trials
from alignsim.linalg import is_subspace, numeric_rank_by_shape
from conftest import blind_config, random_cross_pattern, spaced_direct_pattern
from fractions import Fraction


def make_plan_and_instance(t, restrict_direct):
    rng = np.random.default_rng(t)
    rho = int(rng.integers(1, 3))
    sigma = int(rng.integers(0, 3))
    n = 2 * rho * (sigma + 1)
    if n > 24:
        return None
    K = int(rng.integers(2, 5))
    pts = random_cross_pattern(rng, n, sigma)
    if pts is None or len(pts) != sigma:
        return None
    union = ChangingPattern(n, pts)

    def sampler(k):
        if restrict_direct:
            return spaced_direct_pattern(rng, n, rho, pts,
                                         int(rng.integers(0, n)))
        size = int(rng.integers(0, n))
        return tuple(rng.choice(range(2, n + 1), size=size, replace=False))

    cfg = blind_config(rng, n, K, pts, sampler)
    plan = plan_blind(union, rho, [cfg.pattern(k, k) for k in range(K)])
    inst = sample_network(cfg, seed=10_000 + t)
    return plan, cfg, inst


def test_scheme_dimensions_and_rank():
    for sigma, rho in [(0, 1), (1, 2), (2, 2)]:
        n = 2 * rho * (sigma + 1)
        # evenly spaced change points keep every union block >= rho slots,
        # which the full-rank identity needs
        pts = tuple(1 + (i + 1) * n // (sigma + 1) for i in range(sigma))
        plan = plan_blind(ChangingPattern(n, pts), rho, ())
        assert plan.n == n
        assert plan.basis.shape == (n, n // 2)
        assert not plan.basis.flags.writeable
        assert numeric_rank_by_shape({"basis": plan.basis}) == {
            "basis": n // 2}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(sigma=st.integers(0, 3), rho=st.integers(1, 2), data=st.data(),
       seed=st.integers(0, 2**31 - 1))
def test_basis_spans_the_generator_power_columns(sigma, rho, data, seed):
    # the generator-power construction, Q^a G^j with Q the union's power
    # family from seed and G the mixer from the plan key 7, is the same
    # span as the block indicators 1_b G^j, rho <= 2
    n = 2 * rho * (sigma + 1)
    pts = data.draw(st.sets(st.integers(2, n), min_size=sigma,
                            max_size=sigma))
    union = ChangingPattern(n, tuple(pts))
    new = plan_blind(union, rho, ()).basis
    gam = np.asarray(separated_uniform(np.random.default_rng(7), n))
    old = np.column_stack([q * gam ** j
                           for q in build_power_basis(union, seed).members
                           for j in range(1, rho + 1)])
    ranks = numeric_rank_by_shape(
        {"joint": np.hstack([old, new]), "old": old, "new": new})
    assert len(set(ranks.values())) == 1


def test_minimal_scheme_single_column():
    assert plan_blind(ChangingPattern(2, ()), 1, ()).basis.shape == (2, 1)


def test_build_validates_slot_count():
    with pytest.raises(ValueError):
        plan_blind(ChangingPattern(5, (2,)), 1, ())
    with pytest.raises(ValueError):
        plan_blind(ChangingPattern(4, ()), 0, ())


def test_cross_interference_containment():
    done = 0
    t = 0
    while done < 60:
        made = make_plan_and_instance(t, restrict_direct=False)
        t += 1
        if made is None:
            continue
        plan, cfg, inst = made
        for p in range(cfg.K):
            for q in range(cfg.K):
                if p != q:
                    seen = inst.received_matrix(p, q, plan.basis)
                    assert is_subspace(seen, plan.basis)
        done += 1


def measured_free_dims(plan, cfg, inst):
    measured = verify_blind(plan, inst)[1]
    return [measured[f"free_dims_rx{k + 1}"] for k in range(cfg.K)]


def test_generic_count_equals_measured_unrestricted():
    done = 0
    t = 0
    while done < 100:
        made = make_plan_and_instance(t, restrict_direct=False)
        t += 1
        if made is None:
            continue
        plan, cfg, inst = made
        measured = measured_free_dims(plan, cfg, inst)
        for k in range(cfg.K):
            pred = generic_free_dims(plan, cfg.pattern(k, k))
            assert pred == plan.expected_free[k] == measured[k]
        done += 1


def test_block_count_formula_equals_measured_in_regime():
    done = 0
    t = 0
    while done < 100:
        made = make_plan_and_instance(t, restrict_direct=True)
        t += 1
        if made is None:
            continue
        plan, cfg, inst = made
        measured = measured_free_dims(plan, cfg, inst)
        for k in range(cfg.K):
            coarse = predicted_free_dims(plan, cfg.pattern(k, k))
            fine = generic_free_dims(plan, cfg.pattern(k, k))
            assert coarse == fine == measured[k]
        done += 1


def test_direct_equal_to_cross_union_frees_nothing():
    pts = (3, 5)
    n = 2 * 1 * 3
    plan = plan_blind(ChangingPattern(n, pts), 1, ())
    assert predicted_free_dims(plan, ChangingPattern(n, pts)) == 0
    assert generic_free_dims(plan, ChangingPattern(n, pts)) == 0


def test_coinciding_change_points_are_not_private():
    pts = (4,)
    n = 8
    plan = plan_blind(ChangingPattern(n, pts), 2, ())
    # direct changes only where the cross union changes: nothing is freed
    assert predicted_free_dims(plan, ChangingPattern(n, (4,))) == 0
    # one extra private point in the second block frees rho dims
    assert predicted_free_dims(plan, ChangingPattern(n, (4, 6))) == 2


def test_prediction_warns_when_budget_below_longest_block():
    # n=2, one column: budget 1 is below the constant direct channel's block
    plan = plan_blind(ChangingPattern(2, ()), 1, ())
    with pytest.warns(UserWarning):
        predicted_free_dims(plan, ChangingPattern(2, ()))


def test_total_dof_floor_and_sum():
    assert blind_total_dof([0, 0, 0], 4) == 1
    assert blind_total_dof([2, 2, 2], 4) == Fraction(3, 2)
    assert blind_total_dof([2, 0, 0], 4) == 1


@pytest.mark.parametrize("sigma, rho", [(s, r) for s in range(4)
                                        for r in (1, 2)])
def test_stacked_blind_checks_match_one_link_at_a_time(sigma, rho,
                                                      monkeypatch):
    n, K = 2 * rho * (sigma + 1), 3
    default = linalg.RELATIVE_THRESHOLD
    cross = [(p, q) for p in range(K) for q in range(K) if p != q]
    for t in range(50):
        rng = np.random.default_rng([sigma, rho, t])
        pts = random_cross_pattern(rng, n, sigma)
        # the blind scheme is stated for diagonal links: identity only
        cfg = blind_config(rng, n, K, pts, lambda k: rng.choice(
            range(2, n + 1), size=int(rng.integers(0, n)), replace=False))
        # a coarse threshold fails about half the trials' containment
        monkeypatch.setattr(linalg, "RELATIVE_THRESHOLD",
                            1e-2 if t % 2 else default)
        # the trial's stacked verdicts, recomputed one link at a time
        union = union_pattern([cfg.pattern(p, q) for p, q in cross])
        direct = [cfg.pattern(k, k) for k in range(K)]
        plan = plan_blind(union, rho, direct)
        inst = sample_network(cfg, t)
        basis = plan.basis
        ranks = numeric_rank_by_shape(
            {"base": basis} | {k: np.hstack([basis, inst.received_matrix(
                k, k, basis)]) for k in range(K)})
        base = ranks.pop("base")
        free = [min(n // 2, j - base) for j in ranks.values()]
        want = ({"basis_full_rank": base == basis.shape[1],
                 "cross_containment": all(
                     is_subspace(inst.received_matrix(p, q, basis), basis)
                     for p, q in cross),
                 "predicted_equals_measured": all(
                     generic_free_dims(plan, d) == f
                     for d, f in zip(direct, free))},
                {"basis_rank": base, **{f"free_dims_rx{k + 1}": f
                                        for k, f in enumerate(free)}},
                blind_total_dof(free, n))
        assert verify_blind(plan, inst) == want
        # the blind Scenario runs only unions whose blocks hold rho slots
        if min(union.lengths) < rho:
            with pytest.raises(ValueError, match="shorter than rho"):
                Scenario("blind", cfg, {"rho": rho})
            continue
        result = run_trials(Scenario("blind", cfg, {"rho": rho}, trials=1,
                                     base_seed=t)).results[0]
        assert (result.checks, result.measured, result.total_dof) == want


@pytest.mark.parametrize("kind", ["memory", "permutation"])
def test_verify_blind_rejects_non_identity_direct_links(kind):
    # the pattern-only count assumes diagonal direct links, so a direct
    # link with memory or a permutation is out of the regime, not a
    # failed check (the blind plan rejects such a config first)
    n, pts = 6, (3, 5)
    cfg = dataclasses.replace(blind_config(
        np.random.default_rng(0), n, 3, pts, lambda k: (2, 4)),
        direct_kind=kind, memory_distance=2)
    plan = plan_blind(ChangingPattern(n, pts), 1,
                      [cfg.pattern(k, k) for k in range(3)])
    with pytest.raises(ValueError, match=f"direct_kind '{kind}'"):
        verify_blind(plan, sample_network(cfg, 0))


@st.composite
def blind_configs(draw):
    """K in [2, 4], rho in [1, 3], sigma in [0, 3] and n = 2 rho (sigma + 1):
    one cross pattern of sigma change points on every cross link, and per
    receiver a direct pattern with each slot 2..n a change point at a
    density of its own, so some of its points are private."""
    K, rho, sigma = (draw(st.integers(2, 4)), draw(st.integers(1, 3)),
                     draw(st.integers(0, 3)))
    n = 2 * rho * (sigma + 1)
    cross = sorted(draw(st.sets(st.integers(2, n), min_size=sigma,
                                max_size=sigma)))
    nest = [[list(cross) for _ in range(K)] for _ in range(K)]
    for k in range(K):
        density = draw(st.integers(0, 9))
        nest[k][k] = [c for c in range(2, n + 1)
                      if draw(st.integers(0, 9)) < density]
    return NetworkConfig(K=K, n=n, patterns=nest, direct_kind="identity"), rho


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=blind_configs())
def test_accepted_blind_scenarios_pass_every_check(case):
    # a config the blind Scenario accepts delivers the free dimensions its
    # plan counts, with every cross link inside the basis, on every draw
    cfg, rho = case
    try:
        scenario = Scenario("blind", cfg, {"rho": rho}, trials=4)
    except ValueError as exc:
        assert "shorter than rho" in str(exc)
        return
    for res in run_trials(scenario).results:
        assert all(res.checks.values()), (res.seed, res.checks)
