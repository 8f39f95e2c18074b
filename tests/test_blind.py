"""Pattern-only precoding: containment, basis rank, free-dimension counts."""

import dataclasses

import numpy as np
import pytest

from alignsim.blind import (blind_total_dof, build_blind_scheme,
                            generic_free_dims, measured_free_dims,
                            predicted_free_dims)
from alignsim.channel import ChangingPattern, sample_network, union_pattern
from alignsim.harness import Scenario, run_trials
from alignsim.linalg import (DEFAULT_TOL, RankTolerance, is_subspace,
                             joint_rank, numeric_rank)
from conftest import blind_config, random_cross_pattern, spaced_direct_pattern
from fractions import Fraction


def make_scheme_and_instance(t, restrict_direct):
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
    scheme = build_blind_scheme(union, rho, K, seed=t)

    def sampler(k):
        if restrict_direct:
            return spaced_direct_pattern(rng, n, rho, pts,
                                         int(rng.integers(0, n)))
        size = int(rng.integers(0, n))
        return tuple(rng.choice(range(2, n + 1), size=size, replace=False))

    cfg = blind_config(rng, n, K, pts, sampler, seed=t)
    inst = sample_network(cfg, seed=10_000 + t)
    return scheme, cfg, inst


def test_scheme_dimensions_and_rank():
    for sigma, rho in [(0, 1), (1, 2), (2, 2)]:
        n = 2 * rho * (sigma + 1)
        # evenly spaced change points keep every union block >= rho slots,
        # which the full-rank identity needs
        pts = tuple(1 + (i + 1) * n // (sigma + 1) for i in range(sigma))
        scheme = build_blind_scheme(ChangingPattern(n, pts), rho, 3, seed=0)
        assert scheme.n == n
        assert scheme.interference_basis.shape == (n, n // 2)
        assert numeric_rank(scheme.interference_basis) == n // 2
        for v in scheme.precoders:
            assert v.shape == (n, n // 2)


def test_minimal_scheme_single_column():
    scheme = build_blind_scheme(ChangingPattern(2, ()), 1, 3, seed=0)
    assert scheme.interference_basis.shape == (2, 1)


def test_build_validates_slot_count():
    with pytest.raises(ValueError):
        build_blind_scheme(ChangingPattern(5, (2,)), 1, 3, seed=0)
    with pytest.raises(ValueError):
        build_blind_scheme(ChangingPattern(4, ()), 0, 3, seed=0)


def test_cross_interference_containment():
    done = 0
    t = 0
    while done < 60:
        made = make_scheme_and_instance(t, restrict_direct=False)
        t += 1
        if made is None:
            continue
        scheme, cfg, inst = made
        for p in range(cfg.K):
            for q in range(cfg.K):
                if p != q:
                    seen = inst.received_matrix(p, q, scheme.precoders[q])
                    assert is_subspace(seen, scheme.interference_basis)
        done += 1


def test_generic_count_equals_measured_unrestricted():
    done = 0
    t = 0
    while done < 100:
        made = make_scheme_and_instance(t, restrict_direct=False)
        t += 1
        if made is None:
            continue
        scheme, cfg, inst = made
        measured = measured_free_dims(scheme, inst)
        for k in range(cfg.K):
            pred = generic_free_dims(scheme, cfg.pattern(k, k))
            assert pred == measured[k]
        done += 1


def test_block_count_formula_equals_measured_in_regime():
    done = 0
    t = 0
    while done < 100:
        made = make_scheme_and_instance(t, restrict_direct=True)
        t += 1
        if made is None:
            continue
        scheme, cfg, inst = made
        measured = measured_free_dims(scheme, inst)
        for k in range(cfg.K):
            coarse = predicted_free_dims(scheme, cfg.pattern(k, k))
            fine = generic_free_dims(scheme, cfg.pattern(k, k))
            assert coarse == fine == measured[k]
        done += 1


def test_direct_equal_to_cross_union_frees_nothing():
    pts = (3, 5)
    n = 2 * 1 * 3
    scheme = build_blind_scheme(ChangingPattern(n, pts), 1, 3, seed=1)
    assert predicted_free_dims(scheme, ChangingPattern(n, pts)) == 0
    assert generic_free_dims(scheme, ChangingPattern(n, pts)) == 0


def test_coinciding_change_points_are_not_private():
    pts = (4,)
    n = 8
    scheme = build_blind_scheme(ChangingPattern(n, pts), 2, 3, seed=1)
    # direct changes only where the cross union changes: nothing is freed
    assert predicted_free_dims(scheme, ChangingPattern(n, (4,))) == 0
    # one extra private point in the second block frees rho dims
    assert predicted_free_dims(scheme, ChangingPattern(n, (4, 6))) == 2


def test_prediction_warns_when_budget_below_longest_block():
    # n=2, one column: budget 1 is below the constant direct channel's block
    scheme = build_blind_scheme(ChangingPattern(2, ()), 1, 2, seed=0)
    with pytest.warns(UserWarning):
        predicted_free_dims(scheme, ChangingPattern(2, ()))


def test_total_dof_floor_and_sum():
    assert blind_total_dof([0, 0, 0], 4) == 1
    assert blind_total_dof([2, 2, 2], 4) == Fraction(3, 2)
    assert blind_total_dof([2, 0, 0], 4) == 1


@pytest.mark.parametrize("sigma, rho", [(s, r) for s in range(4)
                                        for r in (1, 2)])
def test_stacked_blind_checks_match_one_link_at_a_time(sigma, rho):
    n, K = 2 * rho * (sigma + 1), 3
    cross = [(p, q) for p in range(K) for q in range(K) if p != q]
    for t in range(50):
        rng = np.random.default_rng([sigma, rho, t])
        pts = random_cross_pattern(rng, n, sigma)
        cfg = blind_config(rng, n, K, pts, lambda k: rng.choice(
            range(2, n + 1), size=int(rng.integers(0, n)), replace=False),
            seed=t)
        cfg = dataclasses.replace(cfg, direct_kind=str(rng.choice(
            ["identity", "memory", "permutation"])))
        # a coarse threshold fails about half the trials' containment
        tol = RankTolerance(1e-2) if t % 2 else DEFAULT_TOL
        result = run_trials(Scenario("blind", cfg, {"rho": rho}, trials=1,
                                     base_seed=t, tol=tol)).results[0]
        # the trial's stacked verdicts, recomputed one link at a time
        scheme = build_blind_scheme(
            union_pattern([cfg.pattern(p, q) for p, q in cross]), rho, K, t)
        inst = sample_network(cfg, t)
        basis = scheme.interference_basis
        assert result.checks["cross_containment"] == all(
            is_subspace(inst.received_matrix(p, q, scheme.precoders[q]),
                        basis, tol) for p, q in cross)
        free = [min(n // 2, joint_rank([basis, inst.received_matrix(
            k, k, scheme.precoders[k])], tol) - numeric_rank(basis, tol))
            for k in range(K)]
        assert free == measured_free_dims(scheme, inst, tol) == [
            result.measured[f"free_dims_rx{k + 1}"] for k in range(K)]
