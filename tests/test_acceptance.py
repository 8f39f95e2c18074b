"""End-to-end acceptance criteria.

Each test prints exactly one line, ``[PASS] criterion N: ...`` or
``[FAIL] criterion N: ...`` (run pytest with -s or rely on captured output
in the verbose report), and asserts the same condition.  Tolerances:
rational results are compared exactly; numeric ranks use the package-wide
relative singular-value threshold 1e-8; reconstruction residuals use the
relative bound 1e-9.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from alignsim.blind import plan_blind, predicted_free_dims, verify_blind
from alignsim.channel import (ChangingPattern, constant_intervals,
                              sample_channel, sample_network)
from alignsim.decomposition import (RESIDUAL_REL_TOL, build_and_decompose,
                                    build_power_basis, decompose, reconstruct)
from alignsim.fastfading import (dof_cap_given_upsilon, draw_kuser,
                                 min_upsilon_for_max_dof, plan_3user,
                                 plan_kuser, verify_3user)
from alignsim.harness import Scenario, run_trials
from alignsim.linalg import is_subspace, numeric_rank_by_shape
from alignsim.shared import (demo_network_config, dense_demo_patterns,
                             dof_upper_bound, dof_table, pair_demo_patterns,
                             scheme_counts)
from conftest import (blind_config, fastfading_config, random_cross_pattern,
                      spaced_direct_pattern)


def report(number, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_1_bound_table():
    start = time.perf_counter()
    rows = dof_table(1, 64)
    elapsed = time.perf_counter() - start
    by_k = {K: dof for K, _, dof in rows}
    ok = (by_k[2] == Fraction(1) and by_k[4] == Fraction(4, 3)
          and len(rows) == 64 and elapsed < 1.0)
    report(1, ok, f"DoF table K=1..64 in {elapsed:.4f}s; "
                  f"d(2)={by_k[2]}, d(4)={by_k[4]}")


def test_criterion_2_large_k_asymptote():
    K = 10 ** 6
    b = dof_upper_bound(K)
    exact = b.dof == Fraction(K, 2 * math.isqrt(K) - 1)
    ratio = b.dof / (Fraction(math.isqrt(K), 2))
    ok = exact and ratio == Fraction(2000, 1999)
    report(2, ok, f"K=10^6: d(r*)={b.dof} (exact), "
                  f"ratio to sqrt(K)/2 = {ratio}")


def test_criterion_3_pair_sharing_reproduction():
    start = time.perf_counter()
    pats, n = pair_demo_patterns()
    cfg = demo_network_config(pats, n)
    scenario = Scenario(regime="shared", config=cfg, params={"r": 2},
                        trials=200, base_seed=0)
    summary = run_trials(scenario)
    elapsed = time.perf_counter() - start
    dims_ok = (summary.rank_stats["desired_rx1"] == (3, 3, 3)
               and all(summary.rank_stats[f"desired_rx{k}"] == (2, 2, 2)
                       for k in (2, 3, 4)))
    dof_ok = all(r.total_dof == Fraction(9, 8) for r in summary.results)
    ok = summary.all_passed and dims_ok and dof_ok and elapsed < 5.0
    report(3, ok, f"desired (3,2,2,2)/8, total 9/8 on 200/200 draws "
                  f"in {elapsed:.2f}s")


def test_criterion_4_dense_sharing_reproduction():
    pats, n = dense_demo_patterns()
    cfg = demo_network_config(pats, n)
    scenario = Scenario(regime="shared", config=cfg, params={"r": 2},
                        trials=200, base_seed=0)
    summary = run_trials(scenario)
    dims_ok = all(summary.rank_stats[f"desired_rx{k}"] == (3, 3, 3)
                  for k in (1, 2, 3, 4))
    dof_ok = all(r.total_dof == Fraction(12, 10) for r in summary.results)
    counts = scheme_counts(4, 3)
    analytic_ok = counts == (10, 3, Fraction(12, 10))
    ok = summary.all_passed and dims_ok and dof_ok and analytic_ok
    report(4, ok, f"desired (3,3,3,3)/10, total 12/10 on 200/200 draws; "
                  f"scheme_counts(4,3)={counts}")


def test_criterion_5_decomposition_round_trip():
    rng = np.random.default_rng(0)
    float_ok = 0
    for t in range(1000):
        n = int(rng.integers(3, 27))
        cap = min(12, n - 1)
        k = int(rng.integers(0, cap + 1))
        pts = tuple(sorted(rng.choice(range(2, n + 1), size=k,
                                      replace=False).tolist()))
        pat = ChangingPattern(n, pts)
        h = sample_channel(pat, seed=t)
        if t % 2 == 0:
            fam, betas = build_and_decompose(h, "power", pts, n, seed=t)
        else:
            usz = int(rng.integers(0, n + 1))
            u = frozenset(rng.choice(range(1, n + 1), size=usz,
                                     replace=False).tolist())
            fam, betas = build_and_decompose(h, "indexed", u, n, seed=t,
                                             true_values=h)
        resid = np.max(np.abs(reconstruct(betas, fam) - h))
        float_ok += resid <= RESIDUAL_REL_TOL * np.max(np.abs(h))
    exact_ok = 0
    exact_trials = 200
    for t in range(exact_trials):
        n = int(rng.integers(3, 14))
        k = int(rng.integers(0, min(6, n - 1) + 1))
        pts = tuple(sorted(rng.choice(range(2, n + 1), size=k,
                                      replace=False).tolist()))
        pat = ChangingPattern(n, pts)
        vals = []
        while len(vals) < k + 1:
            v = Fraction(int(rng.integers(500, 2001)), 1000)
            if not vals or v != vals[-1]:
                vals.append(v)
        h = [None] * n
        for block, v in zip(constant_intervals(pat), vals):
            for slot in block:
                h[slot - 1] = v
        h = np.asarray([float(v) for v in h])
        fam = build_power_basis(pat, seed=t)
        betas = decompose(h, fam)
        exact_ok += (all(isinstance(b, Fraction) for b in betas)
                     and np.array_equal(reconstruct(betas, fam), h))
    ok = float_ok == 1000 and exact_ok == exact_trials
    report(5, ok, f"float residual <= 1e-9 rel on {float_ok}/1000; "
                  f"exact equality on {exact_ok}/{exact_trials}")


def _blind_instances(base, count, restrict_direct):
    made = []
    t = base
    while len(made) < count:
        rng = np.random.default_rng(t)
        rho = int(rng.integers(1, 3))
        sigma = int(rng.integers(0, 3))
        n = 2 * rho * (sigma + 1)
        t += 1
        if n > 24:
            continue
        K = int(rng.integers(2, 5))
        pts = random_cross_pattern(rng, n, sigma)
        if pts is None or len(pts) != sigma:
            continue
        union = ChangingPattern(n, pts)

        def sampler(k):
            if restrict_direct:
                return spaced_direct_pattern(rng, n, rho, pts,
                                             int(rng.integers(0, n)))
            size = int(rng.integers(0, n))
            return tuple(rng.choice(range(2, n + 1), size=size, replace=False))

        cfg = blind_config(rng, n, K, pts, sampler)
        plan = plan_blind(union, rho, [cfg.pattern(k, k) for k in range(K)])
        inst = sample_network(cfg, seed=50_000 + t)
        made.append((plan, cfg, inst))
    return made


def test_criterion_6_free_dim_prediction():
    agree = 0
    instances = _blind_instances(0, 100, restrict_direct=True)
    for plan, cfg, inst in instances:
        direct = [cfg.pattern(k, k) for k in range(cfg.K)]
        measured = verify_blind(plan, inst)[1]
        agree += [predicted_free_dims(plan, p) for p in direct] == [
            measured[f"free_dims_rx{k + 1}"] for k in range(cfg.K)]
    ok = agree == 100
    report(6, ok, f"predicted == measured free dims on {agree}/100 "
                  f"instances (n <= 24, mixed patterns)")


def test_criterion_7_blind_alignment_containment():
    draws = 0
    good = 0
    for sigma in (0, 1, 2):
        for rho in (1, 2):
            n = 2 * rho * (sigma + 1)
            t = 0
            done = 0
            while done < 36:
                rng = np.random.default_rng(1000 * sigma + 100 * rho + t)
                t += 1
                pts = random_cross_pattern(rng, n, sigma)
                if pts is None or len(pts) != sigma:
                    continue
                K = int(rng.integers(2, 5))
                union = ChangingPattern(n, pts)
                basis = plan_blind(union, rho, ()).basis
                cfg = blind_config(
                    rng, n, K, pts,
                    lambda k: tuple(rng.choice(
                        range(2, n + 1),
                        size=int(rng.integers(0, n)), replace=False)))
                inst = sample_network(cfg, seed=60_000 + t)
                contained = all(
                    is_subspace(inst.received_matrix(p, q, basis), basis)
                    for p in range(K) for q in range(K) if p != q)
                draws += 1
                good += contained
                done += 1
    ok = draws >= 200 and good == draws
    report(7, ok, f"cross interference contained in shared basis on "
                  f"{good}/{draws} draws over (sigma,rho) in {{0,1,2}}x{{1,2}}")


def test_criterion_8_fastfading_3user():
    all_good = True
    details = []
    for L, eps in ((1, 2), (2, 2), (3, 3)):
        n = 2 * (L + eps) + 1
        cfg = fastfading_config(3, n, L)
        plan = plan_3user(cfg, eps)
        passed = 0
        for t in range(200):
            inst = sample_network(cfg, seed=t)
            checks, measured, _ = verify_3user(plan, inst)
            ranks_ok = (measured["rank_tx1"] == L + eps + 1
                        and measured["rank_seed_b"] == L + eps
                        and measured["rank_seed_c"] == L + eps)
            joint_ok = measured["joint_rank"] == 2 * (L + eps) + 1
            passed += ranks_ok and joint_ok and all(checks.values())
        details.append(f"(L={L},eps={eps}): {passed}/200")
        all_good &= passed == 200
    neg_fail = 0
    cfg = fastfading_config(3, 7, 1, direct_kind="identity")
    plan = plan_3user(cfg, 2)
    for t in range(100):
        inst = sample_network(cfg, seed=t)
        neg_fail += not verify_3user(plan, inst)[0]["rx1_separation"]
    neg_ok = neg_fail > 95
    ok = all_good and neg_ok
    report(8, ok, "; ".join(details)
           + f"; identity negative control fails {neg_fail}/100")


def test_criterion_9_kuser_dimensions():
    start = time.perf_counter()
    n = 2 * 2 + 1 ** 5 + 2 ** 5      # L=2, n*=1, N=5 -> 37
    inst = sample_network(fastfading_config(4, n, 2, memory_distance=4),
                          seed=0)
    plan = plan_kuser(inst, 1)
    seed_cols, tx1_cols = draw_kuser(inst, plan)
    dims = numeric_rank_by_shape(
        {"dim_seed": seed_cols, "dim_tx1": tx1_cols}, balance_rows=True)
    dim_seed, dim_tx1 = dims["dim_seed"], dims["dim_tx1"]
    elapsed = time.perf_counter() - start
    ok = (inst.n == 37 and dim_seed == 3 == plan.expected["dim_seed"]
          and dim_tx1 == 34 == plan.expected["dim_tx1"]
          and elapsed < 30.0)
    report(9, ok, f"K=4, n*=1, L=2: n={inst.n}, dim(seed)={dim_seed}, "
                  f"dim(tx1)={dim_tx1} in {elapsed:.2f}s")


def test_criterion_10_converse_caps():
    caps_ok = (dof_cap_given_upsilon(3, Fraction(1, 2)) == Fraction(3, 2)
               and dof_cap_given_upsilon(4, Fraction(1, 2)) == 2)
    mins = [min_upsilon_for_max_dof(K) for K in (2, 3, 8)]
    mins_ok = mins == [Fraction(0), Fraction(1, 2), Fraction(1, 2)]
    ok = caps_ok and mins_ok
    report(10, ok, f"caps (3,1/2)=3/2, (4,1/2)=2; min fractions {mins} "
                   f"for K=2,3,8")
