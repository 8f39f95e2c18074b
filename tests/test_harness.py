"""Monte Carlo driver: determinism, aggregation, regimes, CSV output."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from alignsim.channel import ChangingPattern, NetworkConfig, sample_network
from alignsim.harness import (Scenario, alignment_report, run_trials,
                              summary_csv, write_csv)
from alignsim.linalg import DEFAULT_TOL, RankTolerance, joint_rank
from alignsim.shared import (construct_shared, demo_network_config,
                             dense_demo_patterns, pair_demo_patterns)
from conftest import fastfading_config


def shared_scenario(trials=10, base_seed=0):
    pats, n = pair_demo_patterns()
    cfg = demo_network_config(pats, n, seed=0)
    return Scenario(regime="shared", config=cfg, params={"r": 2},
                    trials=trials, base_seed=base_seed)


def dense_scenario(trials=10):
    pats, n = dense_demo_patterns()
    return Scenario(regime="shared", config=demo_network_config(pats, n),
                    params={"r": 2}, trials=trials, base_seed=0)


def blind_scenario(trials=10):
    n, K = 6, 3          # rho=1, two cross change points -> n = 2*(2+1)
    cross = [3, 5]
    nest = [[list(cross) for _ in range(K)] for _ in range(K)]
    nest[0][0] = [2, 4]
    nest[1][1] = []
    nest[2][2] = [2, 3, 5]
    cfg = NetworkConfig(K=K, n=n, patterns=nest, direct_kind="identity", seed=0)
    return Scenario(regime="blind", config=cfg, params={"rho": 1},
                    trials=trials, base_seed=0)


def test_scenario_validation():
    pats, n = pair_demo_patterns()
    cfg = demo_network_config(pats, n)
    with pytest.raises(ValueError):
        Scenario(regime="quantum", config=cfg)
    with pytest.raises(ValueError):
        Scenario(regime="shared", config=cfg, trials=0)


def test_alignment_report_accounting():
    pats, n = pair_demo_patterns()
    cfg = demo_network_config(pats, n, seed=0)
    inst = sample_network(cfg, seed=4)
    scheme = construct_shared(4, 2, pats, n, seed=4)
    report = alignment_report(inst, scheme.precoders)
    assert tuple(d for d, _, _ in report.per_receiver) == (3, 2, 2, 2)
    assert report.total_dof == Fraction(9, 8)
    assert report.checks["imperfect_alignment"]
    assert report.checks["no_pollution"]
    assert report.dof_vector[0] == Fraction(3, 8)


def shared_cases():
    """(patterns, n, r) for both demos, then random same-destination
    families of 3 to 5 users."""
    yield (*pair_demo_patterns(), 2)
    yield (*dense_demo_patterns(), 2)
    rng = np.random.default_rng(11)
    for _ in range(12):
        K, n = int(rng.integers(3, 6)), int(rng.integers(3, 13))
        pats = [ChangingPattern(n, tuple(rng.choice(
            range(2, n + 1), size=int(rng.integers(0, n)), replace=False)))
            for _ in range(K)]
        yield pats, n, int(rng.integers(1, K))


@pytest.mark.parametrize("case", list(shared_cases()),
                         ids=lambda c: f"K{len(c[0])}n{c[1]}r{c[2]}")
def test_stacked_alignment_report_matches_one_receiver_at_a_time(case):
    pats, n, r = case
    K = len(pats)
    for t in range(10):
        rng = np.random.default_rng([K, n, t])
        cfg = dataclasses.replace(
            demo_network_config(pats, n, seed=t),
            direct_kind=str(rng.choice(["identity", "memory",
                                        "permutation"])),
            memory_distance=int(rng.integers(1, n)))
        # a coarse threshold merges dimensions on some receivers
        tol = RankTolerance(1e-2) if t % 2 else DEFAULT_TOL
        precoders = construct_shared(K, r, pats, n, seed=t).precoders
        inst = sample_network(cfg, t)
        report = alignment_report(inst, precoders, tol)
        # the stacked accounting, recomputed one joint at a time
        want = []
        for p in range(K):
            seen = {q: inst.received_matrix(p, q, precoders[q])
                    for q in range(K) if precoders[q].shape[1] > 0}
            interf = [m for q, m in seen.items() if q != p]
            used = joint_rank(list(seen.values()), tol) if seen else 0
            idim = joint_rank(interf, tol) if interf else 0
            want.append((used - idim, idim, used))
        assert report.per_receiver == want
        assert report.checks == {
            "imperfect_alignment": sum(i for _, i, _ in want) < (K - 1) * n,
            "no_pollution": all(0 <= d <= precoders[p].shape[1]
                                for p, (d, _, _) in enumerate(want))}


@pytest.mark.parametrize("make, svds", [
    # the basis once, then every [basis, received] joint in one stack
    (blind_scenario, 2),
    # one rank per precoder in construct_shared, then one stack per joint
    # shape: every arriving joint shares one, the interference joints of
    # the pair demo's widths (3, 2, 2, 2) take two and the dense demo's one
    (shared_scenario, 4 + 1 + 2),
    (dense_scenario, 4 + 1 + 1)], ids=["blind", "pair", "dense"])
def test_trial_svd_calls(monkeypatch, make, svds):
    svd, calls = np.linalg.svd, []

    def spy(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    scenario = make(trials=3)
    monkeypatch.setattr(np.linalg, "svd", spy)
    assert run_trials(scenario).all_passed
    assert len(calls) == 3 * svds


def test_run_trials_seed_offsets():
    summary = run_trials(shared_scenario(trials=5, base_seed=100))
    assert [r.seed for r in summary.results] == [100, 101, 102, 103, 104]


def test_shared_regime_passes_and_reports_dims():
    summary = run_trials(shared_scenario(trials=10))
    assert summary.all_passed
    assert summary.pass_fraction["dims_match_construction"] == 1.0
    assert summary.rank_stats["desired_rx1"] == (3, 3, 3)
    assert all(r.total_dof == Fraction(9, 8) for r in summary.results)


def test_dense_shared_regime():
    summary = run_trials(dense_scenario(trials=10))
    assert summary.all_passed
    assert all(r.total_dof == Fraction(12, 10) for r in summary.results)


def test_blind_regime():
    summary = run_trials(blind_scenario(trials=10))
    assert summary.all_passed
    assert summary.pass_fraction["predicted_equals_measured"] == 1.0
    assert summary.pass_fraction["basis_full_rank"] == 1.0


def test_fastfading3_regime():
    cfg = fastfading_config(3, 7, 1, 0)
    scenario = Scenario(regime="fastfading3", config=cfg,
                        params={"epsilon": 2}, trials=8, base_seed=0)
    summary = run_trials(scenario)
    assert summary.all_passed
    assert summary.rank_stats["rank_tx1"] == (4, 4, 4)


def test_fastfadingK_regime():
    n = 2 * 2 + 1 + 2 ** 5
    cfg = fastfading_config(4, n, 2, 0, memory_distance=4)
    scenario = Scenario(regime="fastfadingK", config=cfg,
                        params={"n_star": 1}, trials=3, base_seed=0)
    summary = run_trials(scenario)
    assert summary.all_passed
    assert all(r.total_dof == Fraction(34, 37) for r in summary.results)


def test_summary_csv_layout(tmp_path):
    summary = run_trials(shared_scenario(trials=3))
    text = summary_csv(summary)
    lines = text.splitlines()
    assert lines[0].startswith("trial,seed,")
    assert "check_dims_match_construction" in lines[0]
    assert any(line.startswith("summary,") for line in lines)
    assert any(line.startswith("pass_fraction,") for line in lines)
    assert any(line.startswith("rank_stats,") for line in lines)
    path = tmp_path / "out.csv"
    write_csv(summary, path)
    assert path.read_text(encoding="utf-8") == text
    # decimal separators are dots, never commas inside a field
    for line in lines:
        for field in line.split(","):
            assert " " not in field.strip() or field == ""


def test_mismatched_shared_patterns_rejected():
    nest = [[[2], [3]], [[2], [2]]]
    cfg = NetworkConfig(K=2, n=4, patterns=nest, seed=0)
    scenario = Scenario(regime="shared", config=cfg, trials=1)
    with pytest.raises(ValueError):
        run_trials(scenario)
