"""Monte Carlo driver: determinism, aggregation, regimes, CSV output."""

from fractions import Fraction

import numpy as np
import pytest

from alignsim.channel import NetworkConfig, sample_network
from alignsim.harness import (Scenario, alignment_report, run_trials,
                              summary_csv, write_csv)
from alignsim.shared import (construct_shared, demo_network_config,
                             dense_demo_patterns, pair_demo_patterns)
from conftest import fastfading_config


def shared_scenario(trials=10, base_seed=0):
    pats, n = pair_demo_patterns()
    cfg = demo_network_config(pats, n, seed=0)
    return Scenario(regime="shared", config=cfg, params={"r": 2},
                    trials=trials, base_seed=base_seed)


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
    pats, n = dense_demo_patterns()
    cfg = demo_network_config(pats, n, seed=0)
    scenario = Scenario(regime="shared", config=cfg, params={"r": 2},
                        trials=10, base_seed=0)
    summary = run_trials(scenario)
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
