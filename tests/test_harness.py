"""Monte Carlo driver: determinism, aggregation, regimes, CSV output."""

import dataclasses
import hashlib
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from alignsim import blind, channel, fastfading, harness, linalg, shared
from alignsim.channel import ChangingPattern, NetworkConfig, sample_network
from alignsim.decomposition import build_and_decompose, reconstruct
from alignsim.harness import Scenario, run_trials, summary_csv
from alignsim.linalg import joint_rank
from alignsim.shared import (construct_shared, demo_network_config,
                             dense_demo_patterns, pair_demo_patterns,
                             verify_shared)
from conftest import fastfading_config


def shared_scenario(trials=10, base_seed=0):
    pats, n = pair_demo_patterns()
    cfg = demo_network_config(pats, n)
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
    cfg = NetworkConfig(K=K, n=n, patterns=nest, direct_kind="identity")
    return Scenario(regime="blind", config=cfg, params={"rho": 1},
                    trials=trials, base_seed=0)


def test_scenario_validation():
    pats, n = pair_demo_patterns()
    cfg = demo_network_config(pats, n)
    with pytest.raises(ValueError):
        Scenario(regime="quantum", config=cfg)
    with pytest.raises(ValueError):
        Scenario(regime="shared", config=cfg, trials=0)
    # numpy rejects a negative trial seed, so the scenario does first
    with pytest.raises(ValueError, match="base_seed"):
        Scenario(regime="shared", config=cfg, base_seed=-5)


def test_verify_shared_accounting():
    pats, n = pair_demo_patterns()
    cfg = demo_network_config(pats, n)
    inst = sample_network(cfg, seed=4)
    scheme = construct_shared(4, 2, pats, n, seed=4)
    checks, measured = verify_shared(scheme, inst)
    assert [measured[f"desired_rx{p}"] for p in (1, 2, 3, 4)] == [3, 2, 2, 2]
    assert checks == {"imperfect_alignment": True, "no_pollution": True,
                      "dims_match_construction": True}
    result = run_trials(Scenario("shared", cfg, {"r": 2}, trials=1,
                                 base_seed=4)).results[0]
    assert (result.checks, result.measured) == (checks, measured)
    assert result.total_dof == Fraction(9, 8)


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
def test_stacked_alignment_report_matches_one_receiver_at_a_time(
        case, monkeypatch):
    pats, n, r = case
    K = len(pats)
    default = linalg.RELATIVE_THRESHOLD
    for t in range(10):
        rng = np.random.default_rng([K, n, t])
        cfg = dataclasses.replace(
            demo_network_config(pats, n),
            direct_kind=str(rng.choice(["identity", "memory",
                                        "permutation"])),
            memory_distance=int(rng.integers(1, n)))
        # a coarse threshold merges dimensions on some receivers
        monkeypatch.setattr(linalg, "RELATIVE_THRESHOLD",
                            1e-2 if t % 2 else default)
        scheme = construct_shared(K, r, pats, n, seed=t)
        precoders = scheme.precoders
        inst = sample_network(cfg, t)
        checks, measured = verify_shared(scheme, inst)
        # the stacked accounting, recomputed one joint at a time
        want = []
        for p in range(K):
            seen = {q: inst.received_matrix(p, q, precoders[q])
                    for q in range(K) if precoders[q].shape[1] > 0}
            interf = [m for q, m in seen.items() if q != p]
            used = joint_rank(list(seen.values())) if seen else 0
            idim = joint_rank(interf) if interf else 0
            want.append((used - idim, idim, used))
        assert measured == {
            f"{name}_rx{p + 1}": v for p, (d, _, used) in enumerate(want)
            for name, v in (("desired", d), ("used", used))}
        assert checks == {
            "imperfect_alignment": sum(i for _, i, _ in want) < (K - 1) * n,
            "no_pollution": all(0 <= d <= precoders[p].shape[1]
                                for p, (d, _, _) in enumerate(want)),
            "dims_match_construction": (
                tuple(d for d, _, _ in want) == scheme.plan.expected_desired
                and tuple(u for _, _, u in want)
                == scheme.plan.expected_used)}


def ff3_scenario(trials=10):
    L, eps = 3, 2
    return Scenario(regime="fastfading3",
                    config=fastfading_config(3, 2 * (L + eps) + 1, L),
                    params={"epsilon": eps}, trials=trials, base_seed=0)


@pytest.mark.parametrize("make, svds", [
    # the basis once, then every [basis, received] joint in one stack
    (blind_scenario, 2),
    # one stack per precoder width in construct_shared, then one stack per
    # joint shape: every arriving joint shares one, the pair demo's widths
    # (3, 2, 2, 2) take two stacks each way and the dense demo's one
    (shared_scenario, 2 + 1 + 2),
    (dense_scenario, 1 + 1 + 1),
    # one call over six shapes: three of single ranks and joints, the rx1
    # span joints, the loop-closure joints and their base
    (ff3_scenario, 3 + 1 + 2)], ids=["blind", "pair", "dense", "ff3"])
def test_trial_svd_calls(monkeypatch, make, svds):
    svd, calls = np.linalg.svd, []

    def spy(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    scenario = make(trials=3)
    monkeypatch.setattr(np.linalg, "svd", spy)
    assert run_trials(scenario).all_passed
    assert len(calls) == 3 * svds


def ffk_scenario(trials=3):
    return Scenario(regime="fastfadingK",
                    config=fastfading_config(4, 2 * 2 + 1 + 2 ** 5, 2,
                                             memory_distance=4),
                    params={"n_star": 1}, trials=trials, base_seed=0)


@pytest.mark.parametrize("make, generators", [
    # one per link and two for the basis (its generator diagonal and its
    # mixer); an identity transform seeds none
    (blind_scenario, 9 + 2),
    # one per link and one for the precoders
    (shared_scenario, 16 + 1), (dense_scenario, 16 + 1),
    # the seven links it reads (not (1,1) or (2,2)), the one direct
    # transform verify_3user reads (receiver 0's), six surrogate
    # families, the mixer and the verifier's substitutions
    (ff3_scenario, 7 + 1 + 6 + 1 + 1),
    # the twelve cross links, their twelve surrogate families and the
    # mixer: no direct link and no direct transform
    (ffk_scenario, 12 + 12 + 1)],
    ids=["blind", "pair", "dense", "ff3", "ffk"])
def test_trial_generator_counts(monkeypatch, make, generators):
    default_rng, seeded = np.random.default_rng, []

    def spy(*args, **kwargs):
        seeded.append(1)
        return default_rng(*args, **kwargs)

    scenario = make(trials=3)
    monkeypatch.setattr(np.random, "default_rng", spy)
    assert run_trials(scenario).all_passed
    assert len(seeded) == 3 * generators


def all_links(K):
    return {(p, q) for p in range(K) for q in range(K)}


@pytest.mark.parametrize("make, links", [
    (blind_scenario, all_links(3)),
    (shared_scenario, all_links(4)), (dense_scenario, all_links(4)),
    # the 3-user verifier never reads links (1,1) and (2,2)
    (ff3_scenario, all_links(3) - {(1, 1), (2, 2)}),
    # the K-user scheme reads only cross-link surrogates
    (ffk_scenario, all_links(4) - {(p, p) for p in range(4)})],
    ids=["blind", "pair", "dense", "ff3", "ffk"])
def test_trials_sample_only_the_links_they_read(monkeypatch, make, links):
    instances = []

    def spy(config, seed):
        instances.append(sample_network(config, seed))
        return instances[-1]

    scenario = make(trials=3)
    monkeypatch.setattr(harness, "sample_network", spy)
    assert run_trials(scenario).all_passed
    assert len(instances) == 3
    assert all(set(inst.channels) == links for inst in instances)


# seed-free work that a scenario's plan does once, when it is built
PLAN_ONLY = {"union_pattern": channel.union_pattern,
             "generic_free_dims": blind.generic_free_dims,
             "_pick_window": shared._pick_window,
             "_receiver_patterns": harness._receiver_patterns,
             "hidden_union": fastfading.hidden_union,
             "direct_transform_matrix": channel.direct_transform_matrix}


def spy_everywhere(monkeypatch, fns):
    """Count the calls to each function under every name an alignsim
    module binds it to."""
    counts = Counter()
    modules = [m for name, m in sys.modules.items()
               if name == "alignsim" or name.startswith("alignsim.")]
    for label, fn in fns.items():
        def spy(*args, _fn=fn, _label=label, **kwargs):
            counts[_label] += 1
            return _fn(*args, **kwargs)
        for module in modules:
            for attribute, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attribute, spy)
    return counts


@pytest.mark.parametrize("make, at_load, in_trials", [
    # identity configs build their one transform with the config
    (blind_scenario, {"union_pattern", "generic_free_dims",
                      "direct_transform_matrix"}, {}),
    (shared_scenario, {"_receiver_patterns", "_pick_window", "union_pattern",
                       "direct_transform_matrix"}, {}),
    (dense_scenario, {"_receiver_patterns", "_pick_window", "union_pattern",
                      "direct_transform_matrix"}, {}),
    # receiver 0's banded memory transform is seeded, so each trial draws it
    (ff3_scenario, {"hidden_union"}, {"direct_transform_matrix": 5}),
    (ffk_scenario, {"hidden_union"}, {})],
    ids=["blind", "pair", "dense", "ff3", "ffk"])
def test_seed_free_work_stays_out_of_the_trials(monkeypatch, make, at_load,
                                                in_trials):
    counts = spy_everywhere(monkeypatch, PLAN_ONLY)
    scenario = make(trials=5)
    assert set(counts) == at_load
    counts.clear()
    assert run_trials(scenario).all_passed
    assert counts == in_trials


@pytest.mark.parametrize("name", ["blind", "pair", "dense", "ff3", "ffk"])
def test_trials_of_one_scenario_equal_one_trial_scenarios(name):
    # one plan serves every trial: the rows of a 5-trial run are those of
    # five 1-trial scenarios at the same seeds
    scenario = dataclasses.replace(SCENARIOS[name](trials=5), base_seed=40)
    header, *rows = summary_csv(run_trials(scenario)).splitlines()[:6]
    for i, row in enumerate(rows):
        one = dataclasses.replace(scenario, trials=1, base_seed=40 + i)
        one_header, one_row = summary_csv(run_trials(one)).splitlines()[:2]
        assert one_header == header
        assert row == f"{i}," + one_row.split(",", 1)[1]


@pytest.mark.parametrize("make", [blind_scenario, shared_scenario,
                                  dense_scenario], ids=["blind", "pair",
                                                        "dense"])
def test_identity_received_matrix_is_the_product_bit_for_bit(make):
    scenario = make(trials=1)
    cfg = scenario.config
    for seed in range(5):
        if scenario.regime == "blind":
            precoders = blind.draw_blind(scenario.plan[0], cfg.K,
                                         seed).precoders
        else:
            precoders = shared.draw_shared(scenario.plan, seed).precoders
        inst = sample_network(cfg, seed)
        for p in range(cfg.K):
            x = precoders[p]
            want = inst.channel(p, p)[:, None] * (np.eye(cfg.n) @ x)
            got = inst.received_matrix(p, p, x)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


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
    cfg = fastfading_config(3, 7, 1)
    scenario = Scenario(regime="fastfading3", config=cfg,
                        params={"epsilon": 2}, trials=8, base_seed=0)
    summary = run_trials(scenario)
    assert summary.all_passed
    assert summary.rank_stats["rank_tx1"] == (4, 4, 4)


def test_fastfadingK_regime():
    n = 2 * 2 + 1 + 2 ** 5
    cfg = fastfading_config(4, n, 2, memory_distance=4)
    scenario = Scenario(regime="fastfadingK", config=cfg,
                        params={"n_star": 1}, trials=3, base_seed=0)
    summary = run_trials(scenario)
    assert summary.all_passed
    assert all(r.total_dof == Fraction(34, 37) for r in summary.results)


# SHA-256 of summary_csv for three trials of each scenario below, at two
# base seeds: a change meant to keep every verdict and CSV byte must keep
# these
GOLDEN_CSV_SHA256 = {
    ("blind", 0): "ab22e8783fc0335b3f27171ed975c845508552e2f566514a42978588eca91f58",
    ("blind", 1000): "834bfab2bd0a8943b0de0d376db0e807a17dcfa39f2e2a7b46a24b20818e5d24",
    ("pair", 0): "3adbd002777a7e4b6e99714c6b4ae5cf6547b4bafee615e7ffcc3cc51b701cb1",
    ("pair", 1000): "55af842d27485f466737c0695b2d4de3c1e2c40762a333e58967b246b1a293fc",
    ("dense", 0): "c7feeb6443f04601a837ccce915548bbc2433ed88eeaed138f2a39c8e6aac72c",
    ("dense", 1000): "fd81ff7ea7a033f63889981a196f7fabf3bbddb03190442bf22e0a8ebf36f71a",
    ("ff3", 0): "d24aba0427243838d7c309c2e839d9d92c086ca1caa8f5dbd24166dfd00bba27",
    ("ff3", 1000): "31c58c33a61291c53766e64200f52d7690122d5573f07fe0d76efaff99517757",
    ("ffk", 0): "dae10735b901fd103ea302f2d31c3ab5e0df0804c9c237231373f85a175b3a2c",
    ("ffk", 1000): "d4d8c4f146cf8803a2d83a7f4846781988496f1acf683f3c07ba11f872049485",
}
SCENARIOS = {"blind": blind_scenario, "pair": shared_scenario,
             "dense": dense_scenario, "ff3": ff3_scenario, "ffk": ffk_scenario}


@pytest.mark.parametrize("name, base_seed", list(GOLDEN_CSV_SHA256),
                         ids=[f"{n}-{s}" for n, s in GOLDEN_CSV_SHA256])
def test_summary_csv_golden_bytes(name, base_seed):
    scenario = dataclasses.replace(SCENARIOS[name](trials=3),
                                   base_seed=base_seed)
    text = summary_csv(run_trials(scenario))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        GOLDEN_CSV_SHA256[(name, base_seed)]


def decomposition_digest(kind, s, seeds):
    """SHA-256 over the coefficients (numerator/denominator) and the
    reconstruct bits of build_and_decompose on size-s channels of n = 2s
    slots: s change points (power) or s hidden slots (indexed)."""
    digest = hashlib.sha256()
    n = 2 * s
    for seed in seeds:
        rng = np.random.default_rng(seed)
        if kind == "power":
            support = sorted(rng.choice(np.arange(2, n + 1), size=s,
                                        replace=False).tolist())
            h = np.repeat(rng.uniform(0.5, 2.0, size=s + 1),
                          np.diff([1, *support, n + 1]))
            fam, betas = build_and_decompose(h, kind, support, n, seed)
        else:
            support = rng.choice(np.arange(1, n + 1), size=s,
                                 replace=False).tolist()
            h = rng.uniform(0.5, 2.0, size=n)
            fam, betas = build_and_decompose(h, kind, support, n, seed,
                                             true_values=h)
        for b in betas:
            digest.update(f"{b.numerator}/{b.denominator};".encode())
        digest.update(reconstruct(betas, fam).tobytes())
    return digest.hexdigest()


# decomposition_digest over seeds 0-3: a change meant to keep every
# coefficient and reconstructed bit must keep these
GOLDEN_DECOMPOSITION_SHA256 = {
    ("power", 6): "1b8119c06f7924f07d2c36f2244dc7d2bb5ce3aae2df9a7f28bd0ce2aa0ca6ad",
    ("power", 12): "4c90e3d3ad219f4486005d2f8c5e1b9021c53aafc5de4c1a6b8f715a79ff26b2",
    ("power", 20): "1d4c0ebf1a75f327d6b6b412ed7663d0ced94e20343c2368a32b2428740dd70c",
    ("indexed", 6): "b0ba223e74e7041edc73f1c49078c22bd335618034f22ffa16a597af130b9aa5",
    ("indexed", 12): "539b225a361f46e695278aad91c03cd7bb45355f26fd8ec138a7d70e18212205",
    ("indexed", 20): "40c1ab9216b161b34a3a7bbabfc20f235167e4cbb73a4aff887f3c0bf200bbdf",
}


@pytest.mark.parametrize("kind, s", list(GOLDEN_DECOMPOSITION_SHA256),
                         ids=[f"{k}-{s}" for k, s in GOLDEN_DECOMPOSITION_SHA256])
def test_decomposition_golden_bits(kind, s):
    assert decomposition_digest(kind, s, range(4)) == \
        GOLDEN_DECOMPOSITION_SHA256[(kind, s)]


def test_summary_csv_layout():
    summary = run_trials(shared_scenario(trials=3))
    text = summary_csv(summary)
    lines = text.splitlines()
    assert lines[0].startswith("trial,seed,")
    assert "check_dims_match_construction" in lines[0]
    assert any(line.startswith("summary,") for line in lines)
    assert any(line.startswith("pass_fraction,") for line in lines)
    assert any(line.startswith("rank_stats,") for line in lines)
    # decimal separators are dots, never commas inside a field
    for line in lines:
        for field in line.split(","):
            assert " " not in field.strip() or field == ""


def test_mismatched_shared_patterns_rejected():
    nest = [[[2], [3]], [[2], [2]]]
    cfg = NetworkConfig(K=2, n=4, patterns=nest)
    # the plan is built with the scenario, so that is where it fails
    with pytest.raises(ValueError, match="patterns"):
        Scenario(regime="shared", config=cfg, trials=1)
