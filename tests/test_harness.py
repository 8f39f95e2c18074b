"""Monte Carlo driver: determinism, aggregation, regimes, CSV output."""

import dataclasses
import hashlib
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignsim import blind, channel, fastfading, harness, linalg, shared
from alignsim.channel import ChangingPattern, NetworkConfig, sample_network
from alignsim.decomposition import build_and_decompose, reconstruct
from alignsim.harness import RunSummary, Scenario, run_trials, summary_csv
from alignsim.linalg import numeric_rank_by_shape
from alignsim.shared import (demo_network_config, dense_demo_patterns,
                             pair_demo_patterns, plan_shared, verify_shared)
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


@pytest.mark.parametrize("trials", [1, 3])
def test_trial_seeds_stay_below_2_32(trials):
    # at 2**32 a trial key [seed, k] would split into the words of
    # another trial's transform key [seed', 3, p]
    cfg = demo_network_config(*pair_demo_patterns())
    last = 2**32 - trials
    summary = run_trials(Scenario(regime="shared", config=cfg,
                                  trials=trials, base_seed=last))
    assert summary.all_passed
    assert [r.seed for r in summary.results][-1] == 2**32 - 1
    with pytest.raises(ValueError,
                       match=r"base_seed must lie in \[0, 2\*\*32 - trials\]"):
        Scenario(regime="shared", config=cfg, trials=trials,
                 base_seed=last + 1)


def test_verify_shared_accounting():
    pats, n = pair_demo_patterns()
    cfg = demo_network_config(pats, n)
    inst = sample_network(cfg, seed=4)
    checks, measured, total = verify_shared(plan_shared(4, 2, pats, n), inst)
    assert [measured[f"desired_rx{p}"] for p in (1, 2, 3, 4)] == [3, 2, 2, 2]
    assert checks == {"imperfect_alignment": True, "no_pollution": True,
                      "dims_match_construction": True}
    assert total == Fraction(9, 8)
    result = run_trials(Scenario("shared", cfg, {"r": 2}, trials=1,
                                 base_seed=4)).results[0]
    assert (result.checks, result.measured, result.total_dof) == \
        (checks, measured, total)


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
        plan = plan_shared(K, r, pats, n)
        precoders = plan.precoders
        inst = sample_network(cfg, t)
        checks, measured, total = verify_shared(plan, inst)
        # the stacked accounting, recomputed one joint at a time
        want = []
        for p in range(K):
            seen = {q: inst.received_matrix(p, q, precoders[q])
                    for q in range(K) if precoders[q].shape[1] > 0}
            interf = [m for q, m in seen.items() if q != p]
            used, idim = [numeric_rank_by_shape({"m": np.hstack(ms)})["m"]
                          if ms else 0 for ms in (list(seen.values()), interf)]
            want.append((used - idim, idim, used))
        assert measured == {
            f"{name}_rx{p + 1}": v for p, (d, _, used) in enumerate(want)
            for name, v in (("desired", d), ("used", used))}
        assert checks == {
            "imperfect_alignment": sum(i for _, i, _ in want) < (K - 1) * n,
            "no_pollution": all(0 <= d <= precoders[p].shape[1]
                                for p, (d, _, _) in enumerate(want)),
            "dims_match_construction": (
                tuple(d for d, _, _ in want) == plan.expected_desired
                and tuple(u for _, _, u in want) == plan.expected_used)}
        assert total == max(Fraction(sum(d for d, _, _ in want), n), 1)


def ff3_scenario(trials=10):
    L, eps = 3, 2
    return Scenario(regime="fastfading3",
                    config=fastfading_config(3, 2 * (L + eps) + 1, L),
                    params={"epsilon": eps}, trials=trials, base_seed=0)


def ffk_scenario(trials=3):
    return Scenario(regime="fastfadingK",
                    config=fastfading_config(4, 2 * 2 + 1 + 2 ** 5, 2,
                                             memory_distance=4),
                    params={"n_star": 1}, trials=trials, base_seed=0)


@pytest.mark.parametrize("make, svds", [
    # the basis once, then every [basis, received] joint in one stack
    (blind_scenario, 2),
    # one stack per joint shape: the plan checked its precoders once, every
    # arriving joint shares one shape, and the pair demo's widths
    # (3, 2, 2, 2) give its interference joints two shapes and the dense
    # demo's one
    (shared_scenario, 1 + 2),
    (dense_scenario, 1 + 1),
    # one call over four shapes: three of single ranks and joints, and the
    # rx1 joint beside E_omega (loop_closure is decided without a rank)
    (ff3_scenario, 3 + 1),
    # one balanced call over the seed and tx1 families, which differ in
    # shape
    (ffk_scenario, 2)], ids=["blind", "pair", "dense", "ff3", "ffk"])
def test_trial_svd_calls(monkeypatch, make, svds):
    svd, calls = np.linalg.svd, []

    def spy(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    scenario = make(trials=3)
    monkeypatch.setattr(np.linalg, "svd", spy)
    assert run_trials(scenario).all_passed
    assert len(calls) == 3 * svds


@pytest.mark.parametrize("make, generators", [
    # one for the links: the plan drew the basis's mixer or the shared
    # fill once, and an identity transform seeds none
    (blind_scenario, 1), (shared_scenario, 1), (dense_scenario, 1),
    # one for the links and one for the one direct transform verify_3user
    # reads (receiver 0's); the precoders read the known gains
    (ff3_scenario, 2),
    # one for the links: no direct transform is read
    (ffk_scenario, 1)],
    ids=["blind", "pair", "dense", "ff3", "ffk"])
def test_trial_generator_counts(monkeypatch, make, generators):
    default_rng, seeded = np.random.default_rng, []

    def spy(*args, **kwargs):
        # default_rng hands back a Generator it is given, seeding nothing
        if not isinstance(args[0], np.random.Generator):
            seeded.append(1)
        return default_rng(*args, **kwargs)

    scenario = make(trials=3)
    monkeypatch.setattr(np.random, "default_rng", spy)
    assert run_trials(scenario).all_passed
    assert len(seeded) == 3 * generators


class _Keyed(Exception):
    """Carries the first draw of the stream a function has just keyed."""


def test_trial_streams_differ_within_and_across_adjacent_seeds(monkeypatch):
    # a trial draws its links and each receiver's direct transform from
    # streams keyed by the trial seed: their first draws differ pairwise
    # within a trial and from those of the next trial.  The pattern-only
    # schemes draw once, from the seed-free plan keys 6 (shared) and 7
    # (blind); numpy pads a key with zeros and no trial purpose is 0, so
    # their first draws differ from each other and from every trial
    # stream's
    ff3 = ff3_scenario()
    pats, n = pair_demo_patterns()
    streams = {
        "links": lambda s: sample_network(ff3.config, s),
        **{f"transform rx{p + 1}": lambda s, p=p: channel._Transforms(
            ff3.config, s)[p] for p in range(3)}}
    plans = {"shared plan": lambda: plan_shared(4, 2, pats, n),
             "blind plan": lambda: blind.plan_blind(
                 ChangingPattern(6, (3, 5)), 1, ())}
    default_rng = np.random.default_rng

    def first_draw(*args, **kwargs):
        raise _Keyed(default_rng(*args, **kwargs).bit_generator.random_raw())

    def keyed_draw(start, *args):
        with pytest.raises(_Keyed) as keyed:
            start(*args)
        return keyed.value.args[0]

    monkeypatch.setattr(np.random, "default_rng", first_draw)
    first = [{name: keyed_draw(start, s) for name, start in streams.items()}
             for s in range(1001)]
    for s in range(1000):
        here, there = first[s], first[s + 1]
        assert len(set(here.values())) == len(streams), s
        for a in streams:
            for b in streams:
                assert here[a] != there[b], (s, a, b)
    plan_first = {name: keyed_draw(start) for name, start in plans.items()}
    assert len(set(plan_first.values())) == len(plans)
    assert {v for here in first for v in here.values()}.isdisjoint(
        plan_first.values())


@pytest.mark.parametrize("make, K", [
    (blind_scenario, 3), (shared_scenario, 4), (dense_scenario, 4),
    (ff3_scenario, 3), (ffk_scenario, 4)],
    ids=["blind", "pair", "dense", "ff3", "ffk"])
def test_trials_sample_only_the_links_they_read(monkeypatch, make, K):
    # every trial samples all K*K links at once, those its scheme reads
    # among them (the 3-user verifier never reads links (1,1) and (2,2),
    # the K-user scheme no direct link)
    instances = []

    def spy(config, seed):
        instances.append(sample_network(config, seed))
        return instances[-1]

    scenario = make(trials=3)
    monkeypatch.setattr(harness, "sample_network", spy)
    assert run_trials(scenario).all_passed
    assert len(instances) == 3
    assert all(inst.gains.shape == (K * K, inst.n)
               and all(np.shares_memory(inst.channel(p, q), inst.gains)
                       for p in range(K) for q in range(K))
               for inst in instances)


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
    # receiver 0's banded memory transform is seeded, so each trial draws
    # it
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


@pytest.mark.parametrize("make, bands", [(ff3_scenario, 1),
                                         (ffk_scenario, 0)],
                         ids=["ff3", "ffk"])
def test_memory_band_is_built_once_per_shape(monkeypatch, make, bands):
    # the band indices of a memory transform (from two np.tri calls) are
    # built on the first draw of its (n, distance) and read by every later
    # draw; the K-user trial reads no direct transform
    tri, calls = np.tri, []

    def spy(*args, **kwargs):
        calls.append(1)
        return tri(*args, **kwargs)

    scenario = make(trials=5)
    channel._band.cache_clear()
    monkeypatch.setattr(np, "tri", spy)
    assert run_trials(scenario).all_passed
    assert len(calls) == 2 * bands
    calls.clear()
    assert run_trials(scenario).all_passed
    assert calls == []


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


def blind_verdict(cfg, params):
    K = cfg.K
    plan = blind.plan_blind(channel.union_pattern(
        [cfg.pattern(p, q) for p in range(K) for q in range(K) if p != q]),
        params["rho"], [cfg.pattern(k, k) for k in range(K)])
    return lambda inst: blind.verify_blind(plan, inst)


def shared_verdict(cfg, params):
    plan = plan_shared(cfg.K, params["r"],
                       [cfg.pattern(p, 0) for p in range(cfg.K)], cfg.n)
    return lambda inst: verify_shared(plan, inst)


def ff3_verdict(cfg, params):
    plan = fastfading.plan_3user(cfg, params["epsilon"])
    return lambda inst: fastfading.verify_3user(plan, inst)


def ffk_verdict(cfg, params):
    plan = fastfading.plan_kuser(cfg, params["n_star"])
    return lambda inst: fastfading.verify_kuser(plan, inst)


@pytest.mark.parametrize("name, verdict", [
    ("blind", blind_verdict), ("pair", shared_verdict),
    ("dense", shared_verdict), ("ff3", ff3_verdict), ("ffk", ffk_verdict)],
    ids=["blind", "pair", "dense", "ff3", "ffk"])
@pytest.mark.parametrize("base_seed", [0, 1000])
def test_trial_total_is_the_verifiers_third_value(name, verdict, base_seed):
    # run_trials reports each verifier's (checks, measured, total_dof) as
    # it is; the plan is rebuilt here from the regime modules
    scenario = dataclasses.replace(SCENARIOS[name](trials=3),
                                   base_seed=base_seed)
    verify = verdict(scenario.config, scenario.params)
    for r in run_trials(scenario).results:
        checks, measured, total = verify(
            sample_network(scenario.config, r.seed))
        assert isinstance(total, Fraction)
        assert (r.checks, r.measured, r.total_dof) == \
            (checks, measured, total)


@pytest.mark.parametrize("make", [blind_scenario, shared_scenario,
                                  dense_scenario], ids=["blind", "pair",
                                                        "dense"])
def test_identity_received_matrix_is_the_product_bit_for_bit(make):
    scenario = make(trials=1)
    cfg = scenario.config
    precoders = ((scenario.plan.basis,) * cfg.K
                 if scenario.regime == "blind" else scenario.plan.precoders)
    for seed in range(5):
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


def with_direct(make, kind):
    """make's scenario with direct transforms of the given kind."""
    def build(trials=3):
        scenario = make(trials=trials)
        cfg = dataclasses.replace(scenario.config, direct_kind=kind,
                                  memory_distance=2)
        return dataclasses.replace(scenario, config=cfg)
    return build


# SHA-256 over the dtype, shape and bytes of every array handed to
# np.linalg.svd in call order, for three trials of each scenario at two
# base seeds: a change to how the verifiers build their stacks must keep
# every SVD input bit (the column normalization sums in memory order, so
# a stack laid out in another order may round differently)
GOLDEN_SVD_INPUT_SHA256 = {
    ("blind", 0): "d35a75840e18026a8b40536dec636ce40c022c2a54005df292ab2a41177eed5d",
    ("blind", 1000): "5d9d06b769cc6952de87d418d866c62f9457210cf867c1e760f17be8ea5f69f4",
    ("pair", 0): "51a7106c5af6771af172dd12b863c1a2b4ca560d839a6480632c4e71bfa13ebb",
    ("pair", 1000): "450daf8283e5ca49afddcdb059bea5a3a2d9ca337cc54e118ea10aae6cae1a0b",
    ("dense", 0): "db933eb15f1f61f762fd8741512460f396ead205d6d509c500aee6fdfb215b84",
    ("dense", 1000): "8706813b0e1178818c22ee5011e04cc5fb72d3dbeec38937b8193e6fdc81c856",
    ("ff3", 0): "b7a9454d2f789b71943ea58dad27e92baf2a02d70d70266733eac14be7ea140d",
    ("ff3", 1000): "16e81aaceae19a19a93efef0a83b306d69b96d145a49d5a8b1923f1a38285cf5",
    ("ffk", 0): "af1cbdb8a1047343db459fea813365761a15047df77d043569e4efbb8b85c75f",
    ("ffk", 1000): "ab8e9c108ffcb809c118b63ed2bd9f5b7138eb1045597cd2b903c3408b0d0d79",
    ("pair-memory", 0): "c8fe62151569e0f0c8fea54bb830eb0a7d1a82437b7fa71e89251c2c7c31ed69",
    ("pair-memory", 1000): "f2173fdd8cd65f7a48d7218bb99142639f2e4b4cfc5f02bcd198b1bce0cff9da",
}
SVD_SCENARIOS = {**SCENARIOS,
                 "pair-memory": with_direct(shared_scenario, "memory")}


@pytest.mark.parametrize("name, base_seed", list(GOLDEN_SVD_INPUT_SHA256),
                         ids=[f"{n}-{s}" for n, s in GOLDEN_SVD_INPUT_SHA256])
def test_svd_inputs_golden_bytes(monkeypatch, name, base_seed):
    svd, digest = np.linalg.svd, hashlib.sha256()

    def spy(a, *args, **kwargs):
        digest.update(f"{a.dtype.str}{a.shape};".encode() + a.tobytes())
        return svd(a, *args, **kwargs)

    scenario = dataclasses.replace(SVD_SCENARIOS[name](trials=3),
                                   base_seed=base_seed)
    monkeypatch.setattr(np.linalg, "svd", spy)
    run_trials(scenario)
    assert digest.hexdigest() == GOLDEN_SVD_INPUT_SHA256[(name, base_seed)]


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


@pytest.mark.parametrize("exc, message", [
    (ValueError("precoder of transmitter 2 has rank 1"),
     "trial seed 3: precoder of transmitter 2 has rank 1"),
    (ZeroDivisionError("singular system"),
     "trial seed 3: ZeroDivisionError: singular system")])
def test_trial_errors_name_the_seed(monkeypatch, exc, message):
    build, verify_blind = harness._REGIMES["blind"]

    def verify(plan, instance):
        if instance.seed == 3:
            raise exc
        return verify_blind(plan, instance)

    monkeypatch.setitem(harness._REGIMES, "blind", (build, verify))
    scenario = dataclasses.replace(blind_scenario(trials=3), base_seed=1)
    with pytest.raises(ValueError) as info:
        run_trials(scenario)
    assert str(info.value) == message and info.value.__cause__ is exc


def reference_aggregates(results):
    """pass_fraction and rank_stats as collected one name at a time, with
    Counter picking each mode."""
    checks = sorted({k for r in results for k in r.checks})
    pass_fraction = {
        name: sum(1 for r in results if r.checks.get(name)) / len(results)
        for name in checks}
    rank_stats = {}
    for name in sorted({k for r in results for k in r.measured}):
        nums = [r.measured[name] for r in results if name in r.measured
                and isinstance(r.measured[name], (int, float))
                and not isinstance(r.measured[name], bool)]
        if nums:
            mode = Counter(nums).most_common(1)[0][0]
            rank_stats[name] = (min(nums), max(nums), mode)
    return pass_fraction, rank_stats


# few distinct values, so that modes tie and ints meet equal floats
MEASURED = st.one_of(st.integers(0, 3), st.sampled_from([0.5, 1.0, 2.0]),
                     st.booleans(), st.just("n/a"))
TRIAL_OUTCOMES = st.lists(st.tuples(
    st.dictionaries(st.sampled_from(["alpha", "beta", "gamma"]),
                    st.booleans()),
    st.dictionaries(st.sampled_from(["rank", "dims", "flag", "note"]),
                    MEASURED)), min_size=1, max_size=8)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(TRIAL_OUTCOMES)
def test_one_pass_summary_matches_counter_reference(outcomes):
    saved = harness._REGIMES["blind"]

    def verify(plan, instance):
        checks, measured = outcomes[instance.seed]
        return checks, measured, Fraction(1)

    # hypothesis runs every example inside one call, so the patch is
    # undone by hand rather than by a function-scoped fixture
    harness._REGIMES["blind"] = (saved[0], verify)
    try:
        summary = run_trials(blind_scenario(trials=len(outcomes)))
    finally:
        harness._REGIMES["blind"] = saved
    pass_fraction, rank_stats = reference_aggregates(summary.results)
    assert summary.pass_fraction == pass_fraction
    assert summary.rank_stats == rank_stats
    reference = RunSummary(summary.regime, summary.trials, summary.results,
                           pass_fraction, rank_stats)
    assert summary_csv(summary) == summary_csv(reference)


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
