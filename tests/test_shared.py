"""Sharing-based schemes: closed-form bounds and the greedy construction."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignsim import shared
from alignsim.channel import ChangingPattern, sample_channel, sample_network
from alignsim.harness import Scenario, run_trials
from alignsim.shared import (best_sharing_degree, curve_f,
                             dense_demo_patterns, demo_network_config,
                             dof_table, dof_upper_bound, pair_demo_patterns, plan_shared, scheme_counts,
                             sharing_dof, verify_shared)


# ---------------------------------------------------------------------------
# closed-form bounds


def test_sharing_dof_exact_values():
    assert sharing_dof(2, 1) == 1
    assert sharing_dof(4, 2) == Fraction(4, 3)
    assert sharing_dof(4, 3) == Fraction(6, 5)
    assert isinstance(sharing_dof(7, 3), Fraction)


def test_best_sharing_degree_is_argmax():
    for K in range(1, 200):
        r_star = best_sharing_degree(K)
        best = max(sharing_dof(K, r) for r in range(1, K + 1))
        assert sharing_dof(K, r_star) == best
        # smallest integer r with r(r+1) >= K
        assert r_star * (r_star + 1) >= K
        assert r_star == 1 or (r_star - 1) * r_star < K


def test_dof_upper_bound_curve_and_trimming():
    b = dof_upper_bound(6)
    assert b.r_star == 2 and b.dof == Fraction(3, 2)
    assert len(b.per_r_curve) == 6
    big = dof_upper_bound(10**6)
    assert len(big.per_r_curve) == 101
    assert big.dof == Fraction(10**6, 1999)


def test_scheme_counts_matches_closed_form():
    for K in range(2, 12):
        for r in range(1, K):
            n, desired, total = scheme_counts(K, r)
            assert n == math.comb(K - 1, r) + r * math.comb(K - 1, r - 1)
            assert desired == math.comb(K - 1, r - 1)
            assert total == sharing_dof(K, r)
    with pytest.raises(ValueError):
        scheme_counts(4, 4)


def test_curve_f_matches_rational_at_integers():
    for K in (3, 8, 50):
        for x, v in curve_f(K, range(1, K + 1)):
            assert abs(v - float(sharing_dof(K, int(x)))) < 1e-12
    for K, xs in ((4, [0.0]), (4, [float("inf")]), (4, [float("nan")]),
                  (0, [1.0]), (-2, [2.0]), (0, [])):
        with pytest.raises(ValueError):
            curve_f(K, xs)


def test_dof_table_shape():
    rows = dof_table(1, 10)
    assert [row[0] for row in rows] == list(range(1, 11))
    assert rows[1] == (2, 1, Fraction(1))
    with pytest.raises(ValueError):
        dof_table(5, 4)


# ---------------------------------------------------------------------------
# greedy construction


def test_pair_demo_expected_shape():
    pats, n = pair_demo_patterns()
    plan = plan_shared(4, 2, pats, n)
    assert plan.expected_desired == (3, 2, 2, 2)
    assert plan.total_dof == Fraction(9, 8)
    # known window picks for this family
    supports = {v.vid: v.support for v in plan.vectors}
    assert supports[0] == (3, 4)        # pair (tx1, tx2)
    assert (1, 2) in supports.values()
    assert (7, 8) in supports.values()


def test_dense_demo_expected_shape():
    pats, n = dense_demo_patterns()
    plan = plan_shared(4, 2, pats, n)
    assert plan.expected_desired == (3, 3, 3, 3)
    assert plan.expected_used == (10, 10, 10, 10)
    assert plan.total_dof == Fraction(12, 10)
    kept = {v.subset: v.support for v in plan.vectors}
    assert kept == {(0, 1): (1, 2), (0, 2): (5, 6),
                    (1, 3): (7, 8), (2, 3): (3, 4)}
    assert plan.dropped == (2, 3)       # pairs (0,3) and (1,2) have no window
    # one fill row per transmitter, after its two window vectors
    assert plan.fill.shape == (4, n)
    assert [m.shape for m in plan.precoders] == [(n, 3)] * 4
    for t, m in enumerate(plan.precoders):
        assert m[:, 2].tobytes() == plan.fill[t].tobytes()


@pytest.mark.parametrize("factory", [pair_demo_patterns, dense_demo_patterns])
def test_demo_schemes_measure_as_constructed(factory):
    pats, n = factory()
    cfg = demo_network_config(pats, n)
    plan = plan_shared(4, 2, pats, n)
    for seed in range(25):
        inst = sample_network(cfg, seed=seed)
        measured = verify_shared(plan, inst)[1]
        desired = tuple(measured[f"desired_rx{p}"] for p in (1, 2, 3, 4))
        used = tuple(measured[f"used_rx{p}"] for p in (1, 2, 3, 4))
        assert desired == plan.expected_desired
        assert used == plan.expected_used
    summary = run_trials(Scenario("shared", cfg, {"r": 2}, trials=25))
    assert all(r.total_dof == plan.total_dof for r in summary.results)


def _same_vector(a, b):
    return (dataclasses.astuple(a)[:4] == dataclasses.astuple(b)[:4]
            and a.values.tobytes() == b.values.tobytes())


def _array_bytes(arrays):
    return [(m.shape, m.tobytes()) for m in arrays]


@pytest.mark.parametrize("factory", [pair_demo_patterns, dense_demo_patterns])
def test_equal_plans_are_byte_identical_and_read_only(factory):
    pats, n = factory()
    plan, again = plan_shared(4, 2, pats, n), plan_shared(4, 2, pats, n)
    for f in dataclasses.fields(plan):
        a, b = getattr(plan, f.name), getattr(again, f.name)
        if f.name == "vectors":
            assert len(a) == len(b)
            assert all(_same_vector(u, v) for u, v in zip(a, b))
        elif f.name == "fill":
            assert _array_bytes([a]) == _array_bytes([b])
        elif f.name == "precoders":
            assert _array_bytes(a) == _array_bytes(b)
        else:
            assert a == b, f.name
    # fill row i goes to transmitter i mod K, after its window vectors,
    # its values the next n draws of the plan key 6's generator once the
    # generic gains of every link are drawn
    rng = np.random.default_rng(6)
    for p in range(4):
        for _ in range(4):
            sample_channel(pats[p], rng)
    assert plan.fill.shape[1] == n
    for i, row in enumerate(plan.fill):
        t = i % 4
        width = sum(1 for v in plan.vectors if t in v.kept)
        assert row.tobytes() == rng.uniform(-1.0, 1.0, size=n).tobytes()
        assert plan.precoders[t][:, width + i // 4].tobytes() == \
            row.tobytes()
    # every trial shares the plan, which nothing can change
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.vectors[0].kept = ()
    for arr in ([v.values for v in plan.vectors] + [plan.fill]
                + list(plan.precoders)):
        assert not arr.flags.writeable


def test_constant_patterns_collapse_to_time_sharing():
    pats = [ChangingPattern(8, ()) for _ in range(4)]
    assert plan_shared(4, 2, pats, 8).total_dof == 1


def test_construct_validates_inputs():
    pats, n = pair_demo_patterns()
    with pytest.raises(ValueError):
        plan_shared(4, 0, pats, n)
    with pytest.raises(ValueError):
        plan_shared(3, 2, pats, n)       # wrong pattern count


def test_precoders_have_independent_columns():
    pats, n = dense_demo_patterns()
    plan = plan_shared(4, 2, pats, n)
    from alignsim.linalg import numeric_rank_by_shape
    assert numeric_rank_by_shape(dict(enumerate(plan.precoders))) == {
        t: mat.shape[1] for t, mat in enumerate(plan.precoders)}


def test_rank_deficient_precoder_names_its_transmitter(monkeypatch):
    def one_short_for_tx2(ms):
        return {t: m.shape[1] - (t == 1) for t, m in ms.items()}

    monkeypatch.setattr(shared, "numeric_rank_by_shape", one_short_for_tx2)
    pats, n = pair_demo_patterns()
    with pytest.raises(ValueError, match="precoder of transmitter 2 has rank"):
        plan_shared(4, 2, pats, n)


# ---------------------------------------------------------------------------
# the counts of random same-destination plans


@st.composite
def same_destination_configs(draw):
    """K in [3, 5], n in [K, 3K + 3], r in [1, K - 1] and one pattern per
    receiver, each slot 2..n a change point at a density of its own."""
    K = draw(st.integers(3, 5))
    n = draw(st.integers(K, 3 * K + 3))
    r = draw(st.integers(1, K - 1))
    patterns = []
    for _ in range(K):
        density = draw(st.integers(1, 9))
        patterns.append(ChangingPattern(n, tuple(
            c for c in range(2, n + 1) if draw(st.integers(0, 9)) < density)))
    return K, n, r, patterns


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=same_destination_configs())
def test_accepted_shared_scenarios_pass_every_check(case):
    # on identity links, a plan the shared Scenario accepts delivers the
    # dimensions it counts on every draw
    K, n, r, patterns = case
    try:
        scenario = Scenario("shared", demo_network_config(patterns, n),
                            {"r": r}, trials=4)
    except ValueError as exc:
        assert "alignment" in str(exc)
        return
    for res in run_trials(scenario).results:
        assert all(res.checks.values()), (res.seed, res.checks)


def run_rule_counts(plan, patterns):
    """Desired and used dimensions per receiver by the run-counting rule:
    a vector is one dimension at a receiver outside its subset, one per
    carrier at a carrier, and at a dropped member one per carrier up to the
    member's value-runs in the window; fills top the fullest receiver up
    to n.  Sound when no two window vectors share a slot."""
    K, n = plan.K, plan.n
    used, desired = [0] * K, [0] * K
    for v in plan.vectors:
        live = len(v.kept)
        for p in range(K):
            if p not in v.subset:
                used[p] += 1
            elif p in v.kept:
                used[p] += live
                desired[p] += 1
            else:
                used[p] += min(live,
                               shared._runs_in_window(patterns[p], v.support))
    fills = max(0, n - max(used))
    for i in range(fills):
        desired[i % K] += 1
    return tuple(desired), tuple(u + fills for u in used)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=same_destination_configs())
def test_plan_counts_follow_the_run_rule_on_disjoint_windows(case):
    # where the window vectors occupy pairwise disjoint slots the ranks the
    # plan counts are the construction's closed-form dimensions
    K, n, r, patterns = case
    plan = plan_shared(K, r, patterns, n)
    slots = [s for v in plan.vectors for s in v.support]
    if len(slots) == len(set(slots)):
        assert (plan.expected_desired, plan.expected_used) == \
            run_rule_counts(plan, patterns)
