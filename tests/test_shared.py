"""Sharing-based schemes: closed-form bounds and the greedy construction."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from alignsim import shared
from alignsim.channel import sample_network
from alignsim.harness import Scenario, run_trials
from alignsim.shared import (best_sharing_degree, construct_shared, curve_f,
                             dense_demo_patterns, demo_network_config,
                             dof_table, dof_upper_bound, draw_shared,
                             pair_demo_patterns, plan_shared, scheme_counts,
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
    plan = construct_shared(4, 2, pats, n, seed=0).plan
    assert plan.expected_desired == (3, 2, 2, 2)
    assert plan.total_dof == Fraction(9, 8)
    # known window picks for this family
    supports = {v.vid: v.support for v in plan.vectors}
    assert supports[0] == (3, 4)        # pair (tx1, tx2)
    assert (1, 2) in supports.values()
    assert (7, 8) in supports.values()


def test_dense_demo_expected_shape():
    pats, n = dense_demo_patterns()
    scheme = construct_shared(4, 2, pats, n, seed=0)
    plan = scheme.plan
    assert plan.expected_desired == (3, 3, 3, 3)
    assert plan.expected_used == (10, 10, 10, 10)
    assert plan.total_dof == Fraction(12, 10)
    kept = {v.subset: v.support for v in plan.vectors}
    assert kept == {(0, 1): (1, 2), (0, 2): (5, 6),
                    (1, 3): (7, 8), (2, 3): (3, 4)}
    assert plan.dropped == (2, 3)       # pairs (0,3) and (1,2) have no window
    # one fill row per transmitter, after its two window vectors
    assert scheme.fill.shape == (4, n)
    assert [m.shape for m in scheme.precoders] == [(n, 3)] * 4
    for t, m in enumerate(scheme.precoders):
        assert m[:, 2].tobytes() == scheme.fill[t].tobytes()


@pytest.mark.parametrize("factory", [pair_demo_patterns, dense_demo_patterns])
def test_demo_schemes_measure_as_constructed(factory):
    pats, n = factory()
    cfg = demo_network_config(pats, n)
    scheme = None
    for seed in range(25):
        scheme = construct_shared(4, 2, pats, n, seed)
        inst = sample_network(cfg, seed=seed)
        measured = verify_shared(scheme, inst)[1]
        desired = tuple(measured[f"desired_rx{p}"] for p in (1, 2, 3, 4))
        used = tuple(measured[f"used_rx{p}"] for p in (1, 2, 3, 4))
        assert desired == scheme.plan.expected_desired
        assert used == scheme.plan.expected_used
    summary = run_trials(Scenario("shared", cfg, {"r": 2}, trials=25))
    assert all(r.total_dof == scheme.plan.total_dof for r in summary.results)


def _same_vector(a, b):
    return (dataclasses.astuple(a)[:4] == dataclasses.astuple(b)[:4]
            and a.values.tobytes() == b.values.tobytes())


def _array_bytes(arrays):
    return [(m.shape, m.tobytes()) for m in arrays]


@pytest.mark.parametrize("factory", [pair_demo_patterns, dense_demo_patterns])
def test_construct_shared_is_one_plan_drawn_per_seed(factory):
    pats, n = factory()
    plan = plan_shared(4, 2, pats, n)
    for seed in range(10):
        want = construct_shared(4, 2, pats, n, seed)
        got = draw_shared(plan, seed)
        assert got.plan is plan
        for f in dataclasses.fields(plan):
            a, b = getattr(want.plan, f.name), getattr(plan, f.name)
            if f.name == "vectors":
                assert len(a) == len(b)
                assert all(_same_vector(u, v) for u, v in zip(a, b))
            elif f.name == "window_columns":
                assert _array_bytes(a) == _array_bytes(b)
            else:
                assert a == b, f.name
        assert (_array_bytes([want.fill, *want.precoders])
                == _array_bytes([got.fill, *got.precoders]))
        # fill row i goes to transmitter i mod K, after its window
        # vectors, its values the generator's next n draws
        rng = np.random.default_rng(seed)
        assert got.fill.shape == (plan.fill_count, n)
        for i, row in enumerate(got.fill):
            t, width = i % 4, plan.window_columns[i % 4].shape[1]
            assert row.tobytes() == rng.uniform(-1.0, 1.0, size=n).tobytes()
            assert got.precoders[t][:, width + i // 4].tobytes() == \
                row.tobytes()
        assert not got.fill.flags.writeable
    # every draw shares the plan, which nothing can change
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.vectors[0].kept = ()
    for arr in [v.values for v in plan.vectors] + list(plan.window_columns):
        assert not arr.flags.writeable


def test_constant_patterns_collapse_to_time_sharing():
    from alignsim.channel import ChangingPattern
    pats = [ChangingPattern(8, ()) for _ in range(4)]
    assert construct_shared(4, 2, pats, 8, seed=0).plan.total_dof == 1


def test_construct_validates_inputs():
    pats, n = pair_demo_patterns()
    with pytest.raises(ValueError):
        construct_shared(4, 0, pats, n)
    with pytest.raises(ValueError):
        construct_shared(3, 2, pats, n)       # wrong pattern count


def test_precoders_have_independent_columns():
    pats, n = dense_demo_patterns()
    scheme = construct_shared(4, 2, pats, n, seed=1)
    from alignsim.linalg import numeric_rank
    for mat in scheme.precoders:
        assert numeric_rank(mat) == mat.shape[1]


def test_rank_deficient_precoder_names_its_transmitter(monkeypatch):
    def one_short_for_tx2(ms):
        return [m.shape[1] - (i == 1) for i, m in enumerate(ms)]

    monkeypatch.setattr(shared, "numeric_rank_by_shape", one_short_for_tx2)
    pats, n = pair_demo_patterns()
    with pytest.raises(ValueError, match="precoder of transmitter 2 has rank"):
        construct_shared(4, 2, pats, n, seed=0)
