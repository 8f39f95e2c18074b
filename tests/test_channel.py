"""Changing patterns, channel sampling, transforms, and network configs."""

import dataclasses
import json
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignsim import channel
from alignsim.blind import build_blind_scheme
from alignsim.channel import (H_MAX_DEFAULT, H_MIN_DEFAULT, ChangingPattern,
                              NetworkConfig, UnknownSet, _bounded_permutation,
                              _value_gap, constant_intervals,
                              direct_transform_matrix, mobility_rate,
                              sample_channel, sample_network,
                              separated_uniform, union_pattern)
from alignsim.decomposition import build_indexed_basis, build_power_basis
from alignsim.fastfading import _COMBO_CAP, _member_combos
from alignsim.linalg import numeric_rank


def test_pattern_sorts_and_dedupes():
    p = ChangingPattern(6, (5, 3, 3))
    assert p.change_points == (3, 5)


@pytest.mark.parametrize("pts", [(1,), (0,), (7,)])
def test_pattern_rejects_out_of_range(pts):
    with pytest.raises(ValueError):
        ChangingPattern(6, pts)


def test_constant_intervals_partition():
    p = ChangingPattern(8, (3, 4, 7))
    blocks = constant_intervals(p)
    assert blocks == [[1, 2], [3], [4, 5, 6], [7, 8]]
    assert sorted(s for b in blocks for s in b) == list(range(1, 9))


def test_constant_intervals_no_changes():
    assert constant_intervals(ChangingPattern(4, ())) == [[1, 2, 3, 4]]


def test_mobility_rate():
    assert mobility_rate(ChangingPattern(8, (3, 5))) == Fraction(2, 8)
    assert mobility_rate(ChangingPattern(5, ())) == 0


def test_union_pattern():
    a = ChangingPattern(6, (2, 4))
    b = ChangingPattern(6, (4, 5))
    assert union_pattern([a, b]).change_points == (2, 4, 5)
    with pytest.raises(ValueError):
        union_pattern([a, ChangingPattern(5, ())])
    with pytest.raises(ValueError):
        union_pattern([])


def test_sample_channel_changes_exactly_at_declared_points():
    rng = np.random.default_rng(0)
    for t in range(50):
        n = int(rng.integers(2, 15))
        k = int(rng.integers(0, n - 1))
        pts = tuple(sorted(rng.choice(range(2, n + 1), size=k, replace=False)))
        h = sample_channel(ChangingPattern(n, pts), seed=t)
        realized = tuple(i + 1 for i in range(1, n) if h[i] != h[i - 1])
        assert realized == tuple(sorted(set(pts)))


def test_sample_channel_globally_distinct_blocks():
    p = ChangingPattern(9, (3, 5, 7))
    h = sample_channel(p, seed=5, distinct_blocks="all")
    block_vals = [h[b[0] - 1] for b in constant_intervals(p)]
    assert len(set(block_vals)) == len(block_vals)


def test_sample_channel_range_and_determinism():
    p = ChangingPattern(10, (4,))
    a = sample_channel(p, seed=3, h_min=0.5, h_max=2.0)
    b = sample_channel(p, seed=3)
    assert np.array_equal(a, b)
    assert np.all((a >= 0.5) & (a <= 2.0))


def assert_separated(vals, count, avoid):
    vals = np.asarray(vals)
    gap = _value_gap(count + len(avoid))
    assert vals.size == count
    assert np.all((vals >= 0.5) & (vals < 2.0))
    assert np.all(np.diff(np.sort(vals)) >= gap)
    for a in avoid:
        assert np.all(np.abs(vals - a) >= gap)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(count=st.integers(0, 300), avoid=st.sampled_from([(), (1.0,)]),
       seed=st.integers(0, 2**32 - 1))
def test_separated_uniform_keeps_the_derived_gap(count, avoid, seed):
    vals = separated_uniform(np.random.default_rng(seed), count, avoid=avoid)
    assert_separated(vals, count, avoid)


def test_separated_uniform_returns_past_the_fixed_gap_jam():
    # a fixed 0.01 gap jams near 0.75 * 1.5 / 0.01 = 112 values
    vals = separated_uniform(np.random.default_rng(0), 120, avoid=(1.0,))
    assert_separated(vals, 120, (1.0,))


def test_unknown_set_validation():
    UnknownSet(5, frozenset({1, 5}))
    with pytest.raises(ValueError):
        UnknownSet(5, frozenset({0}))
    with pytest.raises(ValueError):
        UnknownSet(5, frozenset({6}))


@pytest.mark.parametrize("kind", ["identity", "memory", "permutation"])
def test_direct_transform_full_rank(kind):
    for seed in range(10):
        t = direct_transform_matrix(kind, 3, 8, seed)
        assert numeric_rank(t.matrix) == 8
        assert t.kind == kind


def test_memory_transform_is_banded_lower_triangular():
    t = direct_transform_matrix("memory", 2, 7, 0)
    m = t.matrix
    for row in range(7):
        for col in range(7):
            if col > row or col < row - 2:
                assert m[row, col] == 0.0


def test_permutation_transform_displacement_bounded():
    for seed in range(20):
        t = direct_transform_matrix("permutation", 2, 9, seed)
        cols = np.argmax(t.matrix != 0, axis=1)
        assert np.all(np.abs(cols - np.arange(9)) <= 2)
        assert sorted(cols.tolist()) == list(range(9))


def test_direct_transform_validation():
    with pytest.raises(ValueError):
        direct_transform_matrix("memory", 0, 5, 0)
    with pytest.raises(ValueError):
        direct_transform_matrix("wavelet", 1, 5, 0)


@pytest.mark.parametrize("kind, fault", [("memory", "zero on its diagonal"),
                                         ("permutation", "scaled permutation")])
def test_direct_transform_structure_check_raises(monkeypatch, kind, fault):
    # all-zero gains break the structure that makes a transform nonsingular
    monkeypatch.setattr(channel, "H_MIN_DEFAULT", 0.0)
    monkeypatch.setattr(channel, "H_MAX_DEFAULT", 0.0)
    with pytest.raises(ValueError, match=fault):
        direct_transform_matrix(kind, 2, 6, 0)


def test_network_config_json_round_trip(tmp_path):
    cfg = NetworkConfig(K=2, n=4, patterns=[[[2], [3]], [[], [2, 4]]],
                        unknown=[[[], [1]], [[2], []]],
                        direct_kind="memory", memory_distance=2, seed=9)
    path = tmp_path / "cfg.json"
    cfg.save(path)
    loaded = NetworkConfig.load(path)
    assert loaded == cfg
    raw = json.loads(path.read_text())
    for key in ("K", "n", "h_min", "h_max", "patterns", "unknown",
                "direct_kind", "memory_distance", "seed"):
        assert key in raw


def test_network_config_shape_validation():
    with pytest.raises(ValueError):
        NetworkConfig(K=2, n=4, patterns=[[[]]])


@pytest.mark.parametrize("h_min, h_max", [
    (np.inf, 2.0), (0.5, np.inf), (np.nan, 2.0), (0.5, np.nan), (2.0, 2.0),
    (2.0, 0.5), (-1e308, 1e308)])
def test_network_config_rejects_a_bad_gain_range(h_min, h_max):
    # gains are drawn on [h_min, h_max), which must be finite and non-empty
    with pytest.raises(ValueError, match="h_min < h_max"):
        NetworkConfig(K=1, n=2, patterns=[[[2]]], h_min=h_min, h_max=h_max)
    assert NetworkConfig(K=1, n=2, patterns=[[[2]]], h_min=-1e307,
                         h_max=1e307).h_max == 1e307


@pytest.mark.parametrize("key, value", [
    ("K", 2.5), ("n", True), ("memory_distance", "2"), ("seed", 1.5)])
def test_network_config_rejects_non_integer_fields(key, value):
    raw = {"K": 2, "n": 4, "patterns": [[[2], [3]], [[], [2, 4]]]}
    assert NetworkConfig.from_dict({**raw, "n": 4.0}).n == 4
    with pytest.raises(ValueError, match=f"invalid {key}"):
        NetworkConfig.from_dict({**raw, key: value})


def test_network_config_builds_its_tables_once():
    cfg = NetworkConfig(K=2, n=4, patterns=[[[2], [3]], [[], [4, 2]]],
                        unknown=[[[], [1]], [[2], []]])
    assert cfg.pattern(0, 1) is cfg.pattern(0, 1)
    assert cfg.pattern(1, 1) == ChangingPattern(4, (2, 4))
    assert cfg.unknown_set(0, 1) is cfg.unknown_set(0, 1)
    assert cfg.unknown_set(1, 0) == UnknownSet(4, frozenset({2}))
    inst = sample_network(cfg)
    assert inst.pattern(1, 1) is cfg.pattern(1, 1)
    assert inst.unknown_set(0, 1) is cfg.unknown_set(0, 1)
    for field, value in (("direct_kind", "memory"), ("seed", 1),
                         ("patterns", [[[], []], [[], []]])):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field, value)
    # equal cells share one object
    same = NetworkConfig(K=2, n=4, patterns=[[[3], [3]], [[3], [2]]])
    assert same.pattern(0, 1) is same.pattern(1, 0) is same.pattern(0, 0)
    assert same.unknown_set(0, 1) is same.unknown_set(1, 1)
    # a missing unknown is one shared immutable nest of empty cells, and
    # it serializes as before
    other = NetworkConfig(K=2, n=4, patterns=[[[2], [2]], [[2], [2]]])
    assert same.unknown[0] is same.unknown[1]
    assert same.unknown[0][1] is other.unknown[1][0] == ()
    assert same.to_dict()["unknown"] == [[[], []], [[], []]]
    # a replaced config builds its own tables
    moved = dataclasses.replace(cfg, n=5)
    assert moved.pattern(0, 1) == ChangingPattern(5, (3,))


@pytest.mark.parametrize("patterns, unknown", [
    ([[[5], []], [[], []]], None),                      # change point past n
    ([[[], [1]], [[], []]], None),                      # change point at 1
    ([[[], []], [[], []]], [[[], [0]], [[], []]]),      # hidden slot 0
    ([[[], []], [[], []]], [[[], []], [[5], []]]),      # hidden slot past n
])
def test_network_config_rejects_out_of_range_slots_at_construction(patterns,
                                                                   unknown):
    with pytest.raises(ValueError, match="must lie in"):
        NetworkConfig(K=2, n=4, patterns=patterns, unknown=unknown)


@pytest.mark.parametrize("kind, per_receiver", [
    ("identity", 0), ("memory", 1), ("permutation", 1)])
@pytest.mark.parametrize("K", [2, 3, 4])
def test_sample_network_seeds_one_generator_per_draw_source(monkeypatch, kind,
                                                           per_receiver, K):
    # one per link, plus one per receiver transform that draws anything:
    # an identity transform draws nothing and seeds no generator
    seeded = []
    default_rng = np.random.default_rng

    def spy(*args, **kwargs):
        seeded.append(args)
        return default_rng(*args, **kwargs)

    cfg = NetworkConfig(K=K, n=6, patterns=[[[2, 4]] * K] * K,
                        direct_kind=kind, memory_distance=2)
    monkeypatch.setattr(np.random, "default_rng", spy)
    inst = sample_network(cfg, seed=3)
    assert len(seeded) == K * K + per_receiver * K
    if kind == "identity":
        assert all(np.array_equal(t.matrix, np.eye(6))
                   for t in inst.transforms)


def test_channel_array_is_read_only_and_equals_values():
    # gains and basis families are plain float64 arrays, shared without
    # copies, so every one of them refuses writes
    p = ChangingPattern(6, (3, 5))
    h = sample_channel(p, seed=2)
    assert h.dtype == np.float64 and h.shape == (6,)
    assert tuple(h.tolist()) == scalar_sample_channel(p, 2, "consecutive")
    power = build_power_basis(p, seed=2)
    gen = sample_channel(p, seed=2, distinct_blocks="all")
    assert power.members.shape == (3, 6) and power.n == 6
    assert np.array_equal(power.members[2], gen ** 3)
    indexed = build_indexed_basis(h, UnknownSet(6, frozenset({2})), seed=2)
    assert indexed.members.shape == (2, 6)
    scheme = build_blind_scheme(ChangingPattern(4, (3,)), 1, 3, seed=0)
    basis = scheme.interference_basis
    assert all(v is basis for v in scheme.precoders)
    inst = sample_network(NetworkConfig(K=2, n=6, patterns=[[[3]] * 2] * 2))
    for arr in (h, power.members, indexed.members, basis,
                inst.channel(0, 1)):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_sample_network_deterministic_and_link_independent():
    cfg = NetworkConfig(K=3, n=6, patterns=[[[2, 4]] * 3] * 3, seed=1)
    a = sample_network(cfg, seed=5)
    b = sample_network(cfg, seed=5)
    for p in range(3):
        for q in range(3):
            assert np.array_equal(a.channel(p, q), b.channel(p, q))
    vals = {tuple(a.channel(p, q)) for p in range(3) for q in range(3)}
    assert len(vals) == 9  # links draw independent gains


def test_received_matrix_applies_transform_only_on_direct_link():
    cfg = NetworkConfig(K=2, n=5, patterns=[[[3], [3]], [[3], [3]]],
                        direct_kind="memory", memory_distance=2, seed=2)
    inst = sample_network(cfg, seed=0)
    x = np.eye(5)
    direct = inst.received_matrix(0, 0, x)
    cross = inst.received_matrix(0, 1, x)
    h00 = inst.channel(0, 0)[:, None]
    h01 = inst.channel(0, 1)[:, None]
    assert np.allclose(direct, h00 * (inst.transforms[0].matrix @ x))
    assert np.allclose(cross, h01 * x)


# One-value-at-a-time references of the batched samplers: each must give
# the same values and leave its generator in the same state.


def scalar_sample_channel(p, seed, distinct_blocks):
    rng = np.random.default_rng(seed)
    blocks = constant_intervals(p)
    gap = _value_gap(len(blocks))
    vals = []
    for _ in blocks:
        v = float(rng.uniform(H_MIN_DEFAULT, H_MAX_DEFAULT))
        while (vals and abs(v - vals[-1]) < gap) or (
                distinct_blocks == "all"
                and any(abs(v - u) < gap for u in vals)):
            v = float(rng.uniform(H_MIN_DEFAULT, H_MAX_DEFAULT))
        vals.append(v)
    out = np.empty(p.n)
    for v, block in zip(vals, blocks):
        for slot in block:
            out[slot - 1] = v
    return tuple(out)


def scalar_separated_uniform(rng, count, avoid):
    gap = _value_gap(count + len(avoid))
    vals = []
    while len(vals) < count:
        v = float(rng.uniform(H_MIN_DEFAULT, H_MAX_DEFAULT))
        if all(abs(v - u) >= gap for u in vals) and \
                all(abs(v - a) >= gap for a in avoid):
            vals.append(v)
    return vals


def scalar_direct_transform(kind, distance, n, seed):
    rng = np.random.default_rng(seed)
    mat = np.zeros((n, n))
    if kind == "memory":
        for row in range(n):
            for col in range(max(0, row - distance), row + 1):
                mat[row, col] = rng.uniform(H_MIN_DEFAULT, H_MAX_DEFAULT)
    else:
        perm = _bounded_permutation(n, distance, rng)
        diag = rng.uniform(H_MIN_DEFAULT, H_MAX_DEFAULT, size=n)
        for row, col in enumerate(perm):
            mat[row, col] = diag[col]
    return mat


def scalar_member_combos(sizes, rng):
    total = int(np.prod(sizes))
    if total <= _COMBO_CAP:
        return list(product(*(range(s) for s in sizes)))
    picks = {tuple(int(rng.integers(0, s)) for s in sizes)
             for _ in range(_COMBO_CAP)}
    return sorted(picks)


@st.composite
def patterns(draw, max_n=40):
    n = draw(st.integers(1, max_n))
    pts = draw(st.sets(st.integers(2, n), max_size=n)) if n > 1 else set()
    return ChangingPattern(n, tuple(pts))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(p=patterns(), seed=st.integers(0, 2**32 - 1),
       distinct_blocks=st.sampled_from(["consecutive", "all"]))
def test_batched_sample_channel_matches_scalar_loop(p, seed, distinct_blocks):
    h = sample_channel(p, seed, distinct_blocks=distinct_blocks)
    assert tuple(h.tolist()) == scalar_sample_channel(p, seed, distinct_blocks)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(count=st.integers(0, 150), avoid=st.sampled_from([(), (1.0,)]),
       seed=st.integers(0, 2**32 - 1))
def test_batched_separated_uniform_matches_scalar_loop(count, avoid, seed):
    batched, scalar = (np.random.default_rng(seed) for _ in range(2))
    vals = separated_uniform(batched, count, avoid=avoid)
    assert vals == scalar_separated_uniform(scalar, count, avoid)
    # the generator is shared with later draws: its next draw must agree
    assert batched.uniform() == scalar.uniform()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(kind=st.sampled_from(["memory", "permutation"]),
       n=st.integers(2, 60), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_batched_direct_transform_matches_scalar_loop(kind, n, data, seed):
    distance = data.draw(st.integers(1, n - 1))
    mat = direct_transform_matrix(kind, distance, n, seed).matrix
    ref = scalar_direct_transform(kind, distance, n, seed)
    assert mat.tobytes() == ref.tobytes()


def test_large_memory_transform_needs_no_float_rank():
    # at n = 101 the banded matrices are nonsingular but so ill-conditioned
    # that a float rank test rejects some of them
    for seed in range(20):
        t = direct_transform_matrix("memory", 50, 101, seed)
        assert np.all(np.diagonal(t.matrix) >= H_MIN_DEFAULT)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(sizes=st.lists(st.integers(1, 9), min_size=1, max_size=6),
       L=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_batched_member_combos_and_exponents_match_scalar_draws(sizes, L,
                                                                seed):
    fams = {k: SimpleNamespace(members=range(s)) for k, s in enumerate(sizes)}
    batched, scalar = (np.random.default_rng(seed) for _ in range(2))
    combos = _member_combos(fams, list(fams), batched)
    ref = scalar_member_combos(sizes, scalar)
    assert [tuple(c) for c in combos.tolist()] == ref
    jps = batched.integers(1, L + 2, size=len(combos))
    assert jps.tolist() == [int(scalar.integers(1, L + 2)) for _ in ref]
    assert batched.uniform() == scalar.uniform()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(sizes=st.lists(st.integers(1, 60), min_size=1, max_size=7),
       seed=st.integers(0, 2**32 - 1))
def test_member_combos_dedupe_equals_unique_rows(sizes, seed):
    # the mixed-radix dedupe gives np.unique(draw, axis=0) of the same draw
    fams = {k: SimpleNamespace(members=range(s)) for k, s in enumerate(sizes)}
    batched, ref = (np.random.default_rng(seed) for _ in range(2))
    combos = _member_combos(fams, list(fams), batched)
    if np.prod(sizes) <= _COMBO_CAP:
        want = np.indices(sizes).reshape(len(sizes), -1).T
    else:
        want = np.unique(ref.integers(0, sizes, size=(_COMBO_CAP, len(sizes))),
                         axis=0)
    assert combos.shape == want.shape and combos.dtype == want.dtype
    assert np.array_equal(combos, want)
    assert batched.uniform() == ref.uniform()
