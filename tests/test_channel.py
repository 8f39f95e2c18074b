"""Changing patterns, channel sampling, transforms, and network configs."""

import dataclasses
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignsim import channel
from alignsim.blind import plan_blind
from alignsim.channel import (H_MAX_DEFAULT, H_MIN_DEFAULT, ChangingPattern,
                              NetworkConfig, UnknownSet, _bounded_permutation,
                              _value_gap, constant_intervals,
                              direct_transform_matrix, sample_channel,
                              sample_network, separated_uniform,
                              union_pattern)
from alignsim.decomposition import build_indexed_basis, build_power_basis
from alignsim.linalg import numeric_rank_by_shape


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


def test_power_basis_generator_has_globally_distinct_blocks():
    p = ChangingPattern(9, (3, 5, 7))
    gen = build_power_basis(p, seed=5).members[0]
    block_vals = [gen[b[0] - 1] for b in constant_intervals(p)]
    assert len(set(block_vals)) == len(block_vals)


def test_sample_channel_range_and_determinism():
    p = ChangingPattern(10, (4,))
    a = sample_channel(p, seed=3)
    b = sample_channel(p, seed=3)
    assert np.array_equal(a, b)
    assert np.all((a >= 0.5) & (a <= 2.0))


def assert_separated(vals, count):
    vals = np.asarray(vals)
    assert vals.size == count
    assert np.all((vals >= 0.5) & (vals < 2.0))
    assert np.all(np.diff(np.sort(vals)) >= _value_gap(count))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(count=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
def test_separated_uniform_keeps_the_derived_gap(count, seed):
    vals = separated_uniform(np.random.default_rng(seed), count)
    assert_separated(vals, count)


def test_separated_uniform_returns_past_the_fixed_gap_jam():
    # a fixed 0.01 gap jams near 0.75 * 1.5 / 0.01 = 112 values
    vals = separated_uniform(np.random.default_rng(0), 120)
    assert_separated(vals, 120)


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
        assert numeric_rank_by_shape({"t": t.matrix}) == {"t": 8}
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


def test_network_config_json_round_trip():
    cfg = NetworkConfig(K=2, n=4, patterns=[[[2], [3]], [[], [2, 4]]],
                        unknown=[[[], [1]], [[2], []]],
                        direct_kind="memory", memory_distance=2)
    raw = json.loads(json.dumps(cfg.to_dict()))
    assert NetworkConfig.from_dict(raw) == cfg
    assert sorted(raw) == sorted(("K", "n", "patterns", "unknown",
                                  "direct_kind", "memory_distance"))


def test_network_config_shape_validation():
    with pytest.raises(ValueError):
        NetworkConfig(K=2, n=4, patterns=[[[]]])


@pytest.mark.parametrize("key, value", [
    ("K", 2.5), ("n", True), ("memory_distance", "2")])
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
    inst = sample_network(cfg, 0)
    assert inst.unknown_set(0, 1) is cfg.unknown_set(0, 1)
    for field, value in (("direct_kind", "memory"), ("K", 3),
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
    # sampling seeds one generator, for every link at once; reading a link
    # seeds nothing, and a receiver's transform seeds its own the first
    # time it is read (an identity transform draws nothing and seeds none)
    cfg = NetworkConfig(K=K, n=6, patterns=[
        [[[2, 4], [3]][(p + q) % 2] for q in range(K)] for p in range(K)],
        direct_kind=kind, memory_distance=2)
    links = [(p, q) for p in range(K) for q in range(K)]
    # the links take one stream in row-major order, the transforms their
    # own streams keyed [seed, 3, p], in any read order
    rng = np.random.default_rng([3, 1])
    want = {("link", pq): sample_channel(cfg.pattern(*pq), rng)
            for pq in links}
    want.update({("transform", p): direct_transform_matrix(
        kind, 2, 6, [3, 3, p]) for p in range(K)})
    order = list(want)
    random.Random(K).shuffle(order)
    seeded = []
    default_rng = np.random.default_rng

    def spy(*args, **kwargs):
        seeded.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", spy)
    inst = sample_network(cfg, seed=3)
    assert seeded == [([3, 1],)]
    assert inst.gains.shape == (K * K, 6) and not inst.gains.flags.writeable
    for source, key in order:
        before = len(seeded)
        if source == "link":
            first = inst.channel(*key)
            # a row of the one gains array, never a copy
            assert np.shares_memory(first, inst.gains)
            assert first.tobytes() == want[source, key].tobytes()
            assert first.tobytes() == inst.gains[key[0] * K + key[1]].tobytes()
            assert len(seeded) == before
            continue
        first = inst.transforms[key]
        assert len(seeded) == before + per_receiver
        assert inst.transforms[key] is first
        assert len(seeded) == before + per_receiver
        expected = want[source, key]
        assert (first.kind, first.distance) == (expected.kind,
                                                expected.distance)
        assert first.matrix.tobytes() == expected.matrix.tobytes()
        if kind == "identity":
            assert np.array_equal(first.matrix, np.eye(6))
    assert len(seeded) == 1 + K * per_receiver
    for key in [(K, 0), (0, K), (-1, 0), (0, -1)]:
        with pytest.raises(KeyError):
            inst.channel(*key)
    with pytest.raises(KeyError):
        inst.transforms[K]
    with pytest.raises(KeyError):
        inst.transforms[-1]


def test_identity_transform_is_one_read_only_object_per_config(monkeypatch):
    seeded = []
    default_rng = np.random.default_rng

    def spy(*args, **kwargs):
        seeded.append(args)
        return default_rng(*args, **kwargs)

    cfg = NetworkConfig(K=3, n=6, patterns=[[[2, 4]] * 3] * 3)
    other = NetworkConfig(K=3, n=6, patterns=[[[2, 4]] * 3] * 3)
    monkeypatch.setattr(np.random, "default_rng", spy)
    insts = [sample_network(cfg, seed) for seed in range(4)]
    before = len(seeded)
    found = {id(inst.transforms[p]) for inst in insts for p in range(3)}
    assert len(seeded) == before      # reading it seeds nothing
    assert len(found) == 1
    t = insts[0].transforms[0]
    assert (t.kind, t.distance) == ("identity", 0)
    assert t.matrix.tobytes() == np.eye(6).tobytes()
    assert not t.matrix.flags.writeable
    with pytest.raises(ValueError):
        t.matrix[0, 1] = 1.0
    # configs do not share it
    assert sample_network(other, 0).transforms[0] is not t


def test_channel_array_is_read_only_and_equals_values():
    # gains and basis families are plain float64 arrays, shared without
    # copies, so every one of them refuses writes
    p = ChangingPattern(6, (3, 5))
    h = sample_channel(p, seed=2)
    assert h.dtype == np.float64 and h.shape == (6,)
    assert tuple(h.tolist()) == scalar_sample_channel(p, 2)
    power = build_power_basis(p, seed=2)
    gen = power.members[0]
    assert power.members.shape == (3, 6) and power.n == 6
    assert np.array_equal(power.members[2], gen ** 3)
    indexed = build_indexed_basis(h, UnknownSet(6, frozenset({2})), seed=2)
    assert indexed.members.shape == (2, 6)
    basis = plan_blind(ChangingPattern(4, (3,)), 1, ()).basis
    inst = sample_network(
        NetworkConfig(K=2, n=6, patterns=[[[3]] * 2] * 2), 0)
    for arr in (h, power.members, indexed.members, basis,
                inst.channel(0, 1)):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_sample_network_deterministic_and_link_independent():
    cfg = NetworkConfig(K=3, n=6, patterns=[[[2, 4]] * 3] * 3)
    a = sample_network(cfg, seed=5)
    b = sample_network(cfg, seed=5)
    for p in range(3):
        for q in range(3):
            assert np.array_equal(a.channel(p, q), b.channel(p, q))
    vals = {tuple(a.channel(p, q)) for p in range(3) for q in range(3)}
    assert len(vals) == 9  # links draw independent gains
    # instances compare by identity, not by the links drawn so far
    other = dataclasses.replace(cfg, patterns=[[[3]] * 3] * 3)
    assert sample_network(other, 5) != sample_network(cfg, 5)
    assert a == a and a != b


def test_received_matrix_applies_transform_only_on_direct_link():
    cfg = NetworkConfig(K=2, n=5, patterns=[[[3], [3]], [[3], [3]]],
                        direct_kind="memory", memory_distance=2)
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


def scalar_sample_channel(p, seed):
    rng = np.random.default_rng(seed)
    blocks = constant_intervals(p)
    gap = _value_gap(len(blocks))
    vals = []
    for _ in blocks:
        v = float(rng.uniform(H_MIN_DEFAULT, H_MAX_DEFAULT))
        while vals and abs(v - vals[-1]) < gap:
            v = float(rng.uniform(H_MIN_DEFAULT, H_MAX_DEFAULT))
        vals.append(v)
    out = np.empty(p.n)
    for v, block in zip(vals, blocks):
        for slot in block:
            out[slot - 1] = v
    return tuple(out)


def scalar_separated_uniform(rng, count):
    gap = _value_gap(count)
    vals = []
    while len(vals) < count:
        v = float(rng.uniform(H_MIN_DEFAULT, H_MAX_DEFAULT))
        if all(abs(v - u) >= gap for u in vals):
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


@st.composite
def patterns(draw, max_n=40):
    n = draw(st.integers(1, max_n))
    pts = draw(st.sets(st.integers(2, n), max_size=n)) if n > 1 else set()
    return ChangingPattern(n, tuple(pts))


@st.composite
def crowded_patterns(draw, max_n=150):
    """Patterns whose block counts spread evenly over 1..n, so that many
    have more than 74 blocks and a gap below MIN_VALUE_GAP."""
    n = draw(st.integers(1, max_n))
    blocks = draw(st.integers(1, n))
    rnd = draw(st.randoms(use_true_random=False))
    return ChangingPattern(n, tuple(rnd.sample(range(2, n + 1), blocks - 1)))


# Patterns of up to 150 blocks: past 74 blocks the gap shrinks to
# 1.5 / (2 * blocks + 2), so a draw is rejected with probability near
# 1 / (blocks + 1) and most such patterns redraw at least once.
@settings(derandomize=True, max_examples=300, deadline=None)
@given(p=crowded_patterns(), seed=st.integers(0, 2**32 - 1))
def test_batched_sample_channel_matches_scalar_loop(p, seed):
    # each value equals the one-draw-at-a-time loop over numpy's stream, so
    # a numpy whose uniform stream changes fails here
    h = sample_channel(p, seed)
    assert tuple(h.tolist()) == scalar_sample_channel(p, seed)


@st.composite
def crowded_configs(draw, max_n=100):
    """A config of 1 to 3 users whose links draw their block counts as
    crowded_patterns does, over one n."""
    K, n = draw(st.integers(1, 3)), draw(st.integers(1, max_n))
    rnd = draw(st.randoms(use_true_random=False))
    return NetworkConfig(K=K, n=n, patterns=[
        [rnd.sample(range(2, n + 1), draw(st.integers(0, n - 1)))
         for _ in range(K)] for _ in range(K)])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(cfg=crowded_configs(), seed=st.integers(0, 2**32 - 1))
def test_network_gains_match_scalar_loop_over_links(cfg, seed):
    # one generator, keyed [seed, 1], gives every link in (p, q) order and
    # each link's blocks in slot order, one draw at a time, each block
    # redrawn until it clears the gap to the last value kept on its link
    scalar = np.random.default_rng([seed, 1])
    want = [scalar_sample_channel(cfg.pattern(p, q), scalar)
            for p in range(cfg.K) for q in range(cfg.K)]
    gains = sample_network(cfg, seed).gains
    assert gains.shape == (cfg.K ** 2, cfg.n) and not gains.flags.writeable
    assert [tuple(row) for row in gains.tolist()] == want
    # and leaves the stream where the scalar loop does
    batched = np.random.default_rng([seed, 1])
    channel._draw_gains(*cfg._blocks, cfg.n, batched)
    assert batched.uniform() == scalar.uniform()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(count=st.integers(0, 150), seed=st.integers(0, 2**32 - 1))
def test_batched_separated_uniform_matches_scalar_loop(count, seed):
    batched, scalar = (np.random.default_rng(seed) for _ in range(2))
    vals = separated_uniform(batched, count)
    assert vals == scalar_separated_uniform(scalar, count)
    # the generator is shared with later draws: its next draw must agree
    assert batched.uniform() == scalar.uniform()


@st.composite
def ragged_hidden_sets(draw, max_n=45):
    """One n and 1 to 6 hidden-slot sets over it, each of 0 to 20 slots,
    so that links hide different numbers of slots and some hide none."""
    n = draw(st.integers(1, max_n))
    rnd = draw(st.randoms(use_true_random=False))
    return n, [rnd.sample(range(1, n + 1), draw(st.integers(0, min(20, n))))
               for _ in range(draw(st.integers(1, 6)))]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(hidden_sets=ragged_hidden_sets(), seed=st.integers(0, 2**32 - 1))
def test_indexed_families_match_per_slot_scalar_draws(hidden_sets, seed):
    # one read of the stream per family gives its |U|+1 members the values
    # of one scalar separated draw per hidden slot, slot after slot, and
    # families built one after another from one generator leave it where
    # those draws do
    n, sets = hidden_sets
    rows = np.random.default_rng(seed).uniform(0.5, 2.0, size=(len(sets), n))
    batched, scalar = (np.random.default_rng([seed, 2]) for _ in range(2))
    for row, hidden in zip(rows, sets):
        unknown = UnknownSet(n, frozenset(hidden))
        fam = build_indexed_basis(row, unknown, batched)
        want = np.tile(row, (len(unknown.hidden) + 1, 1))
        for slot in unknown.hidden:
            want[:, slot - 1] = scalar_separated_uniform(
                scalar, len(unknown.hidden) + 1)
        assert fam.members.tobytes() == want.tobytes()
        assert fam.anchor_indices == unknown.hidden
        assert not fam.members.flags.writeable
    assert batched.bit_generator.random_raw() == \
        scalar.bit_generator.random_raw()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(p=crowded_patterns(), seed=st.integers(0, 2**32 - 1))
def test_power_basis_generator_is_the_separated_draw(p, seed):
    # the generator's block values are separated_uniform's draw, bit for
    # bit, so they follow the one-draw-at-a-time loop over numpy's stream
    gen = build_power_basis(p, seed).members[0]
    vals = scalar_separated_uniform(np.random.default_rng(seed),
                                    len(p.lengths))
    assert gen.tobytes() == np.repeat(vals, p.lengths).tobytes()
    assert vals == separated_uniform(np.random.default_rng(seed),
                                     len(p.lengths))


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
