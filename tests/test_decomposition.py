"""Basis families: round trips, anchors, residual policy, exact path."""

from fractions import Fraction

import numpy as np
import pytest

from alignsim.channel import (ChangingPattern, UnknownSet, constant_intervals,
                              sample_channel)
from alignsim.decomposition import (RESIDUAL_REL_TOL, build_and_decompose,
                                    build_basis, build_indexed_basis,
                                    build_power_basis,
                                    build_power_basis_exact, decompose,
                                    decompose_exact, reconstruct,
                                    reconstruct_exact)


def random_pattern(rng, n, max_changes=None):
    cap = n - 1 if max_changes is None else min(max_changes, n - 1)
    k = int(rng.integers(0, cap + 1))
    pts = sorted(rng.choice(range(2, n + 1), size=k, replace=False).tolist())
    return ChangingPattern(n, tuple(pts))


def rel_residual(h, fam, betas):
    return np.max(np.abs(reconstruct(betas, fam) - h)) / np.max(np.abs(h))


def test_power_family_shape_and_anchors():
    pat = ChangingPattern(8, (3, 6))
    fam = build_power_basis(pat, seed=0)
    assert fam.kind == "power"
    assert len(fam.members) == 3          # one more than the change count
    assert fam.anchor_indices == (1, 3, 6)
    gen = np.asarray(fam.members[0].values)
    for j, m in enumerate(fam.members, start=1):
        assert np.allclose(np.asarray(m.values), gen ** j / gen ** (j - 1) * gen ** (j - 1))


def test_power_round_trip_random():
    rng = np.random.default_rng(0)
    for t in range(200):
        n = int(rng.integers(3, 16))
        pat = random_pattern(rng, n, max_changes=12)
        h = sample_channel(pat, seed=t).array()
        fam, betas = build_and_decompose(h, "power", pat.change_points, n, seed=t)
        assert rel_residual(h, fam, betas) <= RESIDUAL_REL_TOL


def test_indexed_family_matches_known_slots():
    rng = np.random.default_rng(1)
    n = 9
    pat = ChangingPattern(n, (3, 7))
    h = sample_channel(pat, seed=2).array()
    unknown = UnknownSet(n, frozenset({2, 5}))
    fam = build_indexed_basis(h, unknown, seed=4)
    assert len(fam.members) == 3          # |U| + 1
    for m in fam.members:
        vals = np.asarray(m.values)
        for slot in range(1, n + 1):
            if slot not in unknown.indices:
                assert vals[slot - 1] == h[slot - 1]


def test_indexed_round_trip_including_fully_hidden():
    rng = np.random.default_rng(5)
    for t in range(200):
        n = int(rng.integers(3, 16))
        pat = random_pattern(rng, n)
        h = sample_channel(pat, seed=t).array()
        usz = int(rng.integers(0, n + 1))
        u = frozenset(rng.choice(range(1, n + 1), size=usz, replace=False).tolist())
        fam, betas = build_and_decompose(h, "indexed", u, n, seed=t, true_values=h)
        assert rel_residual(h, fam, betas) <= RESIDUAL_REL_TOL


def test_decompose_rejects_unrepresentable_channel():
    pat = ChangingPattern(8, (5,))
    fam = build_power_basis(pat, seed=0)
    bad = sample_channel(ChangingPattern(8, (2, 3, 4, 5, 6)), seed=1).array()
    with pytest.raises(ValueError):
        decompose(bad, fam)


def test_reconstruct_validates_count():
    fam = build_power_basis(ChangingPattern(4, (2,)), seed=0)
    with pytest.raises(ValueError):
        reconstruct([1.0], fam)


def test_build_basis_dispatch():
    fam = build_basis("power", (3,), 6, seed=0)
    assert fam.kind == "power"
    h = sample_channel(ChangingPattern(6, ()), seed=0).array()
    fam = build_basis("indexed", {2}, 6, seed=0, true_values=h)
    assert fam.kind == "indexed"
    with pytest.raises(ValueError):
        build_basis("indexed", {2}, 6, seed=0)
    with pytest.raises(ValueError):
        build_basis("fourier", (), 6, seed=0)


def exact_channel(rng, pat):
    vals = []
    while len(vals) < len(pat.change_points) + 1:
        v = Fraction(int(rng.integers(500, 2001)), 1000)
        if not vals or v != vals[-1]:
            vals.append(v)
    h = [None] * pat.n
    for block, v in zip(constant_intervals(pat), vals):
        for slot in block:
            h[slot - 1] = v
    return h


def test_exact_round_trip_is_literal_equality():
    rng = np.random.default_rng(9)
    for t in range(100):
        n = int(rng.integers(3, 11))
        pat = random_pattern(rng, n, max_changes=6)
        h = exact_channel(rng, pat)
        fam = build_power_basis_exact(pat, seed=t)
        betas = decompose_exact(h, fam)
        assert all(isinstance(b, Fraction) for b in betas)
        assert reconstruct_exact(betas, fam) == h


def test_exact_and_float_paths_agree():
    rng = np.random.default_rng(21)
    pat = ChangingPattern(8, (3, 6))
    h = exact_channel(rng, pat)
    fam = build_power_basis_exact(pat, seed=0)
    betas = decompose_exact(h, fam)
    hf = np.asarray([float(v) for v in h])
    float_fam = build_power_basis(pat, seed=0)
    float_betas = decompose(hf, float_fam)
    recon_exact = np.asarray([float(v) for v in reconstruct_exact(betas, fam)])
    recon_float = reconstruct(float_betas, float_fam)
    assert np.max(np.abs(recon_exact - hf)) == 0.0
    assert np.max(np.abs(recon_float - hf)) <= RESIDUAL_REL_TOL * np.max(np.abs(hf))
