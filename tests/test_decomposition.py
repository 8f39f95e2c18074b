"""Basis families: round trips, anchors, residual policy, exact solves."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignsim.channel import (ChangingPattern, UnknownSet, constant_intervals,
                              sample_channel, separated_uniform)
from alignsim.decomposition import (RESIDUAL_REL_TOL, _decompose,
                                    build_and_decompose, build_basis,
                                    build_indexed_basis, build_power_basis,
                                    decompose, reconstruct)
from alignsim import rational
from alignsim.rational import exact_solve


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(1, 30), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_indexed_basis_matches_member_loop(n, data, seed):
    hidden = data.draw(st.sets(st.integers(1, n), max_size=n))
    vals = np.random.default_rng(seed).uniform(0.5, 2.0, size=n)
    fam = build_indexed_basis(vals, UnknownSet(n, frozenset(hidden)), seed)
    # the member-at-a-time loop: same draws, one slot at a time
    rng = np.random.default_rng(seed)
    order = sorted(hidden)
    fresh = {slot: separated_uniform(rng, len(order) + 1) for slot in order}
    for m, member in enumerate(fam.members):
        want = vals.copy()
        for slot in order:
            want[slot - 1] = fresh[slot][m]
        assert member.tolist() == want.tolist()
    assert fam.anchor_indices == tuple(order)


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
    assert len(fam.members) == 3          # one more than the change count
    assert fam.anchor_indices == (1, 3, 6)
    gen = fam.members[0]
    for j, m in enumerate(fam.members, start=1):
        assert np.allclose(m, gen ** j / gen ** (j - 1) * gen ** (j - 1))


def test_power_round_trip_random():
    rng = np.random.default_rng(0)
    for t in range(200):
        n = int(rng.integers(3, 16))
        pat = random_pattern(rng, n, max_changes=12)
        h = sample_channel(pat, seed=t)
        fam, betas = build_and_decompose(h, "power", pat.change_points, n, seed=t)
        assert rel_residual(h, fam, betas) <= RESIDUAL_REL_TOL


def test_indexed_family_matches_known_slots():
    rng = np.random.default_rng(1)
    n = 9
    pat = ChangingPattern(n, (3, 7))
    h = sample_channel(pat, seed=2)
    unknown = UnknownSet(n, frozenset({2, 5}))
    fam = build_indexed_basis(h, unknown, seed=4)
    assert len(fam.members) == 3          # |U| + 1
    for m in fam.members:
        for slot in range(1, n + 1):
            if slot not in unknown.indices:
                assert m[slot - 1] == h[slot - 1]


def test_indexed_round_trip_including_fully_hidden():
    rng = np.random.default_rng(5)
    for t in range(200):
        n = int(rng.integers(3, 16))
        pat = random_pattern(rng, n)
        h = sample_channel(pat, seed=t)
        usz = int(rng.integers(0, n + 1))
        u = frozenset(rng.choice(range(1, n + 1), size=usz, replace=False).tolist())
        fam, betas = build_and_decompose(h, "indexed", u, n, seed=t, true_values=h)
        assert rel_residual(h, fam, betas) <= RESIDUAL_REL_TOL


def test_decompose_rejects_unrepresentable_channel():
    pat = ChangingPattern(8, (5,))
    fam = build_power_basis(pat, seed=0)
    bad = sample_channel(ChangingPattern(8, (2, 3, 4, 5, 6)), seed=1)
    with pytest.raises(ValueError):
        decompose(bad, fam)


@pytest.mark.parametrize("shape", [(5,), (6, 1), (7,)],
                         ids=["short", "column", "long"])
def test_decompose_validates_h_shape(shape):
    fam = build_power_basis(ChangingPattern(6, (3,)), seed=0)
    with pytest.raises(ValueError, match="n = 6"):
        decompose(np.ones(shape), fam)


@pytest.mark.parametrize("h", [[1.0, np.inf, 1.0], [1.0, np.nan, 1.0],
                               [np.inf, 1.0, 1.0], [np.nan, 1.0, 1.0]],
                         ids=["inf", "nan", "inf-anchor", "nan-anchor"])
def test_decompose_rejects_non_finite_h(h):
    # off the anchors the residual test passes inf and nan; at an anchor
    # the exact solve cannot read them
    fam = build_power_basis(ChangingPattern(3, ()), seed=0)
    assert fam.anchor_indices == (1,)
    with pytest.raises(ValueError, match="finite"):
        decompose(np.array(h), fam)


def test_reconstruct_validates_count():
    fam = build_power_basis(ChangingPattern(4, (2,)), seed=0)
    with pytest.raises(ValueError):
        reconstruct([1.0], fam)


def _same_family(a, b):
    return (a.members.shape == b.members.shape
            and a.members.tobytes() == b.members.tobytes()
            and a.anchor_indices == b.anchor_indices)


@pytest.mark.parametrize("hidden, values", [
    ({2}, [1.0] * 4),                 # short: a 4-slot family
    ({6}, [1.0] * 4),                 # short, hidden beyond it: IndexError
    ({2}, [1.0] * 7),
    ({2}, [[1.0] * 6]),
    ({2}, [1.0, 1.0, 1.0, np.nan, 1.0, 1.0]),
    ({2}, [1.0, 1.0, 1.0, 1.0, 1.0, -np.inf]),
], ids=["short", "short-hidden", "long", "2-D", "nan-known", "inf-known"])
def test_indexed_basis_validates_true_values(hidden, values):
    with pytest.raises(ValueError, match="n = 6 finite"):
        build_basis("indexed", hidden, 6, seed=0, true_values=values)


def test_build_basis_dispatch():
    fam = build_basis("power", (3,), 6, seed=0)
    assert _same_family(fam, build_power_basis(ChangingPattern(6, (3,)), 0))
    h = sample_channel(ChangingPattern(6, ()), seed=0)
    fam = build_basis("indexed", {2}, 6, seed=0, true_values=h)
    assert _same_family(fam, build_indexed_basis(
        h, UnknownSet(6, frozenset({2})), 0))
    with pytest.raises(ValueError):
        build_basis("indexed", {2}, 6, seed=0)
    with pytest.raises(ValueError):
        build_basis("fourier", (), 6, seed=0)


def exact_channel(rng, pat):
    """Float channel whose block values are draws k/1000 in [1/2, 2]."""
    vals = []
    while len(vals) < len(pat.change_points) + 1:
        v = Fraction(int(rng.integers(500, 2001)), 1000)
        if not vals or v != vals[-1]:
            vals.append(v)
    h = [None] * pat.n
    for block, v in zip(constant_intervals(pat), vals):
        for slot in block:
            h[slot - 1] = float(v)
    return np.asarray(h)


def test_exact_round_trip_is_literal_equality():
    rng = np.random.default_rng(9)
    for t in range(100):
        n = int(rng.integers(3, 11))
        pat = random_pattern(rng, n, max_changes=6)
        h = exact_channel(rng, pat)
        fam = build_power_basis(pat, seed=t)
        betas = decompose(h, fam)
        assert all(isinstance(b, Fraction) for b in betas)
        assert np.array_equal(reconstruct(betas, fam), h)


@st.composite
def block_channels(draw, max_changes):
    s = draw(st.integers(0, max_changes))
    n = draw(st.integers(s + 1, 26))
    pts = draw(st.permutations(range(2, n + 1)))[:s]
    pat = ChangingPattern(n, tuple(pts))
    return pat, sample_channel(pat, seed=draw(st.integers(0, 2**32 - 1)))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(channel=block_channels(max_changes=20), seed=st.integers(0, 2**32 - 1))
def test_power_family_reconstructs_bit_for_bit(channel, seed):
    pat, h = channel
    fam, betas = build_and_decompose(h, "power", pat.change_points, pat.n,
                                     seed=seed)
    assert all(isinstance(b, Fraction) for b in betas)
    assert np.array_equal(reconstruct(betas, fam), h)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(channel=block_channels(max_changes=12), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_square_indexed_family_reconstructs_bit_for_bit(channel, data, seed):
    pat, h = channel
    known = data.draw(st.integers(1, pat.n))
    hidden = data.draw(st.sets(st.integers(1, pat.n), max_size=20)) - {known}
    fam, betas = build_and_decompose(h, "indexed", hidden, pat.n, seed=seed,
                                     true_values=h)
    assert len(fam.anchor_indices) + 1 == len(fam.members)
    assert all(isinstance(b, Fraction) for b in betas)
    assert np.array_equal(reconstruct(betas, fam), h)


@pytest.mark.parametrize("kind, support, columns", [
    ("indexed", (2, 5, 6), 3),
    ("indexed", tuple(range(1, 21)), 20),
    ("power", (3, 5), 3),
    ("power", tuple(range(2, 22)), 21),
])
def test_anchor_solve_eliminates_over_the_unknowns_it_must(
        monkeypatch, kind, support, columns):
    """An indexed family's sum row is a constant row, so its solve
    substitutes one coefficient out and eliminates over |U| columns; a
    power family's anchor rows are not, and it keeps s+1."""
    seen = []
    eliminate = rational._eliminate

    def spy(m, ncols):
        seen.append(ncols)
        return eliminate(m, ncols)

    monkeypatch.setattr(rational, "_eliminate", spy)
    n = 24
    h = sample_channel(ChangingPattern(n, ()), seed=3)
    fam, betas = build_and_decompose(h, kind, support, n, seed=5,
                                     true_values=h)
    assert seen == [columns]
    assert len(betas) == len(fam.members) == len(support) + 1


@settings(derandomize=True, max_examples=40, deadline=None)
@given(channel=block_channels(max_changes=12), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_indexed_family_solves_channels_with_zero_known_slots(channel, data,
                                                             seed):
    """Every known value zero, some of them, or none known: the family
    anchors on its hidden slots and the sum row, so the solve is exact
    and h comes back bit for bit."""
    pat, h = channel
    hidden = data.draw(st.sets(st.integers(1, pat.n), max_size=12))
    known = [i for i in range(1, pat.n + 1) if i not in hidden]
    zeros = data.draw(st.one_of(st.just(set(known)),
                                st.sets(st.sampled_from(known))
                                if known else st.just(set())))
    h = h.copy()
    h[[i - 1 for i in zeros]] = 0.0
    fam, betas = build_and_decompose(h, "indexed", hidden, pat.n, seed=seed,
                                     true_values=h)
    assert fam.anchor_indices == tuple(sorted(hidden))
    assert all(isinstance(b, Fraction) for b in betas)
    assert reconstruct(betas, fam).tobytes() == h.tobytes()


@settings(derandomize=True, max_examples=25, deadline=None)
@given(channel=block_channels(max_changes=20), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_reconstruct_rounds_the_exact_sum_once(channel, data, seed):
    """Fraction coefficients, from decompose or arbitrary (with denominators
    that are not powers of two), give float(exact sum) in every slot."""
    pat, h = channel
    fam = build_power_basis(pat, seed)
    betas = data.draw(st.one_of(
        st.just(decompose(h, fam)),
        st.lists(st.fractions(-10**6, 10**6, max_denominator=10**9),
                 min_size=len(fam.members), max_size=len(fam.members))))
    expected = [float(sum(Fraction(b) * Fraction(m[i])
                          for b, m in zip(betas, fam.members)))
                for i in range(fam.n)]
    assert reconstruct(betas, fam).tolist() == expected


# block values for the residual-check property: signed zeros, and floats
# whose exact coefficients stay far inside the float range
LEVELS = st.one_of(st.sampled_from([0.0, -0.0]),
                   st.floats(-1e3, 1e3, allow_nan=False))


@st.composite
def zero_signed_channels(draw, max_changes):
    """A block channel over LEVELS; every zero slot draws its own sign."""
    s = draw(st.integers(0, max_changes))
    n = draw(st.integers(s + 2, 26))
    pts = draw(st.permutations(range(2, n + 1)))[:s]
    pat = ChangingPattern(n, tuple(pts))
    levels = draw(st.lists(LEVELS, min_size=s + 1, max_size=s + 1))
    h = np.empty(n)
    for block, v in zip(constant_intervals(pat), levels):
        for slot in block:
            h[slot - 1] = -v if v == 0 and draw(st.booleans()) else v
    return pat, h


def residual_check_matches_reconstruct(h, fam):
    """Whether decompose rejects h, after checking that its verdict and
    its reconstruction's bits are those of the public reconstruct on the
    exact anchor solution, with the sum row of an indexed family."""
    rows = [a - 1 for a in fam.anchor_indices]
    mat, rhs = fam.members[:, rows].T, h[rows]
    if len(rows) < len(fam.members):
        mat = np.vstack((mat, np.ones(len(fam.members))))
        rhs = np.append(rhs, 1.0)
    betas = exact_solve(mat, rhs)
    recon = reconstruct(betas, fam)
    if np.max(np.abs(recon - h)) > RESIDUAL_REL_TOL * np.max(np.abs(h)):
        with pytest.raises(ValueError, match="not representable"):
            _decompose(h, fam)
        return True
    got, got_recon = _decompose(h, fam)
    assert got == betas
    assert got_recon.tobytes() == recon.tobytes()
    return False


def off_slot(h, k):
    """h with slot k (0-based) moved well outside the residual tolerance."""
    bad = h.copy()
    bad[k] += 1.0 + abs(bad[k])
    return bad


@settings(derandomize=True, max_examples=40, deadline=None)
@given(channel=zero_signed_channels(max_changes=20), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_power_residual_check_matches_reconstruct(channel, data, seed):
    pat, h = channel
    fam, _ = build_and_decompose(h, "power", pat.change_points, pat.n,
                                 seed=seed)
    assert not residual_check_matches_reconstruct(h, fam)
    others = [i for i in range(pat.n) if i + 1 not in fam.anchor_indices]
    k = data.draw(st.sampled_from(others))
    assert residual_check_matches_reconstruct(off_slot(h, k), fam)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(channel=zero_signed_channels(max_changes=12), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_square_indexed_residual_check_matches_reconstruct(channel, data,
                                                           seed):
    pat, h = channel
    known = data.draw(st.lists(st.integers(1, pat.n), min_size=2,
                               max_size=pat.n, unique=True))
    hidden = frozenset(range(1, pat.n + 1)) - set(known)
    fam, _ = build_and_decompose(h, "indexed", hidden, pat.n, seed=seed,
                                 true_values=h)
    assert len(fam.anchor_indices) + 1 == len(fam.members)
    assert not residual_check_matches_reconstruct(h, fam)
    # a known slot off the anchors: every member copies its true value,
    # so an h that differs there is not a combination of the members
    k = data.draw(st.sampled_from(
        [i - 1 for i in known if i not in fam.anchor_indices]))
    assert residual_check_matches_reconstruct(off_slot(h, k), fam)
