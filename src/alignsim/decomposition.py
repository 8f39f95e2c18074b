"""Diagonal-channel basis families and their Vandermonde-style solves.

Two family kinds:

* ``power``: from a pattern with s change points, build a random generator
  diagonal Q constant on the pattern's blocks and take members Q^1..Q^(s+1).
  Any diagonal channel constant on those blocks is a linear combination of
  the members; the coefficients come from a square solve anchored at one
  representative slot per block (slot 1 plus each change point).
* ``indexed``: given a channel with a set U of hidden slots, build |U|+1
  members that copy the true values outside U and carry fresh randomness
  inside U.  The true channel is a combination of the members; anchors are
  the slots of U plus one known slot (coefficients then sum to one there).
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel import (ChangingPattern, DiagonalChannel, UnknownSet,
                      constant_intervals, sample_channel, separated_uniform)
from .rational import exact_solve

__all__ = [
    "BasisFamily",
    "build_power_basis",
    "build_indexed_basis",
    "build_basis",
    "decompose",
    "reconstruct",
    "build_and_decompose",
    "ExactPowerBasis",
    "build_power_basis_exact",
    "decompose_exact",
    "reconstruct_exact",
    "RESIDUAL_REL_TOL",
]

RESIDUAL_REL_TOL = 1e-9
# redraws of a family whose anchor system is singular (a measure-zero event)
_SINGULAR_RETRIES = 5


@dataclass(frozen=True)
class BasisFamily:
    kind: str                 # "power" or "indexed"
    members: tuple            # of DiagonalChannel
    anchor_indices: tuple     # 1-based slots, one per coefficient (or |U| rows)

    @property
    def n(self):
        return self.members[0].n


def build_power_basis(pattern: ChangingPattern, seed):
    """Members Q^1..Q^(s+1) for a generator Q matching ``pattern``."""
    s = len(pattern.change_points)
    gen = sample_channel(pattern, seed, distinct_blocks="all").array()
    members = tuple(DiagonalChannel(tuple(gen ** j)) for j in range(1, s + 2))
    anchors = (1,) + pattern.change_points
    return BasisFamily("power", members, anchors)


def build_indexed_basis(true_values, unknown: UnknownSet, seed):
    """|U|+1 members agreeing with the true channel on every known slot."""
    vals = np.asarray([float(v) for v in true_values])
    n = vals.size
    hidden = sorted(unknown.indices)
    rng = np.random.default_rng(seed)
    count = len(hidden) + 1
    gap = min(0.01, 1.5 / (2 * count + 2))
    fresh = {slot: separated_uniform(rng, count, min_gap=gap)
             for slot in hidden}
    members = []
    for m in range(count):
        member = vals.copy()
        for slot in hidden:
            member[slot - 1] = fresh[slot][m]
        members.append(DiagonalChannel(tuple(member)))
    known = [i for i in range(1, n + 1) if i not in unknown.indices]
    anchors = tuple(hidden + known[:1])
    return BasisFamily("indexed", tuple(members), anchors)


def build_basis(kind, pattern_or_unknown, n, seed, true_values=None):
    """Dispatch helper mirroring the two constructors."""
    if kind == "power":
        return build_power_basis(ChangingPattern(n, tuple(pattern_or_unknown)), seed)
    if kind == "indexed":
        if true_values is None:
            raise ValueError("indexed basis needs the known channel values")
        return build_indexed_basis(true_values, UnknownSet(n, frozenset(pattern_or_unknown)), seed)
    raise ValueError(f"unknown basis kind {kind!r}")


def _anchor_system(h, fam):
    rows = [a - 1 for a in fam.anchor_indices]
    mat = np.array([[m.values[r] for m in fam.members] for r in rows])
    rhs = np.array([h[r] for r in rows])
    return mat, rhs


def decompose(h, fam: BasisFamily):
    """Coefficients beta with sum_j beta_j * member_j == h (within tolerance).

    Square anchor systems are solved in exact rational arithmetic (floats
    are exact binary rationals), because power families of a dozen members
    are Vandermonde-like and far too ill-conditioned for a float solve;
    the returned coefficients are then Fractions and reconstruct() keeps
    the evaluation exact.  Non-square systems (the fully-hidden indexed
    case) are well-conditioned and use a float least-squares solve.

    Raises numpy.linalg.LinAlgError when a float system is singular and
    ValueError when the reconstruction residual exceeds the relative
    tolerance, i.e. when h is not actually representable by the family.
    """
    h = np.asarray([float(v) for v in (h.values if isinstance(h, DiagonalChannel) else h)])
    mat, rhs = _anchor_system(h, fam)
    if mat.shape[0] == mat.shape[1]:
        try:
            betas = exact_solve(mat.tolist(), rhs.tolist())
        except ZeroDivisionError as exc:
            raise np.linalg.LinAlgError("singular anchor system") from exc
    else:
        betas, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    recon = reconstruct(betas, fam)
    scale = np.max(np.abs(h))
    if np.max(np.abs(recon - h)) > RESIDUAL_REL_TOL * scale:
        raise ValueError("channel is not representable by this family "
                         "(residual above tolerance)")
    return betas


def reconstruct(betas, fam: BasisFamily):
    """Elementwise sum of beta_j * member_j.

    Fraction coefficients (the square-solve output of decompose) are
    combined exactly and rounded once at the end; rows are cached by their
    member-value tuple since a diagonal family has one distinct row per
    constant block.
    """
    betas = list(betas)
    if len(betas) != len(fam.members):
        raise ValueError("coefficient count does not match family size")
    stack = np.array([m.values for m in fam.members])
    if any(isinstance(b, Fraction) for b in betas):
        fracs = [Fraction(b) for b in betas]
        cache = {}
        out = np.empty(stack.shape[1])
        for i in range(stack.shape[1]):
            key = tuple(stack[:, i])
            if key not in cache:
                cache[key] = float(sum(b * Fraction(v)
                                       for b, v in zip(fracs, key)))
            out[i] = cache[key]
        return out
    return np.asarray(betas, dtype=float) @ stack


def build_and_decompose(h, kind, pattern_or_unknown, n, seed,
                        true_values=None):
    """Build a family and solve, redrawing the randomness on singular systems."""
    last = None
    for attempt in range(_SINGULAR_RETRIES + 1):
        fam = build_basis(kind, pattern_or_unknown, n, seed + 7919 * attempt,
                          true_values=true_values)
        try:
            return fam, decompose(h, fam)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - measure zero
            last = exc
    raise RuntimeError("anchor system stayed singular after retries") from last


# ---------------------------------------------------------------------------
# exact rational path


@dataclass(frozen=True)
class ExactPowerBasis:
    members: tuple            # of tuples of Fraction, length n each
    anchor_indices: tuple


def _exact_block_values(count, rng, lo=Fraction(1, 2), hi=Fraction(2)):
    span = (hi - lo).numerator * 1000 // (hi - lo).denominator
    vals = []
    while len(vals) < count:
        v = lo + Fraction(int(rng.integers(0, span + 1)), 1000)
        if v not in vals:
            vals.append(v)
    return vals


def build_power_basis_exact(pattern: ChangingPattern, seed):
    """Rational-valued power family for the exact solve path."""
    rng = np.random.default_rng(seed)
    blocks = constant_intervals(pattern)
    block_vals = _exact_block_values(len(blocks), rng)
    gen = [Fraction(0)] * pattern.n
    for v, block in zip(block_vals, blocks):
        for slot in block:
            gen[slot - 1] = v
    s = len(pattern.change_points)
    members = tuple(tuple(g ** j for g in gen) for j in range(1, s + 2))
    anchors = (1,) + pattern.change_points
    return ExactPowerBasis(members, anchors)


def decompose_exact(h_fracs, fam: ExactPowerBasis):
    """Exact coefficients; reconstruction equality is literal, not approximate."""
    rows = [a - 1 for a in fam.anchor_indices]
    mat = [[m[r] for m in fam.members] for r in rows]
    rhs = [Fraction(h_fracs[r]) for r in rows]
    return exact_solve(mat, rhs)


def reconstruct_exact(betas, fam: ExactPowerBasis):
    n = len(fam.members[0])
    return [sum(b * m[i] for b, m in zip(betas, fam.members)) for i in range(n)]
