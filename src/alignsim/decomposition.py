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

``decompose`` and ``reconstruct`` are the one decomposition path.  Every
square anchor system (all power families, and indexed families with a
known slot) is solved in exact rational arithmetic, and reconstructing a
channel the family represents gives back its float values bit for bit.
Only the fully hidden indexed family, with more members than anchors,
uses a float least-squares solve and a residual tolerance.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .channel import (ChangingPattern, UnknownSet, sample_channel,
                      separated_uniform)
from .rational import exact_solve

__all__ = [
    "BasisFamily",
    "build_power_basis",
    "build_indexed_basis",
    "build_basis",
    "decompose",
    "reconstruct",
    "build_and_decompose",
    "RESIDUAL_REL_TOL",
]

RESIDUAL_REL_TOL = 1e-9
# redraws of a family whose anchor system is singular (a measure-zero event)
_SINGULAR_RETRIES = 5


@dataclass(frozen=True)
class BasisFamily:
    kind: str                 # "power" or "indexed"
    members: np.ndarray       # read-only (members, n), one member per row
    anchor_indices: tuple     # 1-based slots, one per coefficient (or |U| rows)

    @property
    def n(self):
        return self.members.shape[1]


def build_power_basis(pattern: ChangingPattern, seed):
    """Members Q^1..Q^(s+1) for a generator Q matching ``pattern``."""
    s = len(pattern.change_points)
    gen = sample_channel(pattern, seed, distinct_blocks="all")
    members = np.array([gen ** j for j in range(1, s + 2)])
    members.setflags(write=False)
    anchors = (1,) + pattern.change_points
    return BasisFamily("power", members, anchors)


def build_indexed_basis(true_values, unknown: UnknownSet, seed):
    """|U|+1 members agreeing with the true channel on every known slot."""
    vals = np.asarray(true_values, dtype=float)
    hidden = sorted(unknown.indices)
    rng = np.random.default_rng(seed)
    count = len(hidden) + 1
    # row m is member m: the true values, with fresh draws at hidden slots
    table = np.empty((count, vals.size))
    table[:] = vals
    for slot in hidden:
        table[:, slot - 1] = separated_uniform(rng, count)
    table.setflags(write=False)
    known = [i for i in range(1, vals.size + 1) if i not in unknown.indices]
    return BasisFamily("indexed", table, tuple(hidden + known[:1]))


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
    return fam.members[:, rows].T, h[rows]


def decompose(h, fam: BasisFamily):
    """Coefficients beta with sum_j beta_j * member_j == h.

    Square anchor systems are solved exactly (floats are exact binary
    rationals), because power families of a dozen members are
    Vandermonde-like and far too ill-conditioned for a float solve.  The
    coefficients are then Fractions, and reconstruct() evaluates them
    exactly and rounds once, so a representable h comes back bit for bit.
    The one non-square system, the fully hidden indexed case, is
    well-conditioned and uses a float least-squares solve.

    Raises numpy.linalg.LinAlgError when the anchor system is singular
    and ValueError when the reconstruction residual exceeds the relative
    tolerance, i.e. when h is not actually representable by the family.
    """
    h = np.asarray(h, dtype=float)
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
    combined exactly in integers over one common denominator and rounded
    once at the end by an int / int division, which Python rounds
    correctly, as float(Fraction) does; columns are cached by their
    member-value tuple since a diagonal family has one distinct column
    per constant block.
    """
    betas = list(betas)
    stack = fam.members
    if len(betas) != len(stack):
        raise ValueError("coefficient count does not match family size")
    if any(isinstance(b, Fraction) for b in betas):
        fracs = [Fraction(b) for b in betas]
        denom = lcm(*(b.denominator for b in fracs))
        nums = [b.numerator * (denom // b.denominator) for b in fracs]
        cache = {}
        out = np.empty(stack.shape[1])
        for i, key in enumerate(map(tuple, stack.T.tolist())):
            if key not in cache:
                ratios = [v.as_integer_ratio() for v in key]
                scale = lcm(*(d for _, d in ratios))
                total = sum(b * a * (scale // d)
                            for b, (a, d) in zip(nums, ratios))
                cache[key] = total / (denom * scale)
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

