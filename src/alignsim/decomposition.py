"""Diagonal-channel basis families and their Vandermonde-style solves.

Two family kinds:

* ``power``: from a pattern with s change points, build a random generator
  diagonal Q constant on the pattern's blocks and take members Q^1..Q^(s+1).
  Any diagonal channel constant on those blocks is a linear combination of
  the members; the coefficients come from a square solve anchored at one
  representative slot per block (slot 1 plus each change point).
* ``indexed``: given a channel with a set U of hidden slots, build |U|+1
  members that copy the true values outside U and carry fresh randomness
  inside U.  The true channel is a combination of the members whose
  coefficients sum to one; the anchors are the slots of U, and the sum
  row (1, ..., 1 | 1) makes the system square.

``decompose`` and ``reconstruct`` are the one decomposition path.  Every
anchor system is square and solved in exact rational arithmetic, and
reconstructing a channel the family represents gives back its float
values bit for bit.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .channel import ChangingPattern, UnknownSet, separated_uniform
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
    members: np.ndarray       # read-only (members, n), one member per row
    # 1-based slots: one per coefficient (power), or the hidden slots,
    # one fewer than the coefficients, which sum to one (indexed)
    anchor_indices: tuple

    @property
    def n(self):
        return self.members.shape[1]


def build_power_basis(pattern: ChangingPattern, seed):
    """Members Q^1..Q^(s+1) for a generator Q matching ``pattern``, its
    block values separated so that the anchor solve is nonsingular."""
    s = len(pattern.change_points)
    vals = separated_uniform(np.random.default_rng(seed), len(pattern.lengths))
    gen = np.asarray(vals).repeat(pattern.lengths)
    members = np.array([gen ** j for j in range(1, s + 2)])
    members.setflags(write=False)
    anchors = (1,) + pattern.change_points
    return BasisFamily(members, anchors)


def build_indexed_basis(true_values, unknown: UnknownSet, seed):
    """|U|+1 read-only members copying true_values at every known slot.
    The hidden values are one separated_uniform read of a row of |U|+1
    per hidden slot, slot after slot, member m taking value m of each row.
    The anchors are the hidden slots: the true channel's coefficients sum
    to one, which decompose adds as the row (1, ..., 1 | 1), and at a zero
    known value every member is zero.  Raises ValueError unless
    true_values is 1-D with unknown.n finite entries."""
    vals = np.asarray(true_values, dtype=float)
    if vals.shape != (unknown.n,) or not np.isfinite(vals).all():
        raise ValueError(f"true_values must have n = {unknown.n} finite "
                         "entries")
    hidden, size = unknown.hidden, len(unknown.hidden) + 1
    members = np.tile(vals, (size, 1))
    members[:, np.array(hidden, dtype=int) - 1] = np.reshape(
        separated_uniform(np.random.default_rng(seed),
                          *[size] * len(hidden)), (len(hidden), size)).T
    members.setflags(write=False)
    return BasisFamily(members, hidden)


def build_basis(kind, pattern_or_unknown, n, seed, true_values=None):
    """Dispatch helper mirroring the two constructors."""
    if kind == "power":
        return build_power_basis(ChangingPattern(n, tuple(pattern_or_unknown)), seed)
    if kind == "indexed":
        if true_values is None:
            raise ValueError("indexed basis needs the known channel values")
        return build_indexed_basis(true_values, UnknownSet(n, frozenset(pattern_or_unknown)), seed)
    raise ValueError(f"unknown basis kind {kind!r}")


def decompose(h, fam: BasisFamily):
    """Coefficients beta with sum_j beta_j * member_j == h.

    The anchor system is solved exactly (floats are exact binary
    rationals), because power families of a dozen members are
    Vandermonde-like and far too ill-conditioned for a float solve.  An
    indexed family, with one member more than anchors, adds the sum row
    (1, ..., 1 | 1), which exact_solve substitutes out.  The coefficients
    are Fractions, and reconstruct() evaluates them exactly and rounds
    once, so a representable h comes back bit for bit.

    The residual check evaluates exactly only the columns the solve does
    not already fix.  The exact solution meets every anchor's equation,
    so a slot whose member column equals an anchor's column rounds to h
    at that anchor: that covers every slot of a power family.  What is
    left of an indexed family are its known slots, whose columns are all
    equal and take one product each.

    Raises ValueError unless h is 1-D with fam.n finite entries,
    numpy.linalg.LinAlgError when the anchor system is singular, and
    ValueError when the reconstruction residual exceeds the relative
    tolerance, i.e. when h is not actually representable by the family.
    """
    return _decompose(h, fam)[0]


def _decompose(h, fam):
    """decompose's coefficients and the reconstruction it checked."""
    h = np.asarray(h, dtype=float)
    if h.shape != (fam.n,):
        raise ValueError(f"h must be 1-D with n = {fam.n} entries, "
                         f"got shape {h.shape}")
    # the residual test passes inf against inf and nan against anything
    if not np.isfinite(h).all():
        raise ValueError("h must be finite")
    rows = [a - 1 for a in fam.anchor_indices]
    mat, rhs = fam.members[:, rows].T, h[rows]
    # h at each anchor, with -0.0 as the +0.0 an exact zero rounds to
    fixed = dict(zip(rows, (rhs + 0.0).tolist()))
    if len(rows) + 1 == len(fam.members):     # indexed: the sum row
        mat = np.vstack((mat, np.ones(len(fam.members))))
        rhs = np.append(rhs, 1.0)
    try:
        betas = exact_solve(mat, rhs)
    except ZeroDivisionError as exc:
        raise np.linalg.LinAlgError("singular anchor system") from exc
    recon = _exact_columns(betas, fam.members, fixed)
    scale = np.max(np.abs(h))
    if np.max(np.abs(recon - h)) > RESIDUAL_REL_TOL * scale:
        raise ValueError("channel is not representable by this family "
                         "(residual above tolerance)")
    return betas, recon


def _exact_columns(betas, stack, fixed):
    """Per column i, sum_j betas[j] * stack[j, i] for Fraction betas,
    rounded once.

    The coefficients are put over one common denominator and each sum is
    taken exactly in integers and rounded by one int / int division,
    which Python rounds correctly, as float(Fraction) does.  Columns are
    keyed by their value tuple, since a diagonal family has one distinct
    column per constant block: ``fixed`` maps the index of each column
    whose value the caller has fixed to that value, which every equal
    column takes, and the common denominator is formed only once a column
    is left.  A column whose entries all equal v sums to v times the
    numerators' sum.
    """
    keys = list(map(tuple, stack.T.tolist()))
    known = {keys[i]: v for i, v in fixed.items()}
    out = np.empty(len(keys))
    nums = None
    for i, key in enumerate(keys):
        value = known.get(key)
        if value is None:
            if nums is None:
                denom = lcm(*(b.denominator for b in betas))
                nums = [b.numerator * (denom // b.denominator) for b in betas]
                num_sum = sum(nums)
            if key.count(key[0]) == len(key):
                a, d = key[0].as_integer_ratio()
                value = num_sum * a / (denom * d)
            else:
                ratios = [v.as_integer_ratio() for v in key]
                scale = lcm(*(d for _, d in ratios))
                total = sum(b * a * (scale // d)
                            for b, (a, d) in zip(nums, ratios))
                value = total / (denom * scale)
            known[key] = value
        out[i] = value
    return out


def reconstruct(betas, fam: BasisFamily):
    """Elementwise sum of beta_j * member_j.

    The coefficients (Fractions from decompose, or any rationals such as
    floats) are combined exactly in integers over one common denominator
    and rounded once per slot (see _exact_columns); a slot whose member
    values are all equal takes one product instead of a sum.
    """
    betas = [Fraction(b) for b in betas]
    if len(betas) != len(fam.members):
        raise ValueError("coefficient count does not match family size")
    return _exact_columns(betas, fam.members, {})


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

