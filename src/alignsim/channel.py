"""Block-fading channel model.

Slots are numbered 1..n.  A changing pattern is the sorted set of slot
indices c (2 <= c <= n) at which a channel's gain differs from slot c-1;
slot 1 always opens the first constant block.  Cross channels are diagonal;
each direct link additionally passes through a full-rank transform
(identity, banded memory, or bounded-displacement permutation).
"""

import json
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .linalg import numeric_rank

__all__ = [
    "MIN_VALUE_GAP",
    "separated_uniform",
    "ChangingPattern",
    "UnknownSet",
    "DiagonalChannel",
    "DirectTransform",
    "NetworkConfig",
    "NetworkInstance",
    "constant_intervals",
    "mobility_rate",
    "union_pattern",
    "sample_channel",
    "direct_transform_matrix",
    "sample_network",
]

H_MIN_DEFAULT = 0.5
H_MAX_DEFAULT = 2.0

# Two gains closer than this are treated as a numerical collision and
# redrawn: rank decisions use a 1e-8 relative singular-value threshold, and
# dimensions witnessed only by a difference of nearly-equal gains would sit
# below it.  Draws remain deterministic per seed.
MIN_VALUE_GAP = 1e-2


def separated_uniform(rng, count, min_gap=MIN_VALUE_GAP, avoid=()):
    """count uniform draws on the default gain range, pairwise separated
    by at least min_gap.

    Values in ``avoid`` (e.g. a fixed gain of 1 elsewhere on the diagonal)
    are kept at the same distance.
    """
    if (H_MAX_DEFAULT - H_MIN_DEFAULT) <= min_gap * (count + len(avoid)):
        raise ValueError("range too small for that many separated values")
    vals = []
    while len(vals) < count:
        v = float(rng.uniform(H_MIN_DEFAULT, H_MAX_DEFAULT))
        if all(abs(v - u) >= min_gap for u in vals) and \
                all(abs(v - a) >= min_gap for a in avoid):
            vals.append(v)
    return vals


@dataclass(frozen=True)
class ChangingPattern:
    n: int
    change_points: tuple

    def __post_init__(self):
        pts = tuple(sorted(set(int(c) for c in self.change_points)))
        object.__setattr__(self, "change_points", pts)
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if any(c < 2 or c > self.n for c in pts):
            raise ValueError("change points must lie in [2, n]")


@dataclass(frozen=True)
class UnknownSet:
    n: int
    indices: frozenset

    def __post_init__(self):
        idx = frozenset(int(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        if any(i < 1 or i > self.n for i in idx):
            raise ValueError("unknown indices must lie in [1, n]")


@dataclass(frozen=True)
class DiagonalChannel:
    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals or not all(np.isfinite(vals)):
            raise ValueError("channel values must be finite and non-empty")

    @property
    def n(self):
        return len(self.values)

    def matrix(self):
        return np.diag(self.values)

    def array(self):
        return np.asarray(self.values)


@dataclass(frozen=True)
class DirectTransform:
    kind: str
    distance: int
    matrix: np.ndarray = field(compare=False)


def constant_intervals(p: ChangingPattern):
    """Maximal runs of slots over which a channel with pattern p is constant."""
    bounds = [1] + list(p.change_points) + [p.n + 1]
    return [list(range(bounds[i], bounds[i + 1])) for i in range(len(bounds) - 1)]


def mobility_rate(p: ChangingPattern):
    return Fraction(len(p.change_points), p.n)


def union_pattern(patterns):
    """Merge several patterns over the same n into one."""
    pats = list(patterns)
    n = pats[0].n
    if any(p.n != n for p in pats):
        raise ValueError("patterns must share n")
    pts = sorted(set().union(*(set(p.change_points) for p in pats)))
    return ChangingPattern(n, tuple(pts))


def _rng(seed_or_rng):
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def sample_channel(p: ChangingPattern, seed, h_min=H_MIN_DEFAULT,
                   h_max=H_MAX_DEFAULT, distinct_blocks="consecutive"):
    """Draw one gain per constant block, broadcast across its slots.

    Consecutive blocks are redrawn until distinct so that the realized
    value sequence changes at exactly the declared change points.  With
    distinct_blocks="all", every block value is globally distinct (needed
    for generator diagonals whose anchor solve must be nonsingular).
    """
    rng = _rng(seed)
    blocks = constant_intervals(p)
    gap = min(MIN_VALUE_GAP, (h_max - h_min) / (2 * len(blocks) + 2))
    vals = []
    for _ in blocks:
        v = float(rng.uniform(h_min, h_max))
        while (vals and abs(v - vals[-1]) < gap) or (
                distinct_blocks == "all"
                and any(abs(v - u) < gap for u in vals)):
            v = float(rng.uniform(h_min, h_max))
        vals.append(v)
    out = np.empty(p.n)
    for v, block in zip(vals, blocks):
        for slot in block:
            out[slot - 1] = v
    return DiagonalChannel(tuple(out))


def _bounded_permutation(n, max_shift, rng):
    """A permutation of range(n) displacing no index by more than max_shift."""
    perm = []
    start = 0
    while start < n:
        size = int(rng.integers(1, min(max_shift + 1, n - start) + 1))
        chunk = list(range(start, start + size))
        rng.shuffle(chunk)
        perm.extend(chunk)
        start += size
    return perm


def direct_transform_matrix(kind, distance, n, seed):
    """Full-rank direct-link transform of the requested kind."""
    if kind != "identity" and not 1 <= distance < n:
        raise ValueError("distance must satisfy 1 <= distance < n")
    rng = _rng(seed)
    if kind == "identity":
        mat = np.eye(n)
        distance = 0
    elif kind == "memory":
        mat = np.zeros((n, n))
        for row in range(n):
            for col in range(max(0, row - distance), row + 1):
                mat[row, col] = rng.uniform(H_MIN_DEFAULT, H_MAX_DEFAULT)
    elif kind == "permutation":
        perm = _bounded_permutation(n, distance, rng)
        diag = rng.uniform(H_MIN_DEFAULT, H_MAX_DEFAULT, size=n)
        mat = np.zeros((n, n))
        for row, col in enumerate(perm):
            mat[row, col] = diag[col]
    else:
        raise ValueError(f"unknown transform kind {kind!r}")
    assert numeric_rank(mat) == n
    return DirectTransform(kind, distance, mat)


def _is_int_nest(nest, K):
    """True when nest is a K x K nest of lists of integers."""
    return (isinstance(nest, (list, tuple)) and len(nest) == K
            and all(isinstance(row, (list, tuple)) and len(row) == K
                    and all(isinstance(cell, (list, tuple))
                            and all(isinstance(x, numbers.Integral)
                                    for x in cell)
                            for cell in row)
                    for row in nest))


@dataclass
class NetworkConfig:
    """Everything needed to sample a network instance deterministically.

    patterns[p][q] lists the change points of the link from transmitter q
    into receiver p; unknown[p][q] lists slots whose gain is hidden from
    the scheme constructors.
    """
    K: int
    n: int
    patterns: list
    unknown: list = None
    h_min: float = H_MIN_DEFAULT
    h_max: float = H_MAX_DEFAULT
    direct_kind: str = "identity"
    memory_distance: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.unknown is None:
            self.unknown = [[[] for _ in range(self.K)] for _ in range(self.K)]
        if not _is_int_nest(self.patterns, self.K):
            raise ValueError("patterns must be a K x K nest of integer lists")
        if not _is_int_nest(self.unknown, self.K):
            raise ValueError("unknown must be a K x K nest of integer lists")

    def pattern(self, p, q):
        return ChangingPattern(self.n, tuple(self.patterns[p][q]))

    def unknown_set(self, p, q):
        return UnknownSet(self.n, frozenset(self.unknown[p][q]))

    def to_dict(self):
        return {
            "K": self.K, "n": self.n,
            "h_min": self.h_min, "h_max": self.h_max,
            "patterns": [[list(c) for c in row] for row in self.patterns],
            "unknown": [[sorted(c) for c in row] for row in self.unknown],
            "direct_kind": self.direct_kind,
            "memory_distance": self.memory_distance,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(K=int(d["K"]), n=int(d["n"]),
                   patterns=d["patterns"], unknown=d.get("unknown"),
                   h_min=float(d.get("h_min", H_MIN_DEFAULT)),
                   h_max=float(d.get("h_max", H_MAX_DEFAULT)),
                   direct_kind=d.get("direct_kind", "identity"),
                   memory_distance=int(d.get("memory_distance", 1)),
                   seed=int(d.get("seed", 0)))

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class NetworkInstance:
    K: int
    n: int
    channels: dict          # (p, q) -> DiagonalChannel, all K*K links
    transforms: tuple       # per-receiver DirectTransform for the direct link
    patterns: tuple         # (p, q) access via .pattern
    unknown: tuple
    seed: int

    def channel(self, p, q):
        return self.channels[(p, q)]

    def pattern(self, p, q):
        return self.patterns[p][q]

    def unknown_set(self, p, q):
        return self.unknown[p][q]

    def received_matrix(self, p, q, precoder):
        """What receiver p sees of transmitter q's precoder columns."""
        h = self.channel(p, q).array()[:, None]
        x = np.asarray(precoder, dtype=float)
        if p == q:
            x = self.transforms[p].matrix @ x
        return h * x


def sample_network(config: NetworkConfig, seed=None) -> NetworkInstance:
    """Sample every link of the network, deterministically per (config, seed)."""
    base = config.seed if seed is None else seed
    K, n = config.K, config.n
    channels = {}
    patterns = []
    unknown = []
    for p in range(K):
        prow, urow = [], []
        for q in range(K):
            pat = config.pattern(p, q)
            if pat.n != n:
                raise ValueError("pattern slot count differs from config n")
            channels[(p, q)] = sample_channel(
                pat, base * 1_000_003 + p * K + q + 1,
                config.h_min, config.h_max)
            prow.append(pat)
            urow.append(config.unknown_set(p, q))
        patterns.append(tuple(prow))
        unknown.append(tuple(urow))
    transforms = tuple(
        direct_transform_matrix(config.direct_kind, config.memory_distance,
                                n, base * 1_000_033 + 7 * p + 1)
        for p in range(K))
    return NetworkInstance(K=K, n=n, channels=channels, transforms=transforms,
                           patterns=tuple(patterns), unknown=tuple(unknown),
                           seed=base)
