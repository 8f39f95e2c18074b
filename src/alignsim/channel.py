"""Block-fading channel model.

Slots are numbered 1..n.  A changing pattern is the sorted set of slot
indices c (2 <= c <= n) at which a channel's gain differs from slot c-1;
slot 1 always opens the first constant block.  Cross channels are diagonal;
each direct link additionally passes through a full-rank transform
(identity, banded memory, or bounded-displacement permutation).

Random values are drawn in batches that consume exactly the draws of
one-at-a-time loops: on PCG64 a batched ``uniform`` or ``integers`` call
gives the values and end state of as many scalar calls, and a rejection
sampler asks each batch only for the values it still misses.

Every per-trial object is built and validated once: a frozen
``NetworkConfig`` builds its K x K pattern and hidden-slot tables at
construction (so a bad change point or gain range fails when the config
is loaded).  A diagonal channel is its length-n vector of gains, a
read-only float64 array that every consumer uses as it is.
"""

import json
import math
import numbers
from bisect import bisect
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "MIN_VALUE_GAP",
    "separated_uniform",
    "ChangingPattern",
    "UnknownSet",
    "DirectTransform",
    "NetworkConfig",
    "config_field",
    "json_int",
    "json_float",
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


def _value_gap(count, h_min=H_MIN_DEFAULT, h_max=H_MAX_DEFAULT):
    """The separation kept between count values drawn on [h_min, h_max)."""
    return min(MIN_VALUE_GAP, (h_max - h_min) / (2 * count + 2))


def separated_uniform(rng, count, avoid=()):
    """count uniform draws on the default gain range, pairwise separated
    by a gap derived from how many values must fit.

    Values in ``avoid`` (e.g. a fixed gain of 1 elsewhere on the diagonal)
    are kept at the same distance.  With m = count + len(avoid), the gap
    is min(MIN_VALUE_GAP, (H_MAX_DEFAULT - H_MIN_DEFAULT) / (2 * m + 2)):
    each kept value rules out less than twice the gap, so more than a
    1 / (m + 1) share of the range stays open to every draw and the
    rejection loop terminates for any count.
    """
    return _draw_accepted(rng, count, H_MIN_DEFAULT, H_MAX_DEFAULT,
                          _apart(_value_gap(count + len(avoid)), avoid))


def _apart(gap, taken=()):
    """An accept test keeping each value at least gap from every value
    accepted so far and from ``taken``.

    Only the two sorted neighbours of a draw are compared: correctly
    rounded subtraction is monotone, so no farther value is closer, and
    the decisions equal those of comparing against every value.
    """
    taken = sorted(taken)

    def accept(v, _kept):
        i = bisect(taken, v)
        if (i and v - taken[i - 1] < gap
                or i < len(taken) and taken[i] - v < gap):
            return False
        taken.insert(i, v)
        return True
    return accept


def _draw_accepted(rng, count, low, high, accept):
    """The first count uniform draws on [low, high) that accept(v, kept)
    keeps, consuming exactly the draws of a one-at-a-time loop; accept is
    asked once per draw, in draw order."""
    vals = []
    while len(vals) < count:
        for v in rng.uniform(low, high, size=count - len(vals)).tolist():
            if accept(v, vals):
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
    if not pats:
        raise ValueError("need at least one pattern to merge")
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
    """One read-only float64 gain per constant block, across its slots.

    Consecutive blocks are redrawn until distinct so that the realized
    value sequence changes at exactly the declared change points.  With
    distinct_blocks="all", every block value is globally distinct (needed
    for generator diagonals whose anchor solve must be nonsingular).
    """
    bounds = [1, *p.change_points, p.n + 1]
    lengths = [b - a for a, b in zip(bounds, bounds[1:])]
    gap = _value_gap(len(lengths), h_min, h_max)
    if distinct_blocks == "all":
        accept = _apart(gap)
    else:
        def accept(v, vals):
            return not vals or abs(v - vals[-1]) >= gap
    vals = _draw_accepted(_rng(seed), len(lengths), h_min, h_max, accept)
    h = np.asarray(vals).repeat(lengths)
    h.setflags(write=False)     # shared by every consumer, never copied
    return h


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
    if kind == "identity":
        mat = np.eye(n)
        distance = 0
    elif kind == "memory":
        rng = _rng(seed)
        # the band (0 <= row - col <= distance), filled in row-major order
        band = np.tri(n, dtype=bool) & ~np.tri(n, k=-distance - 1, dtype=bool)
        mat = np.zeros((n, n))
        mat[band] = rng.uniform(H_MIN_DEFAULT, H_MAX_DEFAULT,
                                size=np.count_nonzero(band))
    elif kind == "permutation":
        rng = _rng(seed)
        perm = _bounded_permutation(n, distance, rng)
        diag = rng.uniform(H_MIN_DEFAULT, H_MAX_DEFAULT, size=n)
        mat = np.zeros((n, n))
        mat[np.arange(n), perm] = diag[perm]
    else:
        raise ValueError(f"unknown transform kind {kind!r}")
    # exactly nonsingular: triangular with a nonzero diagonal, or a scaled
    # permutation (a float rank test fails large ill-conditioned bands)
    if kind == "permutation":
        if not all(np.all(np.count_nonzero(mat, axis=a) == 1) for a in (0, 1)):
            raise ValueError("permutation transform is not a scaled permutation")
    elif not np.all(np.diagonal(mat) != 0):
        raise ValueError(f"{kind} transform has a zero on its diagonal")
    return DirectTransform(kind, distance, mat)


def _is_int_nest(nest, K):
    """True when nest is a K x K nest of lists of integers (not booleans)."""
    return (isinstance(nest, (list, tuple)) and len(nest) == K
            and all(isinstance(row, (list, tuple)) and len(row) == K
                    and all(isinstance(cell, (list, tuple))
                            and all(isinstance(x, numbers.Integral)
                                    and not isinstance(x, bool)
                                    for x in cell)
                            for cell in row)
                    for row in nest))


def _cell_table(nest, build):
    """The nest as a tuple of tuples of build(cell), one object per
    distinct cell: most links of a config repeat a few cells."""
    made = {}
    for cell in (tuple(c) for row in nest for c in row):
        if cell not in made:
            made[cell] = build(cell)
    return tuple(tuple(made[tuple(c)] for c in row) for row in nest)


_REQUIRED = object()


def json_int(value):
    """value as an int when it is a JSON integer or an integral number.

    Booleans, strings and fractional or non-finite numbers raise
    TypeError, which config_field reports as an invalid field, where
    int() would coerce them ("4" and 4.9 to 4, true to 1).
    """
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not value.is_integer()):
        raise TypeError(f"not an integer: {value!r}")
    return int(value)


def json_float(value):
    """value as a float when it is a finite JSON number; booleans,
    strings and non-finite numbers raise TypeError, as in json_int."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise TypeError(f"not a finite number: {value!r}")
    return float(value)


def config_field(raw, key, convert, default=_REQUIRED):
    """convert(raw[key]) for a config parsed from JSON, or convert(default)
    when the key is absent and a default is given.

    A top level that is not a JSON object, or a value convert rejects
    (null where a number is due, a list, an infinite number), raises
    ValueError rather than TypeError; a missing required key raises
    KeyError.
    """
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    value = raw[key] if key in raw or default is _REQUIRED else default
    try:
        return convert(value)
    except (TypeError, OverflowError):
        raise ValueError(f"invalid {key}: {value!r}") from None


@dataclass(frozen=True)
class NetworkConfig:
    """Everything needed to sample a network instance deterministically.

    patterns[p][q] lists the change points of the link from transmitter q
    into receiver p; unknown[p][q] lists slots whose gain is hidden from
    the scheme constructors.  The config is frozen: its validated
    ChangingPattern and UnknownSet tables are built once, at construction,
    and every pattern() and unknown_set() call returns a stored object.
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
    # K x K tables of ChangingPattern and UnknownSet, built from the nests
    _pattern_table: tuple = field(init=False, repr=False, compare=False)
    _unknown_table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.unknown is None:
            # nothing hidden: one shared immutable nest of empty cells
            object.__setattr__(self, "unknown", (((),) * self.K,) * self.K)
        if not _is_int_nest(self.patterns, self.K):
            raise ValueError("patterns must be a K x K nest of integer lists")
        if not _is_int_nest(self.unknown, self.K):
            raise ValueError("unknown must be a K x K nest of integer lists")
        # gains are drawn on [h_min, h_max): a finite, non-empty width
        if not 0 < self.h_max - self.h_min < math.inf:
            raise ValueError("need finite h_min < h_max with a finite width")
        object.__setattr__(self, "_pattern_table", _cell_table(
            self.patterns, lambda c: ChangingPattern(self.n, c)))
        object.__setattr__(self, "_unknown_table", _cell_table(
            self.unknown, lambda c: UnknownSet(self.n, frozenset(c))))

    def pattern(self, p, q):
        return self._pattern_table[p][q]

    def unknown_set(self, p, q):
        return self._unknown_table[p][q]

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
        return cls(K=config_field(d, "K", json_int),
                   n=config_field(d, "n", json_int),
                   patterns=d["patterns"], unknown=d.get("unknown"),
                   h_min=config_field(d, "h_min", json_float, H_MIN_DEFAULT),
                   h_max=config_field(d, "h_max", json_float, H_MAX_DEFAULT),
                   direct_kind=d.get("direct_kind", "identity"),
                   memory_distance=config_field(d, "memory_distance",
                                                json_int, 1),
                   seed=config_field(d, "seed", json_int, 0))

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
    channels: dict          # (p, q) -> read-only gain array, all K*K links
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
        h = self.channel(p, q)[:, None]
        x = np.asarray(precoder, dtype=float)
        if p == q:
            x = self.transforms[p].matrix @ x
        return h * x


def sample_network(config: NetworkConfig, seed=None) -> NetworkInstance:
    """Sample every link of the network, deterministically per (config, seed)."""
    base = config.seed if seed is None else seed
    K, n = config.K, config.n
    channels = {
        (p, q): sample_channel(config.pattern(p, q),
                               base * 1_000_003 + p * K + q + 1,
                               config.h_min, config.h_max)
        for p in range(K) for q in range(K)}
    transforms = tuple(
        direct_transform_matrix(config.direct_kind, config.memory_distance,
                                n, base * 1_000_033 + 7 * p + 1)
        for p in range(K))
    return NetworkInstance(K=K, n=n, channels=channels, transforms=transforms,
                           patterns=config._pattern_table,
                           unknown=config._unknown_table, seed=base)
