"""Block-fading channel model.

Slots are numbered 1..n.  A changing pattern is the sorted set of slot
indices c (2 <= c <= n) at which a channel's gain differs from slot c-1;
slot 1 always opens the first constant block.  Cross channels are diagonal;
each direct link additionally passes through a full-rank transform
(identity, banded memory, or bounded-displacement permutation).

Random values are drawn in batches that consume exactly the draws of
one-at-a-time loops: on PCG64 a batched ``uniform`` or ``integers`` call
gives the values and end state of as many scalar calls, and a rejection
sampler asks each batch only for the values it still misses, so one
``separated_uniform`` read gives a trial every hidden slot's values.

Everything that does not depend on the seed is built and validated
once: a frozen ``NetworkConfig`` builds its K x K pattern and hidden-slot
tables and every link's block gaps and lengths at construction (so a
bad change point or direct transform fails when the config is loaded),
each hidden-slot set carries its sorted slots, an identity config keeps
its one read-only identity transform, and a memory band mask is built
once per (n, distance).  A diagonal channel is
its length-n vector of gains, a read-only float64 array that every
consumer uses as it is.  ``sample_network`` draws every link's gains at
once, from one generator, as the instance's read-only (K*K, n) ``gains``;
a non-identity direct transform is drawn from its receiver's own stream
on first read, so a big-n config allocates no n x n matrix it never
reads, and ``received_matrix`` alone applies it.
"""

import math
import numbers
from bisect import bisect
from dataclasses import dataclass, field
from functools import lru_cache

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


def _value_gap(count):
    """MIN_VALUE_GAP, shrunk to width / (2 * count + 2) for count values."""
    return min(MIN_VALUE_GAP,
               (H_MAX_DEFAULT - H_MIN_DEFAULT) / (2 * count + 2))


def separated_uniform(rng, *counts):
    """One row per count, as one list: the first count uniform draws on
    [H_MIN_DEFAULT, H_MAX_DEFAULT) at least _value_gap(count) from every
    value kept before them in the row.  A kept value rules out under twice
    the gap, so every row ends; only a draw's two sorted neighbours are
    compared, as rounded subtraction is monotone.  A row takes at least
    its count of draws, so each batch asks only for the values missing."""
    left = sum(counts)          # values still to keep, from this row on
    vals, draws = [], iter(())
    for count in counts:
        gap, taken, need = _value_gap(count), [], count
        while need:
            for v in draws:
                i = bisect(taken, v)
                if ((not i or v - taken[i - 1] >= gap)
                        and (i == len(taken) or taken[i] - v >= gap)):
                    taken.insert(i, v)
                    vals.append(v)
                    need -= 1
                    if not need:
                        break
            else:
                draws = iter(rng.uniform(H_MIN_DEFAULT, H_MAX_DEFAULT,
                                         size=left - len(taken)).tolist())
        left -= count
    return vals


@dataclass(frozen=True)
class ChangingPattern:
    n: int
    change_points: tuple
    # slots in each constant block, in slot order
    lengths: tuple = field(init=False, repr=False, compare=False)
    # each block's least distance to the block before it (0.0 for the first)
    gaps: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = tuple(sorted(set(int(c) for c in self.change_points)))
        object.__setattr__(self, "change_points", pts)
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if any(c < 2 or c > self.n for c in pts):
            raise ValueError("change points must lie in [2, n]")
        bounds = (1, *pts, self.n + 1)
        object.__setattr__(self, "lengths", tuple(
            b - a for a, b in zip(bounds, bounds[1:])))
        object.__setattr__(self, "gaps", (0.0,) + (_value_gap(
            len(self.lengths)),) * len(pts))


@dataclass(frozen=True)
class UnknownSet:
    n: int
    indices: frozenset
    # the hidden slots in order
    hidden: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        idx = frozenset(int(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        if any(i < 1 or i > self.n for i in idx):
            raise ValueError("unknown indices must lie in [1, n]")
        object.__setattr__(self, "hidden", tuple(sorted(idx)))


@dataclass(frozen=True)
class DirectTransform:
    kind: str
    distance: int
    matrix: np.ndarray = field(compare=False)


def constant_intervals(p: ChangingPattern):
    """Maximal runs of slots over which a channel with pattern p is constant."""
    bounds = [1] + list(p.change_points) + [p.n + 1]
    return [list(range(bounds[i], bounds[i + 1])) for i in range(len(bounds) - 1)]


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


def sample_channel(p: ChangingPattern, seed):
    """One read-only float64 gain per constant block, across its slots,
    drawn from seed (or from a Generator, which it advances)."""
    return _draw_gains(p.gaps, p.lengths, p.n, np.random.default_rng(seed))[0]


def _draw_gains(gaps, lengths, n, rng):
    """Read-only float64 rows of n gains from blocks laid end to end, block
    b lasting lengths[b] slots and redrawn until it lies gaps[b] from the
    block before it (0.0 opens a row), so the values change exactly at the
    declared points; each batch asks only for the values still missing."""
    vals, last, kept = [], 0.0, 0   # last: a sentinel before the first block
    while kept < len(gaps):
        for v in rng.uniform(H_MIN_DEFAULT, H_MAX_DEFAULT,
                             size=len(gaps) - kept).tolist():
            if abs(v - last) >= gaps[kept]:
                vals.append(v)
                last = v
                kept += 1
    h = np.array(vals).repeat(lengths).reshape(-1, n)
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


def _check_transform(kind, distance, n):
    if kind not in ("identity", "memory", "permutation"):
        raise ValueError(f"unknown direct_kind {kind!r}")
    if kind != "identity" and not 1 <= distance < n:
        raise ValueError("need 1 <= memory_distance < n for a "
                         f"{kind} transform")


@lru_cache(maxsize=16)
def _band(n, distance):
    """The read-only flat indices, in row-major order, of the band
    0 <= row - col <= distance of n x n memories."""
    band = np.flatnonzero(np.tri(n, dtype=bool)
                          & ~np.tri(n, k=-distance - 1, dtype=bool))
    band.setflags(write=False)
    return band


def direct_transform_matrix(kind, distance, n, seed):
    """Full-rank direct-link transform of the requested kind, with a
    read-only matrix."""
    _check_transform(kind, distance, n)
    if kind == "identity":
        # entry (i, j) reads line[n - i + j], the one unit iff i == j: an
        # exact identity in O(n) memory, so a config with a huge n costs
        # no n x n allocation when it loads
        line = np.zeros(2 * n + 1)
        line[n] = 1.0
        mat = np.lib.stride_tricks.as_strided(
            line[n:], (n, n), (-line.itemsize, line.itemsize))
        distance = 0
    elif kind == "memory":
        rng = np.random.default_rng(seed)
        band = _band(n, distance)
        mat = np.zeros((n, n))
        # a fresh array ravels to a view, so this fills mat in place
        mat.ravel()[band] = rng.uniform(H_MIN_DEFAULT, H_MAX_DEFAULT,
                                        size=len(band))
    else:
        rng = np.random.default_rng(seed)
        perm = _bounded_permutation(n, distance, rng)
        diag = rng.uniform(H_MIN_DEFAULT, H_MAX_DEFAULT, size=n)
        mat = np.zeros((n, n))
        mat[np.arange(n), perm] = diag[perm]
    # exactly nonsingular: triangular with a nonzero diagonal, or a scaled
    # permutation (a float rank test fails large ill-conditioned bands)
    if kind == "permutation":
        if not all(np.all(np.count_nonzero(mat, axis=a) == 1) for a in (0, 1)):
            raise ValueError("permutation transform is not a scaled permutation")
    elif not mat.diagonal().all():
        raise ValueError(f"{kind} transform has a zero on its diagonal")
    mat.setflags(write=False)
    return DirectTransform(kind, distance, mat)


def _is_int_nest(nest, K):
    """True when nest is a K x K nest of lists of integers (not booleans)."""
    return (isinstance(nest, (list, tuple)) and len(nest) == K
            and all(isinstance(row, (list, tuple)) and len(row) == K
                    and all(isinstance(cell, (list, tuple))
                            # an exact int skips the slower ABC check
                            and all(type(x) is int
                                    or isinstance(x, numbers.Integral)
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
    """Everything but the seed needed to sample a network instance;
    sample_network(config, seed) draws one deterministically.

    patterns[p][q] lists the change points of the link from transmitter q
    into receiver p; unknown[p][q] lists slots whose gain is hidden from
    the scheme constructors.  The config is frozen: its validated
    ChangingPattern and UnknownSet tables are built once, at construction,
    and every pattern() and unknown_set() call returns a stored object.
    An identity config also builds its one identity DirectTransform
    there, which every sampled instance shares.
    """
    K: int
    n: int
    patterns: list
    unknown: list = None
    direct_kind: str = "identity"
    memory_distance: int = 1
    # K x K tables of ChangingPattern and UnknownSet, built from the nests
    _pattern_table: tuple = field(init=False, repr=False, compare=False)
    _unknown_table: tuple = field(init=False, repr=False, compare=False)
    # the shared identity transform, or None for a drawn kind
    _identity: DirectTransform = field(init=False, repr=False, compare=False)
    # every link's block gaps and lengths, links in row-major (p, q) order
    _blocks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.unknown is None:
            # nothing hidden: one shared immutable nest of empty cells
            object.__setattr__(self, "unknown", (((),) * self.K,) * self.K)
        if not _is_int_nest(self.patterns, self.K):
            raise ValueError("patterns must be a K x K nest of integer lists")
        if not _is_int_nest(self.unknown, self.K):
            raise ValueError("unknown must be a K x K nest of integer lists")
        # checked here as well: a scheme may never draw a direct transform
        _check_transform(self.direct_kind, self.memory_distance, self.n)
        object.__setattr__(self, "_pattern_table", _cell_table(
            self.patterns, lambda c: ChangingPattern(self.n, c)))
        object.__setattr__(self, "_unknown_table", _cell_table(
            self.unknown, lambda c: UnknownSet(self.n, frozenset(c))))
        object.__setattr__(self, "_identity", direct_transform_matrix(
            "identity", 0, self.n, None)
            if self.direct_kind == "identity" else None)
        links = [p for row in self._pattern_table for p in row]
        object.__setattr__(self, "_blocks", (
            [g for p in links for g in p.gaps],
            np.array([b for p in links for b in p.lengths], dtype=int)))

    def pattern(self, p, q):
        return self._pattern_table[p][q]

    def unknown_set(self, p, q):
        return self._unknown_table[p][q]

    def to_dict(self):
        return {
            "K": self.K, "n": self.n,
            "patterns": [[list(c) for c in row] for row in self.patterns],
            "unknown": [[sorted(c) for c in row] for row in self.unknown],
            "direct_kind": self.direct_kind,
            "memory_distance": self.memory_distance,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(K=config_field(d, "K", json_int),
                   n=config_field(d, "n", json_int),
                   patterns=d["patterns"], unknown=d.get("unknown"),
                   direct_kind=d.get("direct_kind", "identity"),
                   memory_distance=config_field(d, "memory_distance",
                                                json_int, 1))


class _Transforms(dict):
    """receiver p -> its DirectTransform, drawn from p's own stream the first
    time ``[p]`` is read and then kept (a hit is a plain dict lookup); an
    identity config's is its stored one, drawn from nothing."""

    def __init__(self, config, seed):
        self.config, self.seed = config, seed

    def __missing__(self, p):
        config = self.config
        if p not in range(config.K):
            raise KeyError(p)
        value = self[p] = config._identity or direct_transform_matrix(
            config.direct_kind, config.memory_distance, config.n,
            [self.seed, 3, p])
        return value


# compared by identity: transforms are drawn on first read, and a
# field-wise == would compare arrays
@dataclass(frozen=True, eq=False)
class NetworkInstance:
    K: int
    n: int
    gains: np.ndarray       # read-only (K*K, n); row p*K + q is link (p, q)
    transforms: dict        # receiver -> DirectTransform, drawn on first read
    unknown: tuple          # the config's UnknownSet table
    seed: int

    def channel(self, p, q):
        if p not in range(self.K) or q not in range(self.K):
            raise KeyError((p, q))
        return self.gains[p * self.K + q]

    def unknown_set(self, p, q):
        return self.unknown[p][q]

    def received_matrix(self, p, q, precoder):
        """What receiver p sees of transmitter q's precoder columns x:
        ``h * (T @ x)`` on a direct link whose transform T is not the
        identity, ``h * x`` on every other link."""
        x = np.asarray(precoder, dtype=float)
        if p == q and self.transforms[p].kind != "identity":
            x = self.transforms[p].matrix @ x
        return self.channel(p, q)[:, None] * x


def sample_network(config: NetworkConfig, seed) -> NetworkInstance:
    """The network of (config, seed): every link's gains, drawn now from
    one generator over the links in row-major (p, q) order, and each
    receiver's direct transform, drawn from its own stream on first read.
    """
    # Keys of the generators a trial or a plan seeds, and where (2, 4 and 5
    # are retired):
    #   links                           [seed, 1]     sample_network
    #   receiver p's direct transform   [seed, 3, p]  _Transforms
    #   a shared plan's gains and fill  6             plan_shared
    #   a blind plan's mixer            7             plan_blind
    gains = _draw_gains(*config._blocks, config.n,
                        np.random.default_rng([seed, 1]))
    return NetworkInstance(K=config.K, n=config.n, gains=gains,
                           transforms=_Transforms(config, seed),
                           unknown=config._unknown_table, seed=seed)
