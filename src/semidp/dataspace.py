"""Finite categorical dataspaces, margin invariants, and adjacency geometry.

A dataspace holds n records, each a tuple of p feature levels (1-based).
Invariants are exact count statistics released without noise: per-feature
level counts (one-way margins) or counts over the product cells of grouped
features (joint margins). The operations here enumerate the datasets that
agree with a given invariant value and measure how far apart such datasets
sit in Hamming distance, which is what calibrates the widened adjacency
radius used downstream.

Datasets are immutable tuples, and enumeration order is lexicographic and
deterministic. The conforming set is enumerated breadth-first in numpy, and
its record codes are cached with it; a(t), indistinguishable pairs and
brute-force sensitivity spaces (``sensitivity``) share one blocked
pairwise-Hamming kernel over such codes, with one-byte distances up to 255
records. Indistinguishable pairs come back as a read-only set view over the
sorted distinct datasets and one int64 key per pair, not as pair tuples.
"""

from __future__ import annotations

import bisect
import itertools
import math
import numbers
from collections.abc import Set
from dataclasses import dataclass
from functools import lru_cache
from typing import AbstractSet, Iterable, Iterator, Sequence, Union

import numpy as np

#: Ceiling on the raw dataspace size (#cells ** n) for enumeration.
ENUMERATION_CAP = 10_000_000

#: Ceiling on |S|^2, the dataset pairs a pairwise-distance scan over S visits.
PAIR_CAP = 100_000_000

#: Distances computed per block of the pairwise scan (one byte each up to
#: 255 records per dataset, two bytes up to 65,535).
BLOCK_PAIRS = 4_000_000

Dataset = tuple[tuple[int, ...], ...]
InvariantValue = tuple[tuple[int, ...], ...]


class EnumerationCapExceeded(RuntimeError):
    """Raised when an enumeration would exceed the configured state cap."""


@dataclass(frozen=True)
class DataspaceSpec:
    """n records over p categorical features with the given level counts."""

    n: int
    levels: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not self.levels or any(l < 1 for l in self.levels):
            raise ValueError("levels must be a non-empty tuple of positive ints")

    @property
    def p(self) -> int:
        return len(self.levels)

    def cell_count(self) -> int:
        return math.prod(self.levels)

    def size(self) -> int:
        return self.cell_count() ** self.n


@dataclass(frozen=True)
class OneWayMargins:
    """Per-feature level counts for the listed features (0-based indices)."""

    features: tuple[int, ...]

    def groups(self) -> tuple[tuple[int, ...], ...]:
        return tuple((f,) for f in self.features)


@dataclass(frozen=True)
class JointMargins:
    """Counts over joint level combinations, one count vector per group."""

    groups_: tuple[tuple[int, ...], ...]

    def groups(self) -> tuple[tuple[int, ...], ...]:
        return self.groups_


InvariantSpec = Union[OneWayMargins, JointMargins]


def _validated_groups(spec: InvariantSpec, space: DataspaceSpec) -> tuple[tuple[int, ...], ...]:
    groups = spec.groups()
    seen: set[int] = set()
    for g in groups:
        for f in g:
            if not 0 <= f < space.p:
                raise ValueError(f"feature index {f} out of range for p={space.p}")
            if f in seen:
                raise ValueError(f"feature index {f} appears twice in the invariant")
            seen.add(f)
    return groups


def _group_sizes(groups: Sequence[tuple[int, ...]], space: DataspaceSpec) -> list[int]:
    return [math.prod(space.levels[f] for f in g) for g in groups]


def _group_cell(row: tuple[int, ...], group: tuple[int, ...], space: DataspaceSpec) -> int:
    # row-major index over the group's level ranges
    idx = 0
    for f in group:
        idx = idx * space.levels[f] + (row[f] - 1)
    return idx


def validate_dataset(space: DataspaceSpec, rows: Dataset) -> None:
    if len(rows) != space.n:
        raise ValueError(f"dataset has {len(rows)} rows, expected {space.n}")
    for row in rows:
        if len(row) != space.p:
            raise ValueError(f"row {row} has {len(row)} features, expected {space.p}")
        for f, level in enumerate(row):
            if not 1 <= level <= space.levels[f]:
                raise ValueError(f"level {level} out of range for feature {f}")


def hamming_distance(x: Dataset, y: Dataset) -> int:
    """Number of record positions at which two datasets differ."""
    if len(x) != len(y):
        raise ValueError("datasets must have the same number of rows")
    return sum(1 for a, b in zip(x, y) if a != b)


def invariant_eval(spec: InvariantSpec, x: Dataset, space: DataspaceSpec) -> InvariantValue:
    """Count vector per invariant group, evaluated on a dataset."""
    validate_dataset(space, x)
    groups = _validated_groups(spec, space)
    sizes = _group_sizes(groups, space)
    counts = [[0] * size for size in sizes]
    for row in x:
        for gi, g in enumerate(groups):
            counts[gi][_group_cell(row, g, space)] += 1
    return tuple(tuple(c) for c in counts)


def conforming_set(space: DataspaceSpec, spec: InvariantSpec, t: InvariantValue) -> list[Dataset]:
    """All datasets whose invariant equals t, in lexicographic order.

    Refused outright when the raw dataspace exceeds ``ENUMERATION_CAP``
    states. The last few sets are cached; each call returns a fresh list of
    the cached member objects.
    """
    return list(_conforming(space, spec, t)[0])


def _conforming(
    space: DataspaceSpec, spec: InvariantSpec, t: InvariantValue
) -> tuple[tuple[Dataset, ...], np.ndarray]:
    """The conforming datasets and their record codes, after the cap check."""
    if space.size() > ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"dataspace has {space.size()} states, above the cap of {ENUMERATION_CAP}"
        )
    return _conforming_cached(space, spec, tuple(map(tuple, t)))


@lru_cache(maxsize=8)
def _conforming_cached(
    space: DataspaceSpec, spec: InvariantSpec, t: InvariantValue
) -> tuple[tuple[Dataset, ...], np.ndarray]:
    """Breadth-first enumeration over record positions, in numpy.

    Records are coded by their row-major index over the levels. A state is a
    prefix of record codes plus the cell budgets it leaves. Each depth
    extends every state by every record whose cells all have budget left;
    ``np.nonzero`` lists the children state-major, record-minor, so the
    datasets come out in lexicographic order. Returns the datasets and their
    read-only (|S|, n) code array.
    """
    groups = _validated_groups(spec, space)
    sizes = _group_sizes(groups, space)
    if len(t) != len(groups):
        raise ValueError(f"invariant value has {len(t)} groups, expected {len(groups)}")
    for vec, size in zip(t, sizes):
        if len(vec) != size:
            raise ValueError("invariant count vector length does not match group size")
        if any(c < 0 for c in vec):
            raise ValueError("invariant counts must be non-negative")
    records = list(itertools.product(*[range(1, l + 1) for l in space.levels]))
    codes = np.zeros((1, 0), dtype=np.min_scalar_type(len(records) - 1))
    if any(sum(vec) != space.n for vec in t):
        codes = np.zeros((0, space.n), dtype=codes.dtype)
    else:
        # each record's column in the flat budget vector, one per group
        offsets = list(itertools.accumulate(sizes, initial=0))
        cells = np.array(
            [[off + _group_cell(r, g, space) for g, off in zip(groups, offsets)] for r in records],
            dtype=np.intp,
        )
        use = np.zeros((len(records), sum(sizes)), dtype=np.min_scalar_type(space.n))
        np.put_along_axis(use, cells, 1, axis=1)
        budget = np.array([c for vec in t for c in vec], dtype=use.dtype)[None, :]
        for _ in range(space.n):
            left = budget > 0
            feasible = np.ones((len(codes), len(records)), dtype=bool)
            for column in cells.T:
                feasible &= left[:, column]
            state, record = np.nonzero(feasible)
            codes = np.column_stack((codes[state], record.astype(codes.dtype)))
            budget = budget[state] - use[record]
    codes.setflags(write=False)
    # n consecutive records per dataset
    datasets = tuple(zip(*[map(records.__getitem__, codes.ravel().tolist())] * space.n))
    return datasets, codes


def _record_codes(datasets: Sequence[Dataset]) -> np.ndarray:
    """One row per dataset, each record replaced by a small integer id:
    records are numbered in order of first appearance."""
    lengths = set(map(len, datasets))
    if len(lengths) > 1:
        raise ValueError("datasets must have the same number of rows")
    ids = {r: i for i, r in enumerate(dict.fromkeys(itertools.chain.from_iterable(datasets)))}
    flat = map(ids.__getitem__, itertools.chain.from_iterable(datasets))
    return np.fromiter(flat, dtype=np.int32).reshape(len(datasets), max(lengths, default=0))


def _hamming_blocks(codes: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Pairwise Hamming distances between the rows of ``codes``, in row blocks.

    Yields (first, dist) where dist[i, j] is the distance between rows
    first + i and j; each block holds about BLOCK_PAIRS entries, in the
    smallest unsigned type that holds the row length (one byte up to 255
    records). The blocks share one buffer, so each is overwritten by the
    next. Refuses before computing any distance when |S|^2 exceeds PAIR_CAP.
    """
    m = len(codes)
    if m * m > PAIR_CAP:
        raise EnumerationCapExceeded(f"{m}^2 dataset pairs exceed the cap of {PAIR_CAP}")
    step = max(1, BLOCK_PAIRS // max(1, m))
    columns = np.ascontiguousarray(codes.T)
    dtype = np.min_scalar_type(codes.shape[1])

    def blocks() -> Iterator[tuple[int, np.ndarray]]:
        buffer = np.empty((min(step, m), m), dtype=dtype)
        differ = np.empty(buffer.shape, dtype=bool)
        for first in range(0, m, step):
            rows = min(step, m - first)
            dist, ne = buffer[:rows], differ[:rows]
            dist.fill(0)
            for column in columns:
                np.not_equal(column[first:first + rows, None], column, out=ne)
                np.add(dist, ne, out=dist)
            yield first, dist

    return blocks()


def semi_adjacent_parameter(space: DataspaceSpec, spec: InvariantSpec, t: InvariantValue) -> int:
    """Worst-case replacement radius within the invariant-conforming set.

    For every conforming dataset X, record position i, and feasible record
    value y for that position, some conforming dataset Y with Y_i = y must
    exist within the returned Hamming radius; the value is the maximum over
    (X, i, y) of the distance to the nearest such Y. A singleton conforming
    set yields 0: nothing is left to protect. Reads the record codes cached
    with the conforming set.
    """
    codes = _conforming(space, spec, t)[1]
    if not len(codes):
        raise ValueError("conforming set is empty; invariant value is infeasible")
    if len(codes) == 1:
        return 0
    # per position: datasets sorted by their record there, and where each record's run starts
    runs = []
    for column in codes.T:
        order = np.argsort(column, kind="stable")
        held = column[order]
        runs.append((order, np.flatnonzero(np.r_[True, held[1:] != held[:-1]])))
    worst = 0
    for _, dist in _hamming_blocks(codes):
        # to_block[j, i] is the distance from dataset j to dataset first + i; a block
        # holding every row is the whole symmetric matrix, so it needs no transpose
        to_block = dist if len(dist) == len(codes) else np.ascontiguousarray(dist.T)
        for order, starts in runs:
            # distance from each X in the block to the nearest Y holding each record y
            # at this position; y = X_i contributes 0 (Y = X), so it needs no exclusion
            nearest = np.minimum.reduceat(to_block.take(order, axis=0), starts, axis=0)
            worst = max(worst, int(nearest.max()))
    return worst


def semi_adjacent_bound(p: int) -> int:
    """Replacement-radius bound for one-way margins over p features: p + 1."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return p + 1


def _check_integer(value, name: str, minimum: int) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is an integer
    (numpy integers included) at or above ``minimum``."""
    # a plain int skips the ABC check, which costs about 1 us
    if type(value) is not int and not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


class _PairView(Set):
    """Read-only set of (X, Y) dataset pairs, X < Y, held as index keys.

    ``items`` are the sorted distinct datasets; ``keys`` is the sorted int64
    array of i * m + j for each pair (items[i], items[j]), i < j, where
    m = len(items). Membership bisects both datasets and then the keys; set
    algebra (``|``, ``&``, ``-``, ``^``) returns builtin sets.
    """

    __slots__ = ("_items", "_keys")

    def __init__(self, items: tuple[Dataset, ...], keys: np.ndarray) -> None:
        keys.setflags(write=False)
        self._items, self._keys = items, keys

    @classmethod
    def _from_iterable(cls, it: Iterable) -> set:
        return set(it)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, pair: object) -> bool:
        if not isinstance(pair, tuple) or len(pair) != 2:
            return False
        items = self._items
        try:
            i = bisect.bisect_left(items, pair[0])
            j = bisect.bisect_left(items, pair[1], i + 1)
        except TypeError:  # not comparable with datasets, so not a member
            return False
        if j >= len(items) or items[i] != pair[0] or items[j] != pair[1]:
            return False
        key = i * len(items) + j
        at = int(np.searchsorted(self._keys, key))
        return at < len(self._keys) and int(self._keys[at]) == key

    def __iter__(self) -> Iterator[tuple[Dataset, Dataset]]:
        items, m, chunk = self._items, len(self._items), 65_536
        # decode the keys a chunk at a time, so iterating holds no list of all pairs
        for first in range(0, len(self._keys), chunk):
            i, j = np.divmod(self._keys[first:first + chunk], m)
            yield from zip(map(items.__getitem__, i.tolist()), map(items.__getitem__, j.tolist()))


def indistinguishable_pairs(
    datasets: Iterable[Dataset], radius: int
) -> AbstractSet[tuple[Dataset, Dataset]]:
    """Unordered pairs of distinct datasets within the given Hamming radius.

    Returns a read-only set of (X, Y) with X < Y; repeated datasets count
    once. ``len`` is O(1), membership costs a bisection, iteration builds
    pairs lazily, and ``|``, ``&``, ``-`` with another set return builtin
    sets. The pairs are held as int64 keys into the sorted distinct
    datasets, 8 bytes a pair, plus one distance block while they are found.
    Raises ``ValueError`` unless the radius is an integer >= 0, and
    ``EnumerationCapExceeded`` when the distinct datasets number more than
    the square root of ``PAIR_CAP``.
    """
    _check_integer(radius, "radius", 0)
    items = tuple(sorted(set(datasets)))
    m = len(items)
    keys = [np.empty(0, dtype=np.int64)]
    for first, dist in _hamming_blocks(_record_codes(items)):
        # entry (r, c) of the slice pairs datasets first + r and first + c; distinct
        # datasets differ somewhere, so the pairs are the entries c > r within the radius
        r, c = np.divmod(np.flatnonzero(dist[:, first:] <= radius), m - first)
        upper = c > r
        keys.append((r[upper] + first) * m + c[upper] + first)
    return _PairView(items, np.concatenate(keys))
