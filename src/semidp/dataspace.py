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
Hamming kernel over such codes, with one-byte distances up to 255 records.
a(t) reads the cached codes; pairs and brute force read them too when they
are handed a list whose members are, in order, the very objects of a cached
set (``_cached_conforming``), and code any other list afresh. a(t) scans
only one dataset per class of datasets that agree up to permuting their
records after the first. Indistinguishable pairs come back as a read-only
set view over the sorted distinct datasets and one int64 key per pair, not
as pair tuples.
"""

from __future__ import annotations

import bisect
import itertools
import math
import numbers
import operator
import weakref
from collections import defaultdict
from collections.abc import Set
from dataclasses import dataclass
from functools import lru_cache
from typing import AbstractSet, Iterable, Iterator, Sequence, Union

import numpy as np

#: Ceiling on the raw dataspace size (#cells ** n) for enumeration.
ENUMERATION_CAP = 10_000_000

#: Ceiling on the dataset pairs a distance scan visits: |S|^2 for pairs and
#: brute-force sensitivity spaces, R * |S| for a(t), which scans R rows.
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
        _check_integer(self.n, "n", 1)
        if not self.levels:
            raise ValueError("levels must be a non-empty tuple of positive ints")
        for level in self.levels:
            _check_integer(level, "levels", 1)

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
        for f, (level, top) in enumerate(zip(row, space.levels)):
            if _check_integer(level, f"feature {f}'s level", 1) > top:
                raise ValueError(f"feature {f}'s level must be <= {top}, got {level!r}")


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
    return list(_conforming(space, spec, t).datasets)


class _Conforming:
    """One enumerated conforming set: its datasets, their read-only (|S|, n)
    record codes (each record's row-major cell index over ``levels``) and
    the levels."""

    __slots__ = ("datasets", "codes", "levels", "__weakref__")

    def __init__(self, datasets: tuple[Dataset, ...], codes: np.ndarray, levels: tuple[int, ...]):
        self.datasets, self.codes, self.levels = datasets, codes, levels


#: Each cached conforming set by the id of its first dataset. The values are
#: weak, so a set leaves as soon as ``_conforming_cached`` drops it, and while
#: it lives its first dataset does, so the id names no other object.
_CONFORMING: weakref.WeakValueDictionary[int, _Conforming] = weakref.WeakValueDictionary()


def _cached_conforming(datasets: list) -> _Conforming | None:
    """The cached conforming set whose members are, in order, the very
    objects of ``datasets``, or None. Compares identities alone: no
    dataset is hashed, compared or iterated."""
    found = _CONFORMING.get(id(datasets[0])) if datasets else None
    if (found is not None and len(found.datasets) == len(datasets)
            and all(map(operator.is_, datasets, found.datasets))):
        return found
    return None


def _conforming(space: DataspaceSpec, spec: InvariantSpec, t: InvariantValue) -> _Conforming:
    """The cached conforming set, after the cap check."""
    if space.size() > ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"dataspace has {space.size()} states, above the cap of {ENUMERATION_CAP}"
        )
    return _conforming_cached(space, spec, tuple(map(tuple, t)))


@lru_cache(maxsize=8)
def _conforming_cached(space: DataspaceSpec, spec: InvariantSpec, t: InvariantValue) -> _Conforming:
    """Breadth-first enumeration over record positions, in numpy.

    Records are coded by their row-major index over the levels. A state is a
    prefix of record codes plus the cell budgets it leaves. Each depth
    extends every state by every record whose cells all have budget left;
    ``np.nonzero`` lists the children state-major, record-minor, so the
    datasets come out in lexicographic order. Returns the datasets with
    their read-only (|S|, n) code array, and registers them in
    ``_CONFORMING``.
    """
    groups = _validated_groups(spec, space)
    sizes = _group_sizes(groups, space)
    if len(t) != len(groups):
        raise ValueError(f"invariant value has {len(t)} groups, expected {len(groups)}")
    for vec, size in zip(t, sizes):
        if len(vec) != size:
            raise ValueError("invariant count vector length does not match group size")
        for count in vec:
            _check_integer(count, "invariant counts", 0)
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
    found = _Conforming(datasets, codes, space.levels)
    if datasets:
        _CONFORMING[id(datasets[0])] = found
    return found


def _record_codes(datasets: Sequence[Dataset]) -> np.ndarray:
    """One row per dataset, each record replaced by an integer id: 0 to R - 1
    over the R distinct records, in order of first appearance. Dense ids keep
    the largest one below R, so ``_hamming_blocks`` narrows them to one byte
    whenever at most 256 records are distinct."""
    lengths = set(map(len, datasets))
    if len(lengths) > 1:
        raise ValueError("datasets must have the same number of rows")
    # each record missing from ids is given the next count: 0, 1, 2, ...
    ids: defaultdict[tuple[int, ...], int] = defaultdict(itertools.count().__next__)
    flat = map(ids.__getitem__, itertools.chain.from_iterable(datasets))
    return np.fromiter(flat, dtype=np.int64).reshape(len(datasets), max(lengths, default=0))


def _check_pairs(rows: int, columns: int) -> None:
    """Refuse a distance scan of rows x columns dataset pairs above PAIR_CAP."""
    if rows * columns > PAIR_CAP:
        raise EnumerationCapExceeded(
            f"{rows} x {columns} dataset pairs exceed the cap of {PAIR_CAP}"
        )


def _hamming_blocks(
    codes: np.ndarray, rows: np.ndarray | None = None
) -> Iterator[tuple[int, np.ndarray]]:
    """Hamming distances from the rows of ``codes`` listed in ``rows`` (all
    rows when None) to every row of ``codes``, in blocks of rows.

    Yields (first, dist) where dist[i, j] is the distance between row
    rows[first + i] (row first + i when ``rows`` is None) and row j; each
    block holds about BLOCK_PAIRS entries, in the smallest unsigned type that
    holds the row length (one byte up to 255 records). The codes are compared
    in the smallest unsigned type that holds their largest id. The blocks
    share one buffer, so each is overwritten by the next. Refuses before
    computing any distance when len(rows) * |S| exceeds PAIR_CAP.
    """
    m = len(codes)
    picked = m if rows is None else len(rows)
    _check_pairs(picked, m)
    step = max(1, BLOCK_PAIRS // max(1, m))
    columns = np.ascontiguousarray(codes.T, dtype=np.min_scalar_type(codes.max(initial=0)))
    sources = columns if rows is None else columns[:, rows]
    dtype = np.min_scalar_type(codes.shape[1])

    def blocks() -> Iterator[tuple[int, np.ndarray]]:
        buffer = np.empty((min(step, picked), m), dtype=dtype)
        differ = np.empty(buffer.shape, dtype=bool)
        for first in range(0, picked, step):
            count = min(step, picked - first)
            dist, ne = buffer[:count], differ[:count]
            dist.fill(0)
            for source, column in zip(sources, columns):
                np.not_equal(source[first:first + count, None], column, out=ne)
                np.add(dist, ne.view(np.uint8), out=dist)
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

    Every invariant counts records, so permuting the positions maps the
    conforming set S onto itself and every position attains the same maximum:
    only position 0 is reduced. The nearest Y to X then depends only on X's
    first record and the multiset of its others, so the kernel scans one
    dataset per such class, the one whose records after the first are sorted
    (R rows), against all of S; ``PAIR_CAP`` bounds R * |S|.
    """
    codes = _conforming(space, spec, t).codes
    if not len(codes):
        raise ValueError("conforming set is empty; invariant value is infeasible")
    if len(codes) == 1:
        return 0
    rows = np.flatnonzero((codes[:, 2:] >= codes[:, 1:-1]).all(axis=1))
    # S is in lexicographic order, so position 0 already holds runs of equal records
    held = codes[:, 0]
    starts = np.flatnonzero(np.r_[True, held[1:] != held[:-1]])
    worst = 0
    for _, dist in _hamming_blocks(codes, rows):
        # distance from each scanned X to the nearest Y holding each record y at
        # position 0; y = X_0 contributes 0 (Y = X), so it needs no exclusion
        worst = max(worst, int(np.minimum.reduceat(dist, starts, axis=1).max()))
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
    datasets, 8 bytes a pair, plus one bit a pair and one block of keys
    while they are found. Handed the very member objects of a cached
    conforming set, in order (as ``conforming_set`` returns them), it reads
    that set's datasets and record codes, already distinct and sorted,
    instead of sorting and coding the list.
    Raises ``ValueError`` unless the radius is an integer >= 0, and
    ``EnumerationCapExceeded``, before any dataset is sorted or coded, when
    the datasets given number more than the square root of ``PAIR_CAP``.
    """
    _check_integer(radius, "radius", 0)
    datasets = list(datasets)
    _check_pairs(len(datasets), len(datasets))
    cached = _cached_conforming(datasets)
    if cached is not None:
        items, codes = cached.datasets, cached.codes
    else:
        # a dict dedups in input order, so already-sorted input sorts in one pass
        items = tuple(sorted(dict.fromkeys(datasets)))
        codes = _record_codes(items)
    m = len(items)
    later = np.arange(m, dtype=np.min_scalar_type(m))
    # count each block's pairs and keep them as bits (|S|^2 / 8 bytes in all),
    # then fill one exact-size key array, so the kernel runs once
    found = []
    for first, dist in _hamming_blocks(codes):
        # entry (r, c) pairs datasets first + r and c; distinct datasets differ
        # somewhere, so the pairs are the entries c > first + r within the radius
        hit = dist <= radius
        hit &= later > later[first:first + len(hit), None]
        found.append((first, hit.size, np.count_nonzero(hit), np.packbits(hit, axis=None)))
    keys = np.empty(sum(count for _, _, count, _ in found), dtype=np.int64)
    end = 0
    for first, size, count, bits in found:
        hit = np.unpackbits(bits, count=size).view(bool)
        np.add(np.flatnonzero(hit), first * m, out=keys[end:end + count])
        end += count
    return _PairView(items, keys)
