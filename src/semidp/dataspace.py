"""Finite categorical dataspaces, margin invariants, and adjacency geometry.

A dataspace holds n records, each a tuple of p feature levels (1-based).
Invariants are exact count statistics released without noise: per-feature
level counts (one-way margins) or counts over the product cells of grouped
features (joint margins). The operations here enumerate the datasets that
agree with a given invariant value and measure how far apart such datasets
sit in Hamming distance, which is what calibrates the widened adjacency
radius used downstream.

Everything is pure and operates on immutable tuples; enumeration order is
lexicographic and deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

#: Ceiling on the raw dataspace size (#cells ** n) for enumeration.
ENUMERATION_CAP = 10_000_000

#: Ceiling on |S|^2, the dataset pairs a pairwise-distance scan over S visits.
PAIR_CAP = 100_000_000

#: Distances computed per block of the pairwise scan (4 bytes each).
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

    Enumeration is a depth-first search over rows with pruning on the
    remaining per-cell budgets, refused outright when the raw dataspace
    exceeds ``ENUMERATION_CAP`` states. The last few sets are cached; each
    call returns a fresh list.
    """
    if space.size() > ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"dataspace has {space.size()} states, above the cap of {ENUMERATION_CAP}"
        )
    return list(_conforming_tuple(space, spec, tuple(map(tuple, t))))


@lru_cache(maxsize=8)
def _conforming_tuple(
    space: DataspaceSpec, spec: InvariantSpec, t: InvariantValue
) -> tuple[Dataset, ...]:
    groups = _validated_groups(spec, space)
    sizes = _group_sizes(groups, space)
    if len(t) != len(groups):
        raise ValueError(f"invariant value has {len(t)} groups, expected {len(groups)}")
    for vec, size in zip(t, sizes):
        if len(vec) != size:
            raise ValueError("invariant count vector length does not match group size")
        if any(c < 0 for c in vec):
            raise ValueError("invariant counts must be non-negative")
    if any(sum(vec) != space.n for vec in t):
        return ()

    row_values = list(itertools.product(*[range(1, l + 1) for l in space.levels]))
    row_cells = [
        tuple(_group_cell(row, g, space) for g in groups) for row in row_values
    ]
    remaining = [list(vec) for vec in t]
    out: list[Dataset] = []
    prefix: list[tuple[int, ...]] = []

    def recurse(depth: int) -> None:
        if depth == space.n:
            out.append(tuple(prefix))
            return
        for row, cells in zip(row_values, row_cells):
            ok = True
            for gi, cell in enumerate(cells):
                if remaining[gi][cell] == 0:
                    ok = False
                    break
            if not ok:
                continue
            for gi, cell in enumerate(cells):
                remaining[gi][cell] -= 1
            prefix.append(row)
            recurse(depth + 1)
            prefix.pop()
            for gi, cell in enumerate(cells):
                remaining[gi][cell] += 1

    recurse(0)
    return tuple(out)


def _record_codes(datasets: Sequence[Dataset]) -> np.ndarray:
    """One row per dataset, each record replaced by a small integer id."""
    lengths = {len(x) for x in datasets}
    if len(lengths) > 1:
        raise ValueError("datasets must have the same number of rows")
    ids: dict[tuple[int, ...], int] = {}
    codes = [[ids.setdefault(r, len(ids)) for r in x] for x in datasets]
    return np.array(codes, dtype=np.int32).reshape(len(codes), max(lengths, default=0))


def _hamming_blocks(codes: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Pairwise Hamming distances between the rows of ``codes``, in row blocks.

    Yields (first, dist) where dist[i, j] is the distance between rows
    first + i and j; each block holds about BLOCK_PAIRS entries. Refuses
    before computing any distance when |S|^2 exceeds PAIR_CAP.
    """
    m = len(codes)
    if m * m > PAIR_CAP:
        raise EnumerationCapExceeded(f"{m}^2 dataset pairs exceed the cap of {PAIR_CAP}")
    step = max(1, BLOCK_PAIRS // max(1, m))
    columns = np.ascontiguousarray(codes.T)

    def blocks() -> Iterator[tuple[int, np.ndarray]]:
        for first in range(0, m, step):
            dist = np.zeros((min(step, m - first), m), dtype=np.int32)
            for column in columns:
                dist += column[first:first + step, None] != column
            yield first, dist

    return blocks()


def semi_adjacent_parameter(space: DataspaceSpec, spec: InvariantSpec, t: InvariantValue) -> int:
    """Worst-case replacement radius within the invariant-conforming set.

    For every conforming dataset X, record position i, and feasible record
    value y for that position, some conforming dataset Y with Y_i = y must
    exist within the returned Hamming radius; the value is the maximum over
    (X, i, y) of the distance to the nearest such Y. A singleton conforming
    set yields 0: nothing is left to protect.
    """
    datasets = conforming_set(space, spec, t)
    if not datasets:
        raise ValueError("conforming set is empty; invariant value is infeasible")
    if len(datasets) == 1:
        return 0
    codes = _record_codes(datasets)
    # per position: datasets sorted by their record there, and where each record's run starts
    runs = []
    for column in codes.T:
        order = np.argsort(column, kind="stable")
        runs.append((order, np.flatnonzero(np.diff(column[order], prepend=-1))))
    worst = 0
    for _, dist in _hamming_blocks(codes):
        for order, starts in runs:
            # distance from each X in the block to the nearest Y holding each record y
            # at this position; y = X_i contributes 0 (Y = X), so it needs no exclusion
            nearest = np.minimum.reduceat(dist[:, order], starts, axis=1)
            worst = max(worst, int(nearest.max()))
    return worst


def semi_adjacent_bound(p: int) -> int:
    """Replacement-radius bound for one-way margins over p features: p + 1."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return p + 1


def indistinguishable_pairs(
    datasets: Iterable[Dataset], radius: int
) -> set[tuple[Dataset, Dataset]]:
    """Unordered pairs of distinct datasets within the given Hamming radius."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    items = list(datasets)
    out: set[tuple[Dataset, Dataset]] = set()
    for first, dist in _hamming_blocks(_record_codes(items)):
        ii, jj = np.nonzero((dist >= 1) & (dist <= radius))
        upper = ii + first < jj
        for i, j in zip((ii[upper] + first).tolist(), jj[upper].tolist()):
            a, b = items[i], items[j]
            out.add((a, b) if a <= b else (b, a))
    return out
