"""Sensitivity spaces: query differences over adjacent datasets.

A sensitivity space collects phi(X) - phi(X') over all dataset pairs the
adjacency relation protects. Its span tells a mechanism which directions
need noise at all; its convex hull is the unit ball of the gauge norm used
by the optimal hull-calibrated mechanism. The hull is held once per space in
span coordinates (``hull_geometry``), and one LP over it serves both the
gauge and hull membership: the gauge is the support function of the polar
body, solved by the one-phase simplex in ``simplex``, and membership is the
same LP stopped once the gauge passes 1.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .dataspace import DataspaceSpec, Dataset, _hamming_blocks, _record_codes
from .simplex import solve_lp

#: Gram-Schmidt drops residuals below RANK_TOL times the largest vector norm.
RANK_TOL = 1e-10

#: Hull tolerance: membership accepts gauges up to 1 + HULL_TOL, and a point
#: whose residual off the span exceeds HULL_TOL * max(1, |v|) has gauge inf.
HULL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SensitivitySpace:
    """A finite, negation-closed set of integer difference vectors: a
    read-only (m, d) int64 array, rows put in lexicographic order by the
    constructor (so they are distinct when they strictly increase, and
    negation-closed when negating reverses them). Equality compares
    provenance too; the hash, the same in every process, leaves it out.
    """

    array: np.ndarray
    provenance: str

    def __post_init__(self) -> None:
        arr = np.asarray(self.array, dtype=np.int64)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("sensitivity space must be a non-empty (m, d) array of vectors")
        arr = arr[np.lexsort(arr.T[::-1])]
        if not (arr[1:] != arr[:-1]).any(axis=1).all():
            raise ValueError("sensitivity vectors must be deduplicated")
        if not np.array_equal(arr, -arr[::-1]):
            raise ValueError("sensitivity space must be closed under negation")
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)
        digest = hashlib.blake2b(arr, digest_size=8).digest()
        object.__setattr__(self, "_hash", hash((arr.shape, int.from_bytes(digest, "little"))))

    def __eq__(self, other) -> bool:
        return (isinstance(other, SensitivitySpace) and self._hash == other._hash
                and self.provenance == other.provenance and np.array_equal(self.array, other.array))

    def __hash__(self) -> int:
        return self._hash

    @property
    def ambient_dim(self) -> int:
        return self.array.shape[1]

    @property
    def vectors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.array.tolist()))


def cell_count_query(space: DataspaceSpec) -> Callable[[Dataset], tuple[int, ...]]:
    """Query mapping a dataset to its joint cell counts, row-major."""
    sizes = space.levels

    def query(x: Dataset) -> tuple[int, ...]:
        counts = [0] * space.cell_count()
        for row in x:
            idx = 0
            for f, level in enumerate(row):
                idx = idx * sizes[f] + (level - 1)
            counts[idx] += 1
        return tuple(counts)

    return query


def brute_force_sensitivity_space(
    space: DataspaceSpec,
    subset: Sequence[Dataset],
    query: Callable[[Dataset], tuple[int, ...]],
    radius: int,
) -> SensitivitySpace:
    """Exact difference set over all ordered pairs within the radius.

    Pairs are reduced to pairs of distinct query values before any
    difference is taken. Refused with ``EnumerationCapExceeded`` when
    |subset|^2 exceeds ``dataspace.PAIR_CAP``. ``space`` is not read; it
    stays in the signature for callers that pass arguments positionally.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    subset = list(subset)
    if not subset:
        raise ValueError("subset must be non-empty")
    blocks = _hamming_blocks(_record_codes(subset))
    values = np.array([query(x) for x in subset], dtype=np.int64)
    unique, vid = np.unique(values, axis=0, return_inverse=True)
    vid = vid.reshape(-1)
    seen = np.zeros((len(unique), len(unique)), dtype=bool)
    for first, dist in blocks:
        ii, jj = np.nonzero(dist <= radius)
        seen[vid[ii + first], vid[jj]] = True
    a, b = np.nonzero(seen)
    diffs = np.unique(unique[a] - unique[b], axis=0)
    return SensitivitySpace(diffs, f"brute_force(radius={radius}, subset)")


def contingency_s_semi(r: int, c: int) -> SensitivitySpace:
    """Margin-preserving four-cell moves of an r x c table, plus zero.

    Each nonzero element places +1 at cells (i, j) and (k, l) and -1 at
    (i, l) and (k, j) for distinct rows i != k and columns j != l, vectorized
    row-major. Row and column sums of every element are zero.

    Under fixed one-way margins this family is exactly the difference set of
    conforming dataset pairs at Hamming radius 2. At the radius a(t) = 3 it
    is the whole difference set only for 2-row or 2-column tables: when
    r, c >= 3, three records can rotate their column among themselves, and
    radius 3 adds those six-entry differences.
    """
    if r < 2 or c < 2:
        raise ValueError("r and c must both be >= 2")
    return _table_space("semi", r, c)


def contingency_s_dp(r: int, c: int) -> SensitivitySpace:
    """Single-record moves of an r x c table: one +1, one -1, plus zero."""
    if r < 1 or c < 1:
        raise ValueError("r and c must both be >= 1")
    return _table_space("dp", r, c)


@lru_cache(maxsize=32)
def _table_space(kind: str, r: int, c: int) -> SensitivitySpace:
    """The semi or dp space of an r x c table, built once per (kind, r, c)."""
    d = r * c
    if kind == "semi":
        # one row per move with i < k and j != l; (k, i, l, j) is the same move
        upper = np.triu(np.ones((r, r), dtype=bool), 1)
        i, k, j, l = np.nonzero(upper[:, :, None, None] & ~np.eye(c, dtype=bool))
        plus, minus = (i * c + j, k * c + l), (i * c + l, k * c + j)
    else:
        # one row per ordered pair of distinct cells
        a, b = np.nonzero(~np.eye(d, dtype=bool))
        plus, minus = (a,), (b,)
    V = np.zeros((len(plus[0]) + 1, d), dtype=np.int64)
    rows = np.arange(1, len(V))[:, None]
    V[rows, np.transpose(plus)] = 1
    V[rows, np.transpose(minus)] = -1
    name = "contingency_margins" if kind == "semi" else "contingency_single_move"
    return SensitivitySpace(V, f"{name}({r}x{c})")


def lp_sensitivity(space: SensitivitySpace, p) -> float:
    """Largest l_p norm over the space, p in {1, 2, inf}."""
    arr = space.array
    if p == 1:
        return float(np.abs(arr).sum(axis=1).max())
    if p == 2:
        return math.sqrt(np.einsum("ij,ij->i", arr, arr).max())
    if p in (math.inf, "inf"):
        return float(np.abs(arr).max())
    raise ValueError(f"p must be 1, 2, or inf, got {p!r}")


@dataclass(frozen=True)
class OrthonormalBasis:
    """Orthonormal basis of the span, one vector per row."""

    vectors: np.ndarray  # shape (s, d)

    def __post_init__(self) -> None:
        v = self.vectors
        if v.size:
            gram = v @ v.T
            if not np.allclose(gram, np.eye(v.shape[0]), atol=1e-10):
                raise ValueError("basis vectors are not orthonormal to 1e-10")

    @property
    def s(self) -> int:
        return int(self.vectors.shape[0])


def span_basis(space: SensitivitySpace) -> OrthonormalBasis:
    """Orthonormal span basis by modified Gram-Schmidt with pivoting.

    Residuals below ``RANK_TOL`` times the largest input norm are discarded.
    Each basis vector is sign-normalized so its first nonzero entry is
    positive.
    """
    # the cache lives on its own name, so a wrapper installed over ``span_basis``
    # (as the benchmark tracer does) leaves it reachable for ``cache_clear``
    return _span_basis_cached(space)


@lru_cache(maxsize=128)
def _span_basis_cached(space: SensitivitySpace) -> OrthonormalBasis:
    residual = space.array.astype(float)
    max_norm = float(np.sqrt((residual**2).sum(axis=1)).max())
    threshold = RANK_TOL * max_norm
    basis: list[np.ndarray] = []
    while True:
        norms = np.sqrt((residual**2).sum(axis=1))
        pick = int(np.argmax(norms))
        if norms[pick] <= threshold:
            break
        u = residual[pick] / norms[pick]
        first = np.nonzero(np.abs(u) > 1e-12)[0][0]
        if u[first] < 0:
            u = -u
        basis.append(u)
        residual -= np.outer(residual @ u, u)
    vectors = np.array(basis).reshape(len(basis), space.ambient_dim)
    vectors.setflags(write=False)
    return OrthonormalBasis(vectors=vectors)


def projection_matrix(basis: OrthonormalBasis, d: int) -> np.ndarray:
    """Orthogonal projector onto the basis span: sum of u u'."""
    if basis.vectors.shape[1] != d:
        raise ValueError(f"basis has dimension {basis.vectors.shape[1]}, expected {d}")
    return basis.vectors.T @ basis.vectors


@dataclass(frozen=True)
class HullGeometry:
    """The hull of a space in span coordinates.

    ``coords`` holds each vector's coordinates in the span basis, one row
    per vector, and ``box`` the half-widths of the axis-aligned box that
    bounds them.
    """

    basis: OrthonormalBasis
    coords: np.ndarray  # (m, s)
    box: np.ndarray  # (s,)

    @property
    def s(self) -> int:
        return self.basis.s


@lru_cache(maxsize=128)
def hull_geometry(space: SensitivitySpace) -> HullGeometry:
    """The space's hull in span coordinates, computed once per space."""
    basis = span_basis(space)
    coords = space.array.astype(float) @ basis.vectors.T
    box = np.abs(coords).max(axis=0)
    coords.setflags(write=False)
    box.setflags(write=False)
    return HullGeometry(basis=basis, coords=coords, box=box)


def _gauge_lp(space: SensitivitySpace, v, stop_above: float) -> float:
    """Gauge of v over hull(space), or a value above ``stop_above``.

    inf outside the span. Inside it, with y the span coordinates of v and C
    the vertex coordinates, the gauge is the support function of the polar
    body: max y'z subject to Cz <= 1, with z = z+ - z- split into
    non-negative parts.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (space.ambient_dim,):
        raise ValueError("v must match the ambient dimension")
    if not np.isfinite(v).all():
        raise ValueError("v must be finite")
    geom = hull_geometry(space)
    y = geom.basis.vectors @ v
    residual = v - y @ geom.basis.vectors
    if math.sqrt(residual @ residual) > HULL_TOL * max(1.0, math.sqrt(v @ v)):
        return math.inf
    C = geom.coords
    return solve_lp(
        np.hstack([C, -C]), np.ones(C.shape[0]), np.concatenate([y, -y]), stop_above=stop_above
    )


def hull_membership(space: SensitivitySpace, v) -> bool:
    """True when v lies in the convex hull of the space's vectors, that is,
    when its gauge is at most 1 + ``HULL_TOL``. The gauge LP stops as soon
    as it passes that bound.
    """
    return _gauge_lp(space, v, 1.0 + HULL_TOL) <= 1.0 + HULL_TOL


def gauge_norm(space: SensitivitySpace, v) -> float:
    """Gauge of v with unit ball hull(space): the least t >= 0 with v in
    t * hull(space).

    Returns inf when v lies outside the span (no finite scaling of the hull
    can reach it).
    """
    return _gauge_lp(space, v, math.inf)


def sensitivity_space_to_csv(space: SensitivitySpace) -> str:
    """One vector per line, components comma-separated."""
    return "\n".join(",".join(map(str, v)) for v in space.array.tolist()) + "\n"

