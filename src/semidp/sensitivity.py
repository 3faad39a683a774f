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


@dataclass(frozen=True)
class SensitivitySpace:
    """A finite, negation-closed set of integer difference vectors."""

    vectors: tuple[tuple[int, ...], ...]
    ambient_dim: int
    provenance: str

    def __post_init__(self) -> None:
        if not self.vectors:
            raise ValueError("sensitivity space must contain at least one vector")
        seen = set(self.vectors)
        if len(seen) != len(self.vectors):
            raise ValueError("sensitivity vectors must be deduplicated")
        for v in self.vectors:
            if len(v) != self.ambient_dim:
                raise ValueError("all vectors must have the ambient dimension")
            if tuple(-x for x in v) not in seen:
                raise ValueError("sensitivity space must be closed under negation")
        # Tuples do not cache their hash, and every cache keyed on a space
        # hashes it; provenance is left out so the value is the same in every
        # process (str hashes are salted per process).
        object.__setattr__(self, "_hash", hash((self.vectors, self.ambient_dim)))

    def __hash__(self) -> int:
        return self._hash

    def as_array(self) -> np.ndarray:
        return _vectors_array(self).copy()

    def nonzero(self) -> tuple[tuple[int, ...], ...]:
        zero = (0,) * self.ambient_dim
        return tuple(v for v in self.vectors if v != zero)


@lru_cache(maxsize=128)
def _vectors_array(space: SensitivitySpace) -> np.ndarray:
    arr = np.array(space.vectors, dtype=float)
    arr.setflags(write=False)
    return arr


def cell_count_query(space: DataspaceSpec) -> Callable[[Dataset], tuple[int, ...]]:
    """Query mapping a dataset to its joint cell counts, row-major."""
    sizes = space.levels

    def query(x: Dataset) -> tuple[int, ...]:
        d = space.cell_count()
        counts = [0] * d
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
    diffs = sorted(set(map(tuple, (unique[a] - unique[b]).tolist())))
    return SensitivitySpace(tuple(diffs), values.shape[1], f"brute_force(radius={radius}, subset)")


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
    rows = np.arange(1, len(V))
    for cells in plus:
        V[rows, cells] = 1
    for cells in minus:
        V[rows, cells] = -1
    name = "contingency_margins" if kind == "semi" else "contingency_single_move"
    return SensitivitySpace(tuple(sorted(map(tuple, V.tolist()))), d, f"{name}({r}x{c})")


def lp_sensitivity(space: SensitivitySpace, p) -> float:
    """Largest l_p norm over the space, p in {1, 2, inf}."""
    arr = _vectors_array(space)
    if p == 1:
        norms = np.abs(arr).sum(axis=1)
    elif p == 2:
        norms = np.sqrt((arr**2).sum(axis=1))
    elif p in (math.inf, np.inf, "inf"):
        norms = np.abs(arr).max(axis=1)
    else:
        raise ValueError(f"p must be 1, 2, or inf, got {p!r}")
    return float(norms.max())


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

    @property
    def d(self) -> int:
        return int(self.vectors.shape[1])


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
    arr = space.as_array()
    d = space.ambient_dim
    residual = arr.copy()
    max_norm = float(np.sqrt((arr**2).sum(axis=1)).max(initial=0.0))
    if max_norm == 0.0:
        return OrthonormalBasis(vectors=np.zeros((0, d)))
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
    vectors = np.array(basis).reshape(len(basis), d)
    vectors.setflags(write=False)
    return OrthonormalBasis(vectors=vectors)


def projection_matrix(basis: OrthonormalBasis, d: int) -> np.ndarray:
    """Orthogonal projector onto the basis span: sum of u u'."""
    if basis.vectors.size and basis.d != d:
        raise ValueError(f"basis has dimension {basis.d}, expected {d}")
    if basis.s == 0:
        return np.zeros((d, d))
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
    coords = _vectors_array(space) @ basis.vectors.T
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
    return "\n".join(",".join(str(x) for x in v) for v in space.vectors) + "\n"

