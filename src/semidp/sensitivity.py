"""Sensitivity spaces: query differences over adjacent datasets.

A sensitivity space collects phi(X) - phi(X') over all dataset pairs the
adjacency relation protects. Its span tells a mechanism which directions
need noise at all; its convex hull is the unit ball of the gauge norm used
by the optimal hull-calibrated mechanism. Hull membership and gauge values
are decided by the in-package simplex solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .dataspace import DataspaceSpec, Dataset, _hamming_blocks, _record_codes
from .simplex import INFEASIBLE, OPTIMAL, LpResult, solve_lp

DEFAULT_RANK_TOL = 1e-10
DEFAULT_FEASIBILITY_TOL = 1e-9


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

    def as_array(self) -> np.ndarray:
        return _vectors_array(self).copy()

    def nonzero(self) -> tuple[tuple[int, ...], ...]:
        zero = (0,) * self.ambient_dim
        return tuple(v for v in self.vectors if v != zero)


def _make_space(vectors, dim: int, provenance: str) -> SensitivitySpace:
    dedup = sorted(set(tuple(int(x) for x in v) for v in vectors))
    return SensitivitySpace(vectors=tuple(dedup), ambient_dim=dim, provenance=provenance)


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
    label: str = "subset",
) -> SensitivitySpace:
    """Exact difference set over all ordered pairs within the radius.

    Refused with ``EnumerationCapExceeded`` when |subset|^2 exceeds
    ``dataspace.PAIR_CAP``. ``space`` is not read; it stays in the
    signature for callers that pass arguments positionally.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    subset = list(subset)
    if not subset:
        raise ValueError("subset must be non-empty")
    blocks = _hamming_blocks(_record_codes(subset))
    values = np.array([query(x) for x in subset], dtype=np.int64)
    diffs: set[tuple[int, ...]] = set()
    for first, dist in blocks:
        ii, jj = np.nonzero(dist <= radius)
        for row in np.unique(values[ii + first] - values[jj], axis=0):
            diffs.add(tuple(int(v) for v in row))
    return _make_space(diffs, values.shape[1], f"brute_force(radius={radius}, {label})")


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
    d = r * c
    vectors = {(0,) * d}
    for i in range(r):
        for k in range(r):
            if i == k:
                continue
            for j in range(c):
                for l in range(c):
                    if j == l:
                        continue
                    v = [0] * d
                    v[i * c + j] += 1
                    v[k * c + l] += 1
                    v[i * c + l] -= 1
                    v[k * c + j] -= 1
                    vectors.add(tuple(v))
    return _make_space(vectors, d, f"contingency_margins({r}x{c})")


def contingency_s_dp(r: int, c: int) -> SensitivitySpace:
    """Single-record moves of an r x c table: one +1, one -1, plus zero."""
    if r < 1 or c < 1:
        raise ValueError("r and c must both be >= 1")
    d = r * c
    vectors = {(0,) * d}
    for a in range(d):
        for b in range(d):
            if a == b:
                continue
            v = [0] * d
            v[a] += 1
            v[b] -= 1
            vectors.add(tuple(v))
    return _make_space(vectors, d, f"contingency_single_move({r}x{c})")


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


def span_basis(space: SensitivitySpace, tol: float = DEFAULT_RANK_TOL) -> OrthonormalBasis:
    """Orthonormal span basis by modified Gram-Schmidt with pivoting.

    Residuals below ``tol`` times the largest input norm are discarded. Each
    basis vector is sign-normalized so its first nonzero entry is positive.
    """
    return _span_basis_cached(space, tol)


@lru_cache(maxsize=128)
def _span_basis_cached(space: SensitivitySpace, tol: float) -> OrthonormalBasis:
    arr = space.as_array()
    d = space.ambient_dim
    residual = arr.copy()
    max_norm = float(np.sqrt((arr**2).sum(axis=1)).max(initial=0.0))
    if max_norm == 0.0:
        return OrthonormalBasis(vectors=np.zeros((0, d)))
    threshold = tol * max_norm
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


def validate_projection(P: np.ndarray, s: int, tol: float = 1e-9) -> None:
    if not np.allclose(P, P.T, atol=tol):
        raise ValueError("projection must be symmetric")
    if not np.allclose(P @ P, P, atol=tol):
        raise ValueError("projection must be idempotent")
    if abs(float(np.trace(P)) - s) > tol:
        raise ValueError(f"projection trace {np.trace(P)} != rank {s}")


def hull_membership(
    space: SensitivitySpace, v, tol: float = DEFAULT_FEASIBILITY_TOL
) -> bool:
    """True when v is a convex combination of the space's vectors.

    Decided by phase-one simplex feasibility of sum(lambda) = 1,
    S' lambda = v, lambda >= 0 at the given feasibility tolerance.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (space.ambient_dim,):
        raise ValueError("v must match the ambient dimension")
    result = solve_membership(space, v, tol)
    return result.status == OPTIMAL


def solve_membership(space: SensitivitySpace, v: np.ndarray, tol: float) -> LpResult:
    S = _vectors_array(space).T
    m = S.shape[1]
    A = np.vstack([S, np.ones((1, m))])
    b = np.concatenate([v, [1.0]])
    return solve_lp(A, b, np.zeros(m), tol=tol)


def gauge_norm(space: SensitivitySpace, v, tol: float = DEFAULT_FEASIBILITY_TOL) -> float:
    """Gauge of v with unit ball hull(space): min total weight writing
    v as a non-negative combination of the space's vectors.

    Returns inf when v lies outside the span (no finite scaling of the hull
    can reach it).
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (space.ambient_dim,):
        raise ValueError("v must match the ambient dimension")
    basis = span_basis(space)
    residual = v - basis.vectors.T @ (basis.vectors @ v) if basis.s else v
    if float(np.linalg.norm(residual)) > tol * max(1.0, float(np.linalg.norm(v))):
        return math.inf
    S = _vectors_array(space).T
    m = S.shape[1]
    result = solve_lp(S, v, np.ones(m), tol=tol)
    if result.status == INFEASIBLE:
        return math.inf
    return max(0.0, float(result.objective))


def sensitivity_space_to_csv(space: SensitivitySpace) -> str:
    """One vector per line, components comma-separated."""
    return "\n".join(",".join(str(x) for x in v) for v in space.vectors) + "\n"


def matrix_to_csv(P: np.ndarray) -> str:
    return "\n".join(",".join(repr(float(x)) for x in row) for row in np.atleast_2d(P)) + "\n"
