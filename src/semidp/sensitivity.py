"""Sensitivity spaces: query differences over adjacent datasets.

A sensitivity space collects phi(X) - phi(X') over all dataset pairs the
adjacency relation protects. Its span tells a mechanism which directions
need noise at all; its convex hull is the unit ball of the gauge norm used
by the optimal hull-calibrated mechanism.

A table's hull follows from its (kind, r, c) record (``_table_record``).
The hulls of ``contingency_s_semi(r, c)`` for (r, c) in ``TABLE_SHAPES``
ship precomputed (``facets.npz``, from ``tools/facet_tables.py``), held per
shape in cells (``hull_cones``): the integer facet table F, whose max(F x)
/ 2 is the gauge at the double-centred x, and one triangulated facet per
symmetry orbit for the hull sampler. The root polytope conv{e_a - e_b} of
the single-move spaces and 2 x c tables is closed-form (``root_hull``). The
gauge and the hull sampler read the same hull (``_exact_hull``), and every
other nonzero space is refused by name.
"""

from __future__ import annotations

import itertools
import math
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache, partial
from importlib import resources
from typing import Callable, Sequence

import numpy as np

from .dataspace import (
    DataspaceSpec,
    Dataset,
    _cached_conforming,
    _check_integer,
    _check_pairs,
    _hamming_blocks,
    _record_codes,
)

#: The span basis drops singular directions below RANK_TOL times the largest.
RANK_TOL = 1e-10

#: Hull tolerance: membership accepts gauges up to 1 + HULL_TOL, and a point
#: whose residual off the span exceeds HULL_TOL * max(1, |v|) has gauge inf.
HULL_TOL = 1e-9

#: Most entries m * d a table space may hold, checked before it is built. On a
#: 2-vCPU host the 15 x 15 semi space (4.96 M entries, 40 MB in int64) builds
#: in 0.04-0.08 s at 95 MB peak RSS; the 9 x 19 dp space (4.97 M), 0.07 s and
#: 94 MB. Only the vectors' readers build it: ``semidp sens --format csv``
#: and library calls on the space. ``table_geometry`` serves both table
#: mechanisms and ``semidp sens`` JSON without it.
TABLE_SPACE_CAP = 5_000_000

#: Most bytes of vectors the built table spaces keep cached; the least
#: recently used space goes first. Three spaces at ``TABLE_SPACE_CAP`` fit.
TABLE_CACHE_BYTES = 128 << 20

#: Package data file of the facet tables: one int8 array per key "RxC", each
#: row twice a facet normal of hull(contingency_s_semi(r, c)), for (r, c) in
#: TABLE_SHAPES; and its cone table, one uint8 array per key "RxC_cones", each
#: row the s vertex indices of a simplex of a representative facet.
FACET_FILE = "facets.npz"
TABLE_SHAPES = tuple((r, c) for r in range(2, 5) for c in range(2, 5)) + ((3, 5), (5, 3))


@dataclass(frozen=True, eq=False)
class SensitivitySpace:
    """A finite, negation-closed set of integer difference vectors: a
    read-only (m, d) int64 array, copied from the caller's and held with
    its rows in lexicographic order, so they strictly increase when they
    are distinct and negating them reverses them when the set is
    negation-closed. Rows that already strictly increase (as the table
    spaces are built) are checked in one pass and kept; any others are
    sorted. An array of a non-integer dtype is checked first, and an entry
    that is not an integer in int64 is refused by value. Equality compares
    provenance too; the hash, the same in every process, leaves it out.
    """

    array: np.ndarray
    provenance: str

    def __post_init__(self) -> None:
        arr = np.asarray(self.array)
        if not np.issubdtype(arr.dtype, np.integer):
            values = arr.astype(float)
            bad = ~(np.isfinite(values) & (values == np.round(values)) & (np.abs(values) < 2.0**63))
            if bad.any():
                first = float(values[bad][0])
                raise ValueError(f"sensitivity vectors must hold int64 integers, got {first!r}")
        arr = np.array(arr, dtype=np.int64, order="C")
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("sensitivity space must be a non-empty (m, d) array of vectors")
        if not _rows_increase(arr):
            arr = arr[np.lexsort(arr.T[::-1])]
            if not _rows_increase(arr):
                raise ValueError("sensitivity vectors must be deduplicated")
        # row i must be the negation of row m - 1 - i; the first half decides it
        half = (len(arr) + 1) // 2
        if not np.array_equal(arr[:half], -arr[::-1][:half]):
            raise ValueError("sensitivity space must be closed under negation")
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)
        object.__setattr__(self, "_hash", hash((arr.shape, zlib.crc32(arr))))

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


def _rows_increase(arr: np.ndarray) -> bool:
    """True when each row is lexicographically greater than the one before:
    at the first column where two consecutive rows differ, the later is larger."""
    before, after = arr[:-1], arr[1:]
    first = (before != after).argmax(axis=1)[:, None]
    return bool((np.take_along_axis(after, first, 1) > np.take_along_axis(before, first, 1)).all())


class _CellCountQuery:
    """The query ``cell_count_query`` returns, recognized by its type."""

    __slots__ = ("_levels", "_cells")

    def __init__(self, levels: tuple[int, ...]) -> None:
        records = itertools.product(*[range(1, l + 1) for l in levels])
        self._levels, self._cells = levels, {record: i for i, record in enumerate(records)}

    def __call__(self, x: Dataset) -> tuple[int, ...]:
        cells = self._cells
        counts = [0] * len(cells)
        try:
            for row in x:
                counts[cells[row]] += 1
        except KeyError:
            raise ValueError(f"record {row} is outside the levels {self._levels}") from None
        return tuple(counts)


def cell_count_query(space: DataspaceSpec) -> Callable[[Dataset], tuple[int, ...]]:
    """Query mapping a dataset to its joint cell counts, row-major.

    A record outside the space's levels raises ``ValueError``. Brute force
    over a cached conforming set with the same levels does not call it: the
    set's record codes are these cell indices, so it counts them instead.
    """
    return _CellCountQuery(space.levels)


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows in lexicographic order, and each row's index among them."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


def brute_force_sensitivity_space(
    space: DataspaceSpec,
    subset: Sequence[Dataset],
    query: Callable[[Dataset], tuple[int, ...]],
    radius: int,
) -> SensitivitySpace:
    """Exact difference set over all ordered pairs within the radius.

    Pairs are reduced to pairs of distinct query values before any
    difference is taken. Raises ``ValueError`` unless the radius is an
    integer >= 0; refused with ``EnumerationCapExceeded`` when |subset|^2
    exceeds ``dataspace.PAIR_CAP``, before ``query`` is called. ``space``
    is not read; it stays in the signature for callers that pass arguments
    positionally. Handed the very member objects of a cached conforming set,
    in order (as ``conforming_set`` returns them), and a ``cell_count_query``
    over the same levels, it reads that set's record codes, which are the
    cell indices, and counts them with one ``bincount`` instead of calling
    the query and coding the datasets; any other list or query takes the
    general path.
    """
    _check_integer(radius, "radius", 0)
    subset = list(subset)
    if not subset:
        raise ValueError("subset must be non-empty")
    _check_pairs(len(subset), len(subset))
    cached = _cached_conforming(subset) if type(query) is _CellCountQuery else None
    if cached is None or cached.levels != query._levels:
        cached, values = None, np.array([query(x) for x in subset], dtype=np.int64)
    else:
        m, cells = len(subset), len(query._cells)
        # dataset k's record codes land in row k of an |S| x cells count table
        shifted = cached.codes + np.arange(0, m * cells, cells)[:, None]
        values = np.bincount(shifted.ravel(), minlength=m * cells).reshape(m, cells)
    unique, vid = _unique_rows(values)
    # scan the datasets ordered by query value, so each block's columns and rows
    # fall in runs of equal value: held[k] is the value of the k-th, and value u
    # runs from starts[u]
    order = np.argsort(vid, kind="stable")
    held = vid[order]
    starts = np.flatnonzero(np.r_[True, held[1:] != held[:-1]])
    if cached is None:
        codes = _record_codes(list(map(subset.__getitem__, order.tolist())))
    else:
        codes = cached.codes[order]
    n = codes.shape[1]
    # closest[u, v]: least distance between datasets of query values u and v
    closest = np.full((len(unique), len(unique)), n, dtype=np.min_scalar_type(n))
    for first, dist in _hamming_blocks(codes):
        near = np.minimum.reduceat(dist, starts, axis=1)
        low, high = held[first], held[first + len(dist) - 1] + 1
        cuts = np.maximum(starts[low:high], first) - first
        np.minimum(closest[low:high], np.minimum.reduceat(near, cuts, axis=0),
                   out=closest[low:high])
    a, b = np.nonzero(closest <= radius)
    diffs = _unique_rows(unique[a] - unique[b])[0]
    return SensitivitySpace(diffs, f"brute_force(radius={radius}, subset)")


@dataclass(frozen=True, eq=False)
class TableGeometry:
    """The semi or dp space of an r x c table in closed form, without its
    vectors: its provenance, d = r c cells, m vectors, span dimension s, the
    largest l1, l2 and linf norms, and the projector onto the span.

    The semi space has m = r c (r - 1)(c - 1) / 2 + 1 moves of four entries
    +-1, s = (r - 1)(c - 1), and double centring as its projector; the dp
    space m = d (d - 1) + 1 moves of two entries +-1, s = d - 1 and
    centring, except that the 1 x 1 dp space is zero alone, with norms 0.
    Both table mechanisms take a geometry in place of the space.
    """

    kind: str
    r: int
    c: int
    provenance: str
    ambient_dim: int
    num_vectors: int
    span_dim: int
    delta_1: float
    delta_2: float
    delta_inf: float
    project: Callable[[np.ndarray], np.ndarray]


@lru_cache(maxsize=128)
def table_geometry(kind: str, r: int, c: int) -> TableGeometry:
    """The closed-form geometry of ``contingency_s_semi(r, c)`` (kind "semi")
    or ``contingency_s_dp(r, c)`` ("dp"), in O(1) at any shape: nothing is
    built and ``TABLE_SPACE_CAP`` is not read. Raises ``ValueError`` on the
    shapes the space refuses, r or c below 2 (semi) or 1 (dp)."""
    d = r * c
    if kind == "semi":
        if r < 2 or c < 2:
            raise ValueError("r and c must both be >= 2")
        return TableGeometry(kind, r, c, f"contingency_margins({r}x{c})", d,
                             d * (r - 1) * (c - 1) // 2 + 1, (r - 1) * (c - 1), 4.0, 2.0, 1.0,
                             partial(_double_centring, r=r, c=c))
    if kind == "dp":
        if r < 1 or c < 1:
            raise ValueError("r and c must both be >= 1")
        moves = float(d > 1)
        return TableGeometry(kind, r, c, f"contingency_single_move({r}x{c})", d, d * (d - 1) + 1,
                             d - 1, 2.0 * moves, math.sqrt(2.0) * moves, moves, _centring)
    raise ValueError(f"kind must be 'semi' or 'dp', got {kind!r}")


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
    _check_table_size(table_geometry("semi", r, c))
    return _table_space("semi", r, c)


def contingency_s_dp(r: int, c: int) -> SensitivitySpace:
    """Single-record moves of an r x c table: one +1, one -1, plus zero."""
    _check_table_size(table_geometry("dp", r, c))
    return _table_space("dp", r, c)


def _check_table_size(geometry: TableGeometry) -> None:
    """ValueError when the table space's m vectors exceed ``TABLE_SPACE_CAP`` entries."""
    r, c, m = geometry.r, geometry.c, geometry.num_vectors
    if m * r * c > TABLE_SPACE_CAP:
        raise ValueError(f"a {r}x{c} table space of {m:,} vectors has {m * r * c:,} entries, "
                         f"more than TABLE_SPACE_CAP = {TABLE_SPACE_CAP:,}")


_table_spaces: OrderedDict[tuple[str, int, int], SensitivitySpace] = OrderedDict()
_table_lock = threading.Lock()


def _table_space(kind: str, r: int, c: int) -> SensitivitySpace:
    """The semi or dp space of an r x c table, built once per (kind, r, c)
    while it stays among the most recently used spaces whose vectors fit in
    ``TABLE_CACHE_BYTES``; ``_table_space.cache_clear()`` empties the cache."""
    key = (kind, r, c)
    with _table_lock:
        if key in _table_spaces:
            _table_spaces.move_to_end(key)
            return _table_spaces[key]
    built = _build_table_space(kind, r, c)
    with _table_lock:
        space = _table_spaces.setdefault(key, built)  # another thread's build, if it came first
        _table_spaces.move_to_end(key)
        held = sum(kept.array.nbytes for kept in _table_spaces.values())
        while held > TABLE_CACHE_BYTES:
            held -= _table_spaces.popitem(last=False)[1].array.nbytes
    return space


_table_space.cache_clear = _table_spaces.clear


def _build_table_space(kind: str, r: int, c: int) -> SensitivitySpace:
    """The semi or dp space of an r x c table.

    The rows come out in lexicographic order, so the constructor sorts
    nothing: the moves whose first nonzero entry is +1 come last, by that
    position descending (a later leading +1 is the smaller row), then by
    each later nonzero position ascending (an earlier -1 is the smaller);
    zero precedes them, and their negations in reverse precede zero.
    """
    d = r * c
    if kind == "semi":
        # +1 at (i, j), (k, l) and -1 at (i, l), (k, j) with i < k and j < l
        after = np.arange(r)[:, None] < np.arange(r)  # [i, k]: i < k
        right = np.arange(c)[:, None] < np.arange(c)  # [j, l]: j < l
        ri, rj, l, k = np.nonzero(after[::-1, None, None, :] & right[None, ::-1, :, None])
        i, j = r - 1 - ri, c - 1 - rj
        plus, minus = (i * c + j, k * c + l), (i * c + l, k * c + j)
    else:
        # +1 at a, -1 at b with a < b
        ra, b = np.nonzero(np.arange(d)[::-1, None] < np.arange(d))
        plus, minus = (d - 1 - ra,), (b,)
    half = len(plus[0])
    # int8 holds every entry; the constructor's int64 copy is then the only
    # full-size array the build writes
    V = np.zeros((2 * half + 1, d), dtype=np.int8)
    rows = np.arange(half + 1, len(V))[:, None]
    V[rows, np.transpose(plus)] = 1
    V[rows, np.transpose(minus)] = -1
    np.negative(V[:half:-1], out=V[:half])
    return SensitivitySpace(V, table_geometry(kind, r, c).provenance)


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
        if v.size and np.abs(v @ v.T - np.eye(len(v))).max() > 1e-10:
            raise ValueError("basis vectors are not orthonormal to 1e-10")

    @property
    def s(self) -> int:
        return int(self.vectors.shape[0])


def span_basis(space: SensitivitySpace) -> OrthonormalBasis:
    """Orthonormal span basis: the right singular vectors of the space's
    rows whose singular values exceed ``RANK_TOL`` times the largest, each
    sign-normalized so its first nonzero entry is positive.
    """
    # the cache lives on its own name, so a wrapper installed over ``span_basis``
    # (as the benchmark tracer does) leaves it reachable for ``cache_clear``
    return _span_basis_cached(space)


@lru_cache(maxsize=128)
def _span_basis_cached(space: SensitivitySpace) -> OrthonormalBasis:
    arr = space.array
    # the sorted rows of a negation-closed space end with the first half
    # negated in reverse, so the first half (with the zero row, if any) spans it
    _, sv, vt = np.linalg.svd(arr[: (len(arr) + 1) // 2].astype(float), full_matrices=False)
    vectors = vt[: int((sv > RANK_TOL * sv.max()).sum())]
    first = np.take_along_axis(vectors, np.argmax(np.abs(vectors) > 1e-12, axis=1)[:, None], 1)
    vectors = np.where(first < 0, -vectors, vectors)
    vectors.setflags(write=False)
    return OrthonormalBasis(vectors=vectors)


def projection_matrix(basis: OrthonormalBasis, d: int) -> np.ndarray:
    """Orthogonal projector onto the basis span: sum of u u'."""
    if basis.vectors.shape[1] != d:
        raise ValueError(f"basis has dimension {basis.vectors.shape[1]}, expected {d}")
    return basis.vectors.T @ basis.vectors


def _double_centring(x: np.ndarray, r: int, c: int) -> np.ndarray:
    """Project the r x c tables along x's last axis (cells row-major) onto
    the span of ``contingency_s_semi(r, c)``, the tables whose rows and
    columns sum to zero: subtract the row means, then the column means.
    An integer table in the span comes back exactly."""
    t = x.reshape(-1, r, c)
    t = t - t.sum(axis=2, keepdims=True) / c
    return (t - t.sum(axis=1, keepdims=True) / r).reshape(x.shape)


def _centring(x: np.ndarray) -> np.ndarray:
    """Project x's last axis onto the vectors whose entries sum to zero."""
    return x - x.mean(axis=-1, keepdims=True)


def _table_record(space: SensitivitySpace | TableGeometry) -> TableGeometry | None:
    """The geometry itself, or, whatever the provenance, the semi r x c one of
    a space with the vectors of ``contingency_s_semi(r, c)`` or the dp 1 x d
    one of a single-move space on d cells; else None. The d (d - 1) + 1 rows
    of a single-move space are its moves e_a - e_b and zero: rows of sum 0,
    l1 norm at most 2 and entries -1, 0, 1."""
    if isinstance(space, TableGeometry):
        return space
    if (shape := _table_shape(space)) is not None:
        return table_geometry("semi", *shape)
    (m, d), arr = space.array.shape, space.array
    if (m == d * (d - 1) + 1 and (entries := np.abs(arr)).max() <= 1
            and entries.sum(axis=1).max() <= 2 and not arr.sum(axis=1).any()):
        return table_geometry("dp", 1, d)
    return None


def _table_shape(space: SensitivitySpace) -> tuple[int, int] | None:
    """(r, c) when the space's vectors are those of ``contingency_s_semi(r, c)``,
    whatever its provenance; else None.

    The r x c semi space has m = r c (r - 1)(c - 1) / 2 + 1 vectors in d = r c
    dimensions, so (m, d) fixes r + c = d + 1 - 2 (m - 1) / d and r c = d:
    r and c are the roots of one quadratic, and only (r, c) and (c, r) are
    compared with the built table space.
    """
    m, d = space.array.shape
    q, rest = divmod(2 * (m - 1), d)
    total = d + 1 - q  # r + c
    square = total * total - 4 * d  # (r - c)^2
    root = math.isqrt(max(square, 0))
    if rest or root * root != square:
        return None
    for r in sorted({(total - root) // 2, (total + root) // 2}):
        c = total - r
        if r >= 2 and c >= 2:
            table = _table_space("semi", r, c)
            if table is space or (hash(table) == hash(space) and np.array_equal(table.array, space.array)):
                return r, c
    return None


def _table_symmetries(r: int, c: int) -> np.ndarray:
    """The r x c table symmetries as cell permutations, one (g, r c) row each:
    every row permutation with every column permutation, and their
    transposes when r == c. Row p maps a table x, flattened row-major, to
    x[p]; with or without negation it maps the semi space, so its hull and
    the hull's facets, onto themselves."""
    cells = np.arange(r * c).reshape(r, c)
    rows = np.array(list(itertools.permutations(range(r))))
    cols = np.array(list(itertools.permutations(range(c))))
    images = cells[rows[:, None, :, None], cols[None, :, None, :]]
    if r == c:
        images = np.concatenate([images, images.swapaxes(-1, -2)])
    return images.reshape(-1, r * c)


def _facet_images(row: np.ndarray, r: int, c: int, symmetries: np.ndarray) -> np.ndarray:
    """The distinct facet-table rows that the symmetries, with and without
    negation, map the facet-table row 2a onto: its orbit, sorted. A normal
    is fixed only up to row and column constants, so each image is shifted,
    as the table is, to a first row and column of zeros."""
    images = np.concatenate([row[symmetries], -row[symmetries]]).reshape(-1, r, c)
    images = images - images[:, :, :1] - images[:, :1, :] + images[:, :1, :1]
    return _unique_rows(images.reshape(-1, r * c))[0]


def _gram_determinants(W: np.ndarray) -> np.ndarray:
    """det(W_k W_k') for each (s, d) integer slice W_k of W, exactly in int64.

    Bareiss elimination without pivoting: the Gram matrix of independent
    vectors is positive definite, so every pivot (a leading principal minor)
    is positive, and each division is exact. A pivot of 0 means the leading
    vectors, and so all of them, are dependent: that determinant is 0. The
    entries are minors of a Gram matrix whose entries are at most 4 in
    absolute value (the semi moves have squared norm 4), so for s <= 9 every
    product stays below 10^17.
    """
    M = np.einsum("kid,kjd->kij", W, W)
    prev = np.ones(len(M), dtype=np.int64)
    singular = np.zeros(len(M), dtype=bool)
    for i in range(M.shape[1] - 1):
        singular |= M[:, i, i] == 0
        pivot = np.where(singular, 1, M[:, i, i])
        M[:, i + 1:, i + 1:] = (pivot[:, None, None] * M[:, i + 1:, i + 1:]
                                - M[:, i + 1:, i:i + 1] * M[:, i:i + 1, i + 1:]) // prev[:, None, None]
        prev = pivot
    return np.where(singular, 0, M[:, -1, -1])


@dataclass(frozen=True)
class HullCones:
    """The hull of the tabled space ``contingency_s_semi(r, c)``, in cells.

    ``facets`` is its facet table F (integers, in float64), one row 2a per
    facet a.x <= 1, so a span point x has gauge max(F x) / 2. The hull is
    also the union of the cones conv(0, T) over a triangulation of its
    facets, held as one triangulated representative facet per orbit of the
    table symmetries (``_table_symmetries``, with and without negation):
    ``simplices`` holds the (n, s) vertex indices of the representatives'
    simplices T into the space's vectors, ``vertices`` those vectors in
    float64, ``cdf`` the cumulative probability of picking each simplex
    (its orbit's size times its cone's volume, normalised; the last entry is
    exactly 1), and ``moves`` row k the index of each vertex's image under
    symmetry k // 2, negated when k is odd: (2 g, m).
    """

    r: int
    c: int
    facets: np.ndarray  # (f, d)
    vertices: np.ndarray  # (m, d)
    simplices: np.ndarray  # (n, s)
    cdf: np.ndarray  # (n,)
    moves: np.ndarray  # (2 g, m)

    @property
    def s(self) -> int:
        return int(self.simplices.shape[1])


def hull_cones(space: SensitivitySpace | TableGeometry) -> HullCones | None:
    """The tabled hull of a tabled semi shape's record (``_table_record``); else None."""
    record = _table_record(space)
    tabled = record is not None and record.kind == "semi" and (record.r, record.c) in TABLE_SHAPES
    return _hull_table(record.r, record.c) if tabled else None


@lru_cache(maxsize=len(TABLE_SHAPES))
def _hull_table(r: int, c: int) -> HullCones:
    """The committed hull of contingency_s_semi(r, c), read in one open, once."""
    with resources.files(__package__).joinpath(FACET_FILE).open("rb") as fh, np.load(fh) as tables:
        F, T = tables[f"{r}x{c}"], tables[f"{r}x{c}_cones"]
    return _hull_from_tables(r, c, F, T)


def _hull_from_tables(r: int, c: int, F: np.ndarray, T: np.ndarray) -> HullCones:
    """The hull of contingency_s_semi(r, c) from its facet table F and cone
    table T, or ``RuntimeError`` naming the shape, checked in integers.

    Each row 2a of F must reach exactly 2 over the vertices (a.x <= 1 holds
    on the hull, with equality at a vertex). The simplices are distinct,
    each has s vertices on exactly one facet, those facets' orbits are
    disjoint and make up F, and each representative's simplices cover it: a
    ridge (s - 1 of a simplex's vertices) bounds one simplex when it lies on
    a second facet, on the facet's boundary, and two otherwise. Each simplex
    is weighted by its orbit's size times s! times its cone's volume, the
    square root of its vertices' Gram determinant, which must be positive.
    """
    F, T = np.asarray(F, dtype=np.int64), np.asarray(T, dtype=np.intp)
    V = _table_space("semi", r, c).array
    if F.shape[1] != V.shape[1] or not ((values := F @ V.T).max(axis=1) == 2).all():
        raise RuntimeError(f"{FACET_FILE}: the {r}x{c} table is not the facets of its hull")
    s = (r - 1) * (c - 1)
    if T.ndim != 2 or not len(T) or T.shape[1] != s or not (T < len(V)).all():
        raise RuntimeError(f"{FACET_FILE}: the {r}x{c} cone table is not rows of s vertex indices")
    T_sorted = np.sort(T, axis=1)
    if len(_unique_rows(T_sorted)[0]) != len(T):
        raise RuntimeError(f"{FACET_FILE}: the {r}x{c} cone table repeats a simplex")
    on = values == 2  # [facet, vertex]
    holds = on[:, T].all(axis=2)  # [facet, simplex]: every vertex on the facet
    if (holds.sum(axis=0) != 1).any():
        raise RuntimeError(f"{FACET_FILE}: a {r}x{c} simplex is not on exactly one facet")
    symmetries = _table_symmetries(r, c)
    facet = holds.argmax(axis=0)
    reps, rep_of = np.unique(facet, return_inverse=True)
    orbits = [_facet_images(F[i], r, c, symmetries) for i in reps]
    covered = np.concatenate(orbits)
    if len(covered) != len(F) or not np.array_equal(_unique_rows(covered)[0], _unique_rows(F)[0]):
        raise RuntimeError(f"{FACET_FILE}: the {r}x{c} orbits are not the facet table")
    # ridge k of a simplex drops its vertex k; the facets through a ridge,
    # bar its own, are those through all its vertices, 8 facets a byte
    keep = np.arange(s - 1)
    ridges = T_sorted[:, keep + (keep >= np.arange(s)[:, None])].reshape(len(T) * s, s - 1)
    owner = np.repeat(facet, s)
    bits = np.packbits(on.T, axis=1)  # [vertex, byte]
    through = np.full((len(ridges), bits.shape[1]), 0xFF, dtype=np.uint8)
    for k in range(s - 1):
        through &= bits[ridges[:, k]]
    through[np.arange(len(owner)), owner // 8] &= ~(np.uint8(0x80) >> (owner % 8).astype(np.uint8))
    # a ridge is its facet and its vertices' base-m code, exact in int64 (73^8 on 4x4)
    _, ridge_of = _unique_rows(np.column_stack([owner, ridges @ len(V) ** keep]))
    if (np.bincount(ridge_of)[ridge_of] != np.where(through.any(axis=1), 1, 2)).any():
        raise RuntimeError(f"{FACET_FILE}: the {r}x{c} simplices do not cover their facets")
    dets = _gram_determinants(V[T])
    if (dets <= 0).any():
        raise RuntimeError(f"{FACET_FILE}: a {r}x{c} simplex is degenerate")
    weights = np.array([len(o) for o in orbits])[rep_of] * np.sqrt(dets)
    cdf = np.cumsum(weights) / weights.sum()
    cdf[-1] = 1.0
    # the rows of V, entries -1, 0, 1, increase, and so do their base-3 codes;
    # x[p] puts cell j at place p^-1(j), so its code weighs x_j by powers[p^-1(j)]
    powers = 3 ** np.arange(V.shape[1] - 1, -1, -1)
    codes = (V + 1) @ powers
    images = powers[np.argsort(symmetries, axis=1)] @ (V + 1).T  # [symmetry, vertex]
    moves = np.searchsorted(codes, images).clip(max=len(V) - 1)
    if not np.array_equal(codes[moves], images):
        raise RuntimeError(f"the {r}x{c} symmetries do not map the semi space onto itself")
    # the space is negation-closed and sorted: row i negated is row m - 1 - i
    moves = np.stack([moves, len(V) - 1 - moves], axis=1).reshape(-1, len(V))
    facets, vertices = F.astype(float), V.astype(float)
    for array in (facets, vertices, T, cdf, moves):
        array.setflags(write=False)
    return HullCones(r=r, c=c, facets=facets, vertices=vertices, simplices=T, cdf=cdf, moves=moves)


@dataclass(frozen=True, eq=False)
class RootHull:
    """The root polytope conv{e_a - e_b : a != b} of n cells as a hull: a
    move x = e_a - e_b is the space's vector with ``sign[j] * x[cell[j]]`` at
    cell j, x itself on a single-move space and x on one row (column) of a
    2 x c (r x 2) table, negated on the other. Its span has s = n - 1."""

    cell: np.ndarray  # (d,) indices into the n cells
    sign: np.ndarray  # (d,) 1.0 or -1.0
    s: int


def root_hull(space: SensitivitySpace | TableGeometry) -> RootHull | None:
    """The root polytope of the record (``_table_record``) of a 2 x c or
    r x 2 semi table or of a single-move space on two cells or more; else None."""
    record = _table_record(space)
    if record is None or not record.span_dim or (record.kind == "semi" and 2 not in (record.r, record.c)):
        return None
    if record.kind == "dp":
        return RootHull(np.arange(record.ambient_dim), np.ones(record.ambient_dim), record.span_dim)
    rows, cols = np.indices((record.r, record.c)).reshape(2, -1)
    cell, mirrored = (cols, rows) if record.r == 2 else (rows, cols)
    return RootHull(cell, 1.0 - 2.0 * mirrored, record.span_dim)


def _exact_hull(space: SensitivitySpace | TableGeometry) -> HullCones | RootHull | None:
    """The hull that draws and gauges read, the tabled one before the root
    polytope; None for a zero space, and ``ValueError`` naming any other space."""
    record = _table_record(space)
    hull = None if record is None else hull_cones(record) or root_hull(record)
    if hull is None and (space.array.any() if record is None else record.span_dim):
        tables = ", ".join(f"{r}x{c}" for r, c in TABLE_SHAPES if 2 not in (r, c))
        raise ValueError(f"the hull sampler refuses {space.provenance}: it draws exactly only on "
                         f"single-move spaces and the semi tables 2 x c, r x 2, {tables}")
    return hull


def hull_membership(space: SensitivitySpace, v) -> bool:
    """True when v lies in hull(space), its gauge at most 1 + ``HULL_TOL``."""
    return gauge_norm(space, v) <= 1.0 + HULL_TOL


def gauge_norm(space: SensitivitySpace, v) -> float:
    """Gauge of v with unit ball hull(space), the least t >= 0 with v in
    t * hull(space): max(F x) / 2 at the double-centred x on a tabled hull,
    ||y||_1 / 2 at the root polytope's projected point y. Returns inf off the
    span, and ``ValueError`` on a space the hull sampler refuses.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (space.ambient_dim,):
        raise ValueError("v must match the ambient dimension")
    if not np.isfinite(v).all():
        raise ValueError("v must be finite")
    hull = _exact_hull(space)
    if hull is None:
        x, gauge = np.zeros_like(v), 0.0
    elif isinstance(hull, HullCones):
        x = _double_centring(v, hull.r, hull.c)
        gauge = float((hull.facets @ x).max()) / 2.0
    else:
        # each of the n cells appears d / n times, so y averages its copies
        n = hull.s + 1
        y = np.bincount(hull.cell, hull.sign * v, n) * (n / len(v))
        y -= y.mean()
        x, gauge = y[hull.cell] * hull.sign, float(np.abs(y).sum()) / 2.0
    residual = v - x
    return math.inf if math.sqrt(residual @ residual) > HULL_TOL * max(1.0, math.sqrt(v @ v)) else gauge


def sensitivity_space_to_csv(space: SensitivitySpace) -> str:
    """One vector per line, components comma-separated."""
    return "\n".join(",".join(map(str, v)) for v in space.array.tolist()) + "\n"

