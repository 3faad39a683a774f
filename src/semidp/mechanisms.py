"""Additive noise mechanisms calibrated on sensitivity spaces.

Four samplers: a projected Gaussian that confines noise to the span of the
sensitivity space (by double centring on a one-way-margin table); an
optimal hull-calibrated mechanism, exact and without rejection (s + 1
exponentials on a cone simplex picked by volume: from the cone tables on
the tabled one-way-margin tables, mapped by a random table symmetry, and
in closed form on the root polytope of the single-move spaces and the
2 x c and r x 2 tables), which refuses every other hull; the classic
l1/l2/linf mechanisms; and naive group-privacy baselines for the table
query. All draws are keyed by (seed, stream) and are bit-reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .dataspace import _check_integer
from .rng import NoiseRng, RngSeed
from .sensitivity import (
    HullCones,
    RootHull,
    SensitivitySpace,
    TableGeometry,
    _exact_hull,
    _table_shape,
    lp_sensitivity,
    projection_matrix,
    span_basis,
    table_geometry,
)

#: Cone draws form their directions this many at a time.
_CONE_BLOCK = 4096

#: Single-record-change table sensitivities (one +1, one -1 per move).
TABLE_SINGLE_MOVE_SENSITIVITY = {1: 2.0, 2: math.sqrt(2.0), math.inf: 1.0}

#: The l_p norm each naive and classic mechanism kind is calibrated in.
KIND_NORM = {"gaussian": 2, "l1": 1, "l2": 2, "linf": math.inf}

_DEGENERATE_WARNING = "degenerate sensitivity space; query is constant, no noise added"


@dataclass(frozen=True)
class MechanismOutput:
    """Released value, the noise that produced it, and run metadata."""

    value: np.ndarray
    noise: np.ndarray
    meta: dict

    def to_json(self) -> str:
        payload = {
            "value": list(map(repr, self.value.tolist())),
            "noise": list(map(repr, self.noise.tolist())),
            "meta": self.meta,
        }
        return json.dumps(payload, sort_keys=True)


def _as_vector(query_value, dim: int | None = None) -> np.ndarray:
    v = np.asarray(query_value, dtype=float).reshape(-1)
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"query value has dimension {v.shape[0]}, expected {dim}")
    return v


@lru_cache(maxsize=128)
def _gaussian_constants(
    space: SensitivitySpace | TableGeometry,
) -> tuple[int, float, Callable[[np.ndarray], np.ndarray]]:
    """Span dimension, Delta_2 and span projection of a space, computed once per space.

    A semi ``TableGeometry`` holds all three, and a space with the vectors
    of ``contingency_s_semi(r, c)`` reads them from ``table_geometry``:
    s = (r - 1)(c - 1), Delta_2 = 2 and double centring, none read from its
    vectors. Any other space projects by ``span_basis``; a dp geometry,
    which holds no projector, is refused.
    """
    if isinstance(space, SensitivitySpace):
        shape = _table_shape(space)
        if shape is None:
            basis = span_basis(space)
            P = projection_matrix(basis, space.ambient_dim)
            return basis.s, lp_sensitivity(space, 2), lambda z: z @ P
        space = table_geometry("semi", *shape)
    if space.project is None:
        raise ValueError(f"the projected Gaussian needs the vectors of {space.provenance}; "
                         f"pass contingency_s_{space.kind}({space.r}, {space.c})")
    return space.span_dim, space.delta_2, space.project


def gaussian_noise_samples(
    space: SensitivitySpace | TableGeometry, mu: float, rng: NoiseRng, size: int
) -> np.ndarray:
    """Bulk projected-Gaussian noise draws, one row per sample. A semi
    ``table_geometry`` draws the same bytes as its space, which it never builds."""
    s, delta2, project = _gaussian_constants(space)
    d = space.ambient_dim
    if s == 0:
        return np.zeros((size, d))
    z = np.asarray(rng.normal(scale=delta2 / mu, size=(size, d)))
    return project(z)


def gaussian_semi(
    query_value, space: SensitivitySpace | TableGeometry, mu: float, seed: RngSeed
) -> MechanismOutput:
    """Gaussian noise with covariance (Delta_2/mu)^2 P, P projecting onto
    the span of the sensitivity space; directions the adjacent datasets
    cannot move are left exactly noiseless. The space may be given as a
    semi ``table_geometry``.
    """
    if not 0 < mu < math.inf:
        raise ValueError(f"mu must be positive and finite, got {mu}")
    query = _as_vector(query_value, space.ambient_dim)
    rng = NoiseRng(seed)
    s, delta2, _ = _gaussian_constants(space)
    meta = {
        "mechanism": "gaussian_semi",
        "mu": mu,
        "delta2": delta2,
        "span_dim": s,
        "rng": rng.meta(),
    }
    if s == 0:
        meta["warning"] = _DEGENERATE_WARNING
    noise = gaussian_noise_samples(space, mu, rng, 1)[0]
    return MechanismOutput(value=query + noise, noise=noise, meta=meta)


def knorm_noise_samples(
    space: SensitivitySpace | HullCones | RootHull, epsilon: float, rng: NoiseRng, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Bulk hull-mechanism draws: density proportional to exp(-epsilon ||y||_K)
    on the span, K the hull of the space, or K itself when ``space`` is the
    hull ``_exact_hull`` found for it.

    Returns (noise, radii, directions, rejection counts): noise[i] equals
    radii[i] * directions[i], each radius a Gamma(s + 1, epsilon) variate and
    each direction uniform in K, independent of it. Every draw is exact. K is
    the union of cones conv(0, T) over simplices T = (v_1..v_s) of its
    facets; a draw picks one with probability its volume's share and takes
    s + 1 exponentials E_0..E_s, whose sum S is Gamma(s + 1) and independent
    of the Dirichlet weights E / S. The radius is S / epsilon and the direction
    sum_i (E_i / S) v_i, of gauge sum_{i >= 1} E_i / S. No span basis or
    gauge is read, and every rejection count is 0.

    On a tabled space (``hull_cones``) a draw takes s + 3 uniforms: the
    exponentials, one to pick a simplex of a representative facet (weighted
    by its orbit's size times its cone's volume) and one for a uniform table
    symmetry, with or without negation, that moves it. On a root polytope of
    n = s + 1 cells (``root_hull``) it takes 3 s + 1: the exponentials, and
    2 s to pick s of 2 s slots. The facet x(A) = 1 of a k-subset A of the
    cells is a product of simplices, triangulated by the monotone lattice
    paths through the k x (n - k) grid of pairs (a, b), A and then B in cell
    order, each path's vertices e_a - e_b a spanning tree. The picked slots
    among the first n give A, and those among the last s - 1 the path's
    steps to the next b, so k comes with probability C(n, k) C(n - 2, k - 1)
    / C(2 n - 2, n - 1) and A and the path uniformly. Any other space is
    refused by name before a uniform is drawn.
    """
    hull = space if isinstance(space, (HullCones, RootHull)) else _exact_hull(space)
    if hull is None:
        raise ValueError("sensitivity space has empty span; nothing to randomize")
    s, tabled = hull.s, isinstance(hull, HullCones)
    u = np.asarray(rng.uniform_open((size, s + 3 if tabled else 3 * s + 1)))
    E = -np.log(u[:, : s + 1])
    total = E.sum(axis=1)
    weights = E[:, 1:] / total[:, None]
    directions = (_cone_directions if tabled else _root_directions)(hull, weights, u[:, s + 1:])
    radii = total / epsilon
    return radii[:, None] * directions, radii, directions, [0] * size


def _cone_directions(cones: HullCones, weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Directions on a tabled hull: row i's simplex picked by u[i, 0] and
    moved by the symmetry u[i, 1] picks, then weighted."""
    picked = cones.simplices[np.searchsorted(cones.cdf, u[:, 0], side="right")]
    moved = cones.moves[(u[:, 1] * len(cones.moves)).astype(np.intp)[:, None], picked]
    directions = np.empty((len(u), cones.vertices.shape[1]))
    for start in range(0, len(u), _CONE_BLOCK):  # (block, s, d) gathered vertices at a time
        rows = slice(start, start + _CONE_BLOCK)
        np.matmul(weights[rows, None, :], cones.vertices[moved[rows]], out=directions[rows, None, :])
    return directions


def _root_directions(root: RootHull, weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Directions on a root polytope: row i picks the slots of its s smallest
    uniforms; the path's vertex j, e_a - e_b at the j-th pair (a, b) it
    visits, takes weight j."""
    size, n = len(u), root.s + 1
    slots = np.argsort(np.argsort(u, axis=1), axis=1) < n - 1
    order = np.argsort(~slots[:, :n], axis=1, kind="stable")  # A, then B
    b = np.cumsum(slots, axis=1)[:, n - 1:]  # k plus the path's steps to the next b so far
    a = np.arange(n - 1) + b[:, :1] - b
    ends = np.arange(size)[:, None] * n + np.take_along_axis(order, np.concatenate([a, b], axis=1), 1)
    x = np.bincount(ends.ravel(), np.concatenate([weights, -weights], axis=1).ravel(), size * n)
    return x.reshape(size, n)[:, root.cell] * root.sign


def knorm_optimal(query_value, space: SensitivitySpace, epsilon: float, seed: RngSeed) -> MechanismOutput:
    """Optimal hull-calibrated mechanism for a possibly rank-deficient space.

    The noise density is proportional to exp(-epsilon * ||v||_K) on the span,
    where K is the convex hull of the sensitivity space; in hull-gauge units
    the worst adjacent move has length exactly 1, which the meta records as
    ``delta_k``.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    query = _as_vector(query_value, space.ambient_dim)
    rng = NoiseRng(seed)
    hull = _exact_hull(space)
    s = 0 if hull is None else hull.s
    meta = {"mechanism": "knorm_optimal", "epsilon": epsilon, "span_dim": s, "rng": rng.meta()}
    if s == 0:
        meta["warning"] = _DEGENERATE_WARNING
        return MechanismOutput(value=query, noise=np.zeros_like(query), meta=meta)
    noise, radii, _, rejections = knorm_noise_samples(hull, epsilon, rng, 1)
    meta.update(delta_k=1.0, radius=repr(float(radii[0])), rejections=rejections[0], sampler="cone")
    return MechanismOutput(value=query + noise[0], noise=noise[0], meta=meta)


def lp_noise_samples(
    delta: float, epsilon: float, p, d: int, rng: NoiseRng, size: int
) -> np.ndarray:
    """Bulk draws from the l1, l2, or linf mechanism noise distribution."""
    if p == 1:
        return np.asarray(rng.laplace(scale=delta / epsilon, size=(size, d)))
    if p == 2:
        z = np.asarray(rng.normal(size=(size, d)))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        r = np.atleast_1d(np.asarray(rng.gamma(float(d), epsilon / delta, size=(size,))))
        return r[:, None] * z
    if p in (math.inf, np.inf):
        u = np.asarray(rng.uniform(-1.0, 1.0, size=(size, d)))
        r = np.atleast_1d(np.asarray(rng.gamma(d + 1.0, epsilon / delta, size=(size,))))
        return r[:, None] * u
    raise ValueError(f"p must be 1, 2, or inf, got {p!r}")


def lp_mechanism(query_value, delta: float, epsilon: float, p, seed: RngSeed) -> MechanismOutput:
    """Additive l_p-calibrated noise: iid Laplace for p=1, a gamma radius on
    the unit sphere for p=2, and a gamma radius times a uniform point of the
    cube [-1, 1]^d for p=inf.
    """
    if not (0 < delta < math.inf and 0 < epsilon < math.inf):
        raise ValueError("delta and epsilon must be positive and finite")
    query = _as_vector(query_value)
    rng = NoiseRng(seed)
    noise = lp_noise_samples(delta, epsilon, p, query.shape[0], rng, 1)[0]
    meta = {
        "mechanism": f"l{p}_mechanism" if p != math.inf else "linf_mechanism",
        "delta": delta,
        "epsilon": epsilon,
        "rng": rng.meta(),
    }
    return MechanismOutput(value=query + noise, noise=noise, meta=meta)


@dataclass(frozen=True)
class NaiveGroupMechanism:
    """Group-privacy baseline for the table query: scale the privacy
    parameter down by the group size and use single-record-change
    sensitivities in the full ambient space.
    """

    kind: str  # "gaussian", "l1", "l2", "linf"
    group_size: int
    base_param: float
    scaled_param: float = field(init=False)
    delta: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "group_size", _check_integer(self.group_size, "group_size", 1))
        if not 0 < self.base_param < math.inf:
            raise ValueError("privacy parameter must be positive and finite")
        if self.kind not in KIND_NORM:
            raise ValueError(f"unknown mechanism kind {self.kind!r}")
        object.__setattr__(self, "delta", TABLE_SINGLE_MOVE_SENSITIVITY[KIND_NORM[self.kind]])
        object.__setattr__(self, "scaled_param", self.base_param / self.group_size)

    def noise_samples(self, d: int, rng: NoiseRng, size: int) -> np.ndarray:
        if self.kind == "gaussian":
            sigma = self.delta / self.scaled_param
            return np.asarray(rng.normal(scale=sigma, size=(size, d)))
        return lp_noise_samples(self.delta, self.scaled_param, KIND_NORM[self.kind], d, rng, size)

    def __call__(self, query_value, seed: RngSeed) -> MechanismOutput:
        query = _as_vector(query_value)
        rng = NoiseRng(seed)
        noise = self.noise_samples(query.shape[0], rng, 1)[0]
        meta = {
            "mechanism": f"naive_{self.kind}",
            "group_size": self.group_size,
            "base_param": self.base_param,
            "scaled_param": self.scaled_param,
            "delta": self.delta,
            "rng": rng.meta(),
        }
        return MechanismOutput(value=query + noise, noise=noise, meta=meta)
