"""Additive noise mechanisms calibrated on sensitivity spaces.

Four samplers: a projected Gaussian that confines noise to the span of the
sensitivity space, an optimal hull-calibrated mechanism driven by rejection
sampling over the hull's bounding box in span coordinates (each try is one
``HullGeometry.gauge`` call: a facet-table product on the tabled
one-way-margin tables, a gauge LP elsewhere), the classic l1/l2/linf
mechanisms, and naive group-privacy baselines for the table query. All
draws are keyed by (seed, stream) and are bit-reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .dataspace import _check_integer
from .rng import NoiseRng, RngSeed
from .sensitivity import (
    HULL_TOL,
    SensitivitySpace,
    hull_geometry,
    lp_sensitivity,
    projection_matrix,
    span_basis,
)

#: Give up after this many consecutive rejected direction draws.
MAX_CONSECUTIVE_REJECTIONS = 10**6

#: Single-record-change table sensitivities (one +1, one -1 per move).
TABLE_SINGLE_MOVE_SENSITIVITY = {1: 2.0, 2: math.sqrt(2.0), math.inf: 1.0}

#: The l_p norm each naive and classic mechanism kind is calibrated in.
KIND_NORM = {"gaussian": 2, "l1": 1, "l2": 2, "linf": math.inf}

_DEGENERATE_WARNING = "degenerate sensitivity space; query is constant, no noise added"


class RejectionLimitExceeded(RuntimeError):
    """Raised when the box sampler keeps missing the hull."""


@dataclass(frozen=True)
class MechanismOutput:
    """Released value, the noise that produced it, and run metadata."""

    value: np.ndarray
    noise: np.ndarray
    meta: dict

    def to_json(self) -> str:
        payload = {
            "value": [repr(float(v)) for v in self.value],
            "noise": [repr(float(v)) for v in self.noise],
            "meta": self.meta,
        }
        return json.dumps(payload, sort_keys=True)


def _as_vector(query_value, dim: int | None = None) -> np.ndarray:
    v = np.asarray(query_value, dtype=float).reshape(-1)
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"query value has dimension {v.shape[0]}, expected {dim}")
    return v


@lru_cache(maxsize=128)
def _gaussian_constants(space: SensitivitySpace) -> tuple[int, float, np.ndarray]:
    """Span dimension, Delta_2 and span projector of a space, computed once per space."""
    basis = span_basis(space)
    P = projection_matrix(basis, space.ambient_dim)
    P.setflags(write=False)
    return basis.s, lp_sensitivity(space, 2), P


def gaussian_noise_samples(
    space: SensitivitySpace, mu: float, rng: NoiseRng, size: int
) -> np.ndarray:
    """Bulk projected-Gaussian noise draws, one row per sample."""
    s, delta2, P = _gaussian_constants(space)
    d = space.ambient_dim
    if s == 0:
        return np.zeros((size, d))
    z = np.asarray(rng.normal(scale=delta2 / mu, size=(size, d)))
    return z @ P


def gaussian_semi(query_value, space: SensitivitySpace, mu: float, seed: RngSeed) -> MechanismOutput:
    """Gaussian noise with covariance (Delta_2/mu)^2 P, P projecting onto
    the span of the sensitivity space; directions the adjacent datasets
    cannot move are left exactly noiseless.
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
    space: SensitivitySpace, epsilon: float, rng: NoiseRng, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Bulk hull-mechanism draws.

    Returns (noise, radii, directions, rejection counts): noise[i] equals
    radii[i] * directions[i], where each direction is drawn uniformly from
    the hull by rejection from its bounding box and each radius is an
    independent Gamma(s + 1, epsilon) variate, since every adjacent move has
    hull gauge at most 1. The geometry is looked up once a call, and a try y
    stays in span coordinates: it is accepted when its gauge is at most
    1 + ``HULL_TOL`` (as in ``hull_membership``), and only then mapped to y B.
    """
    geom = hull_geometry(space)
    s, d = geom.s, space.ambient_dim
    if s == 0:
        raise ValueError("sensitivity space has empty span; nothing to randomize")
    radii = np.atleast_1d(np.asarray(rng.gamma(s + 1.0, epsilon, size=(size,))))
    directions = np.empty((size, d))
    rejections: list[int] = []
    bound = 1.0 + HULL_TOL
    for i in range(size):
        misses = 0
        while True:
            y = np.asarray(rng.uniform(-1.0, 1.0, size=s)) * geom.box
            if geom.gauge(y, bound) <= bound:
                directions[i] = y @ geom.basis.vectors
                break
            misses += 1
            if misses >= MAX_CONSECUTIVE_REJECTIONS:
                raise RejectionLimitExceeded(
                    f"{misses} consecutive box draws missed the hull"
                )
        rejections.append(misses)
    noise = radii[:, None] * directions
    return noise, radii, directions, rejections


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
    s = hull_geometry(space).s
    meta = {"mechanism": "knorm_optimal", "epsilon": epsilon, "span_dim": s, "rng": rng.meta()}
    if s == 0:
        meta["warning"] = _DEGENERATE_WARNING
        return MechanismOutput(value=query, noise=np.zeros_like(query), meta=meta)
    noise, radii, _, rejections = knorm_noise_samples(space, epsilon, rng, 1)
    meta.update(delta_k=1.0, radius=repr(float(radii[0])), rejections=rejections[0])
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
    the unit sphere for p=2, and a gamma radius times a uniform box point
    for p=inf.
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
