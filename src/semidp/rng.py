"""Reproducible noise generation on counter-based Philox streams.

Every mechanism draw is keyed by a (seed, stream) pair; equal pairs produce
byte-identical noise and distinct streams are statistically independent by
the counter-based construction, so replicates can run in parallel without
coordination. Uniforms come straight off the bit generator; normals and
Laplace variates are inverse-CDF transforms of those uniforms, and gamma
variates use the Marsaglia-Tsang shape-rate rejection method on top of
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._special import ndtri

GENERATOR_NAME = "philox4x64"

#: ``Generator.random`` returns k / 2^53 for the top 53 bits k of a raw word;
#: adding half a step centres each value in its step, and every sum but the
#: top one, (2^53 - 1/2) / 2^53, which rounds to 1, is exact or ties to even.
_HALF_ULP = 2.0**-54
_BELOW_ONE = 1.0 - 2.0**-53


@dataclass(frozen=True)
class RngSeed:
    """64-bit seed plus stream id; same pair, same noise sequence."""

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if not 0 <= self.stream < 2**64:
            raise ValueError("stream must fit in 64 bits")

    def with_stream(self, stream: int) -> "RngSeed":
        return RngSeed(self.seed, stream)


class NoiseRng:
    """Deterministic distribution sampler over one Philox stream."""

    def __init__(self, seed: RngSeed):
        self.seed = seed
        key = np.array([seed.seed, seed.stream], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniform_open(self, size=None) -> np.ndarray | float:
        """Uniform draws strictly inside (0, 1): (k + 1/2) / 2^53 for the top 53
        bits k of one raw word each, except that the top k, whose value
        rounds to 1, gives the largest double below 1."""
        return np.minimum(self._gen.random(size) + _HALF_ULP, _BELOW_ONE)

    def uniform(self, low: float, high: float, size=None):
        return low + (high - low) * self.uniform_open(size)

    def normal(self, scale: float = 1.0, size=None):
        return scale * ndtri(self.uniform_open(size))

    def laplace(self, scale: float, size=None):
        u = self.uniform_open(size) - 0.5
        return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))

    def gamma(self, shape: float, rate: float, size=None):
        """Gamma(shape, rate) draws, mean shape/rate."""
        if shape <= 0 or rate <= 0:
            raise ValueError("shape and rate must be positive")
        n = 1 if size is None else int(np.prod(size))
        if shape < 1.0:
            # boost: Gamma(a) = Gamma(a+1) * U^(1/a)
            g = self._gamma_shape_ge1(shape + 1.0, n)
            u = np.asarray(self.uniform_open(n))
            out = g * u ** (1.0 / shape)
        else:
            out = self._gamma_shape_ge1(shape, n)
        out = out / rate
        if size is None:
            return float(out[0])
        return out.reshape(size)

    def _gamma_shape_ge1(self, shape: float, n: int) -> np.ndarray:
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        out = np.empty(n)
        filled = 0
        while filled < n:
            need = n - filled
            m = 2 * need + 8
            normal_u = np.asarray(self.uniform_open(m))  # as normal(size=m) draws them
            u = np.asarray(self.uniform_open(m))
            # the first `need` accepted candidates are kept and nearly every
            # candidate is accepted, so later normals are computed only if needed
            for block in (slice(0, need), slice(need, m)):
                x = ndtri(normal_u[block])
                v = (1.0 + c * x) ** 3
                with np.errstate(invalid="ignore", divide="ignore"):
                    ok = (v > 0) & (np.log(u[block]) < 0.5 * x**2 + d - d * v + d * np.log(v))
                accepted = d * v[ok]
                take = min(len(accepted), n - filled)
                out[filled : filled + take] = accepted[:take]
                filled += take
                if filled == n:
                    break
        return out

    def multinomial(self, n: int, pvals) -> np.ndarray:
        """Multinomial counts via inverse-CDF assignment of n uniforms."""
        p = np.asarray(pvals, dtype=float)
        if np.any(p < 0):
            raise ValueError("probabilities must be non-negative")
        edges = np.cumsum(p / p.sum())
        u = np.asarray(self.uniform_open(n))
        cells = np.searchsorted(edges, u, side="right")
        return np.bincount(cells, minlength=len(p))

    def meta(self) -> dict:
        return {
            "generator": GENERATOR_NAME,
            "seed": self.seed.seed,
            "stream": self.seed.stream,
            "normal": "inverse_cdf",
            "gamma": "marsaglia_tsang_rate",
        }
