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
from scipy.special import ndtri

GENERATOR_NAME = "philox4x64"

_TWO53 = float(1 << 53)


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
        """Uniform draws strictly inside (0, 1)."""
        ints = self._gen.integers(0, 1 << 53, size=size)
        return (ints + 0.5) / _TWO53

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
            m = 2 * (n - filled) + 8
            x = np.asarray(self.normal(size=m))
            v = (1.0 + c * x) ** 3
            u = np.asarray(self.uniform_open(m))
            with np.errstate(invalid="ignore", divide="ignore"):
                ok = (v > 0) & (np.log(u) < 0.5 * x**2 + d - d * v + d * np.log(v))
            accepted = d * v[ok]
            take = min(len(accepted), n - filled)
            out[filled : filled + take] = accepted[:take]
            filled += take
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
