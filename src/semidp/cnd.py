"""Canonical noise distributions built from a symmetric tradeoff function.

Given a symmetric nontrivial tradeoff function f, a canonical noise CDF F is
pinned by the fixed point c in [0, 1/2) with f(1 - c) = c: F is affine with
slope 1 - 2c on [-1/2, 1/2] and extends one unit step at a time through
F(x) = f(F(x + 1)) on the left and F(x) = 1 - f(1 - F(x - 1)) on the right.
Adding noise drawn from F to an integer-valued statistic with unit
sensitivity makes the unit-shift testing problem exactly as hard as f.

Unrolling the steps, F(-|x|) = f^(k)(1/2 - r (1 - 2c)) with k = ceil(|x| - 1/2)
and r = |x| - k, so the CDF is one closed-form k-fold iterate per point. For
the Gaussian and (epsilon, delta) families that iterate also inverts in
closed form, which gives the quantile (Awan & Vadhan, Ann. Stat. 2023; the
pure epsilon case is the Tulap law of Awan & Slavkovic 2018).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .rng import NoiseRng, RngSeed
from .tradeoff import (
    EXACT_DP,
    GAUSSIAN_DP,
    SELF_POWER,
    TradeoffSpec,
    compose_self,
    eval_tradeoff,
    iterate_tradeoff,
)

_FIXED_POINT_TOL = 1e-13
_QUANTILE_TOL = 1e-13
_MAX_BRACKET_DOUBLINGS = 200


@dataclass(frozen=True)
class CndSpec:
    """A tradeoff function together with its fixed point c, f(1-c) = c."""

    tradeoff: TradeoffSpec
    c: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.c < 0.5:
            raise ValueError(f"c must lie in [0, 1/2), got {self.c}")
        gap = abs(eval_tradeoff(self.tradeoff, 1.0 - self.c) - self.c)
        if gap > 1e-12:
            raise ValueError(f"c does not satisfy f(1-c)=c (residual {gap:.2e})")


def _closed_form(f: TradeoffSpec) -> TradeoffSpec | None:
    """f as a gaussian_dp or exact_dp curve when it is one, else None."""
    if f.family == SELF_POWER:
        f = compose_self(f.base, f.power)
    return f if f.family in (GAUSSIAN_DP, EXACT_DP) else None


def solve_c(f: TradeoffSpec) -> float:
    """Fixed point c of f(1-c) = c on [0, 1/2].

    g(c) = f(1-c) - c is strictly decreasing, g(0) = f(1) and
    g(1/2) = f(1/2) - 1/2 <= 0, since every tradeoff family has f(a) <= a.
    Trivial inputs (root at 1/2) and the perfect-distinguishability edge
    f(1) = 0 (root at 0) are rejected. Gaussian curves have c = Phi(-mu/2)
    and (epsilon, delta) curves c = (1 - delta) / (1 + e^epsilon), where the
    two sloped branches meet; other curves are solved by bisection on g.
    """
    if eval_tradeoff(f, 1.0) <= _FIXED_POINT_TOL:
        raise ValueError("f(1) = 0: distributions are perfectly distinguishable at "
                         "the endpoint; the construction degenerates")
    closed = _closed_form(f)
    if closed is None:
        lo, hi = 0.0, 0.5
        while hi - lo > _FIXED_POINT_TOL:
            mid = 0.5 * (lo + hi)
            if eval_tradeoff(f, 1.0 - mid) - mid > 0:
                lo = mid
            else:
                hi = mid
        c = 0.5 * (lo + hi)
    elif closed.family == GAUSSIAN_DP:
        c = float(ndtr(-0.5 * closed.mu))
    else:
        c = (1.0 - closed.delta) / (1.0 + math.exp(closed.epsilon))
    if c >= 0.5 - 1e-9:
        raise ValueError("fixed point sits at 1/2; tradeoff function is trivial")
    return c


def make_cnd(f: TradeoffSpec) -> CndSpec:
    return CndSpec(tradeoff=f, c=solve_c(f))


def _cdf_array(spec: CndSpec, x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    steps = np.maximum(np.ceil(ax - 0.5), 0.0)
    with np.errstate(invalid="ignore"):
        # |x| = inf takes infinitely many steps from the band's edge: F(-inf) = 0
        offset = np.where(np.isinf(ax), 0.5, ax - steps)
    left = iterate_tradeoff(spec.tradeoff, 0.5 - offset * (1.0 - 2.0 * spec.c), steps)
    return np.where(x > 0, 1.0 - left, left)


def cnd_cdf(spec: CndSpec, x):
    """CDF of the canonical noise distribution; scalar or ndarray input."""
    arr = np.asarray(x, dtype=float)
    out = _cdf_array(spec, np.atleast_1d(arr))
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def _invert_iterate(f: TradeoffSpec, c: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Steps k and central level a in [c, 1 - c] with f^(k)(a) = u, for u <= 1/2.

    Step k of the left tail covers [f^(k+1)(1 - c), f^(k)(1 - c)), so k is
    the least integer with f^(k+1)(1 - c) <= u, and a is f^(-k)(u).
    """
    if f.family == GAUSSIAN_DP:
        # f^(k)(1 - c) = Phi(mu/2 - k mu)
        z = ndtri(u)
        k = np.maximum(0.0, np.ceil((-z - 0.5 * f.mu) / f.mu))
        return k, ndtr(z + k * f.mu)
    eps, delta = f.epsilon, f.delta
    if eps == 0.0:
        # f(a) = a - delta, so f^(k)(1 - c) = c - (k - 1) delta
        k = np.maximum(0.0, np.ceil((c - u) / delta))
        return k, u + k * delta
    # on [0, 1 - c] f^(k)(a) + d = e^(-k eps) (a + d) with d = delta / (e^eps - 1)
    d = delta / math.expm1(eps)
    k = np.maximum(0.0, np.ceil(np.log((c + d) / (u + d)) / eps))
    return k, np.exp(k * eps) * u + delta * np.expm1(k * eps) / math.expm1(eps)


def _bisect_quantile(spec: CndSpec, u: np.ndarray) -> np.ndarray:
    """Quantile by bracket expansion then bisection on the CDF, to 1e-13."""
    lo, hi = -1.0, 1.0
    for _ in range(_MAX_BRACKET_DOUBLINGS):
        f_lo, f_hi = _cdf_array(spec, np.array([lo, hi]))
        if f_lo < u.min() and f_hi > u.max():
            break
        lo *= 2.0
        hi *= 2.0
    else:
        raise RuntimeError("quantile bracket expansion failed")
    los = np.full_like(u, lo)
    his = np.full_like(u, hi)
    # fixed iteration count: halving until the bracket is below tolerance
    iters = int(np.ceil(np.log2((hi - lo) / _QUANTILE_TOL)))
    for _ in range(iters):
        mid = 0.5 * (los + his)
        below = _cdf_array(spec, mid) < u
        los = np.where(below, mid, los)
        his = np.where(below, his, mid)
    return 0.5 * (los + his)


def cnd_quantile(spec: CndSpec, u):
    """Inverse CDF; closed form for Gaussian and (epsilon, delta) curves.

    The left tail inverts the k-fold iterate directly and the right tail
    follows by symmetry, Q(u) = -Q(1 - u). Other curves bisect the CDF.
    """
    arr = np.asarray(u, dtype=float)
    flat = np.atleast_1d(arr)
    if np.any(flat <= 0.0) or np.any(flat >= 1.0):
        raise ValueError("u must lie strictly inside (0, 1)")
    f = _closed_form(spec.tradeoff)
    if f is None:
        out = _bisect_quantile(spec, flat)
    else:
        steps, level = _invert_iterate(f, spec.c, np.minimum(flat, 1.0 - flat))
        left = (level - 0.5) / (1.0 - 2.0 * spec.c) - steps
        out = np.where(flat > 0.5, -left, left)
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def cnd_sample(spec: CndSpec, seed: RngSeed, count: int) -> np.ndarray:
    """Inverse-transform samples from the canonical noise distribution."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = NoiseRng(seed)
    u = np.asarray(rng.uniform_open(size=count))
    return np.asarray(cnd_quantile(spec, u))
