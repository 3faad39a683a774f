"""Canonical noise distributions built from a symmetric tradeoff function.

Given a symmetric nontrivial tradeoff function f, a canonical noise CDF F is
pinned by the fixed point c in [0, 1/2) with f(1 - c) = c: F is affine with
slope 1 - 2c on [-1/2, 1/2] and extends one unit step at a time through
F(x) = f(F(x + 1)) on the left and F(x) = 1 - f(1 - F(x - 1)) on the right.
Adding noise drawn from F to an integer-valued statistic with unit
sensitivity makes the unit-shift testing problem exactly as hard as f.

Unrolling the steps, F(-|x|) = f^(k)(1/2 - r (1 - 2c)) with k = ceil(|x| - 1/2)
and r = |x| - k, so the CDF is one closed-form k-fold iterate per point. For
the Gaussian and (epsilon, delta) families and their self powers that
iterate also inverts in closed form, which gives the quantile (Awan &
Vadhan, Ann. Stat. 2023; the pure epsilon case is the Tulap law of Awan &
Slavkovic 2018).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._special import ndtr, ndtri
from .rng import NoiseRng, RngSeed
from .tradeoff import (
    GAUSSIAN_DP,
    SELF_POWER,
    TradeoffSpec,
    eval_tradeoff,
    iterate_tradeoff,
)

_FIXED_POINT_TOL = 1e-13


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


def solve_c(f: TradeoffSpec) -> float:
    """Fixed point c of f(1-c) = c on [0, 1/2].

    f(1-c) - c decreases strictly from f(1) at c = 0 to f(1/2) - 1/2 <= 0
    at c = 1/2, so the root is unique. Trivial inputs (root at 1/2) and the
    perfect-distinguishability edge f(1) = 0 (root at 0) are rejected.
    Every case is closed form. The p-fold iterate of a Gaussian curve is
    G_(p mu), with c = Phi(-p mu / 2). An (epsilon, delta) curve g has
    c_g = (1 - delta) / (1 + e^epsilon), where its sloped branches meet, and
    its p-fold iterate has c = g^(p/2)(1/2) for even p, c = g^((p-1)/2)(c_g)
    for odd p: g is symmetric, g(1 - g(a)) = 1 - a, so g^(floor(p/2)) carries
    1 - c to 1/2 or to 1 - c_g, and the remaining steps carry that to c.
    """
    if eval_tradeoff(f, 1.0) <= _FIXED_POINT_TOL:
        raise ValueError("f(1) = 0: distributions are perfectly distinguishable at "
                         "the endpoint; the construction degenerates")
    g, p = _base_power(f)
    if g.family == GAUSSIAN_DP:
        c = float(ndtr(-0.5 * (p * g.mu)))
    elif p > 1:
        c = iterate_tradeoff(g, 0.5 if p % 2 == 0 else solve_c(g), p // 2)
    else:
        c = (1.0 - g.delta) / (1.0 + math.exp(g.epsilon))
    if c >= 0.5 - 1e-9:
        raise ValueError("fixed point sits at 1/2; tradeoff function is trivial")
    return c


def _base_power(f: TradeoffSpec) -> tuple[TradeoffSpec, int]:
    """(g, p) with f = g^(p) and g a Gaussian or (epsilon, delta) curve."""
    g, p = f, 1
    while g.family == SELF_POWER:
        g, p = g.base, p * g.power
    return g, p


def make_cnd(f: TradeoffSpec) -> CndSpec:
    return CndSpec(tradeoff=f, c=solve_c(f))


def cnd_cdf(spec: CndSpec, x):
    """CDF of the canonical noise distribution; scalar or ndarray input."""
    arr = np.asarray(x, dtype=float)
    flat = np.atleast_1d(arr)
    ax = np.abs(flat)
    steps = np.maximum(np.ceil(ax - 0.5), 0.0)
    with np.errstate(invalid="ignore"):
        # |x| = inf takes infinitely many steps from the band's edge: F(-inf) = 0
        offset = np.where(np.isinf(ax), 0.5, ax - steps)
    left = iterate_tradeoff(spec.tradeoff, 0.5 - offset * (1.0 - 2.0 * spec.c), steps)
    out = np.where(flat > 0, 1.0 - left, left)
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def _invert_iterate(f: TradeoffSpec, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Steps k and central level a in [c, 1 - c] with f^(k)(a) = u, for u <= 1/2.

    Step k of the left tail covers [f^(k+1)(1 - c), f^(k)(1 - c)), so k is
    the least integer with f^(k+1)(1 - c) <= u, and a is f^(-k)(u).
    """
    g, p = _base_power(f)
    if g.family == GAUSSIAN_DP:
        # f^(k)(1 - c) = Phi(mu/2 - k mu)
        mu = p * g.mu
        z = ndtri(u)
        k = np.maximum(0.0, np.ceil((-z - 0.5 * mu) / mu))
        return k, ndtr(z + k * mu)
    # f = g^(p) for an (epsilon, delta) curve g, c_g = g(1 - c_g) its kink value.
    # As in solve_c, g^(h)(1 - c) is 1/2 for p = 2h and 1 - c_g for p = 2h + 1,
    # whose next g-step is c_g; from 1/2 or c_g on, g takes its lower branch.
    # So j g-steps carry 1 - c to u or below, and k = ceil(j / p) - 1.
    eps, delta = g.epsilon, g.delta
    c_g = (1.0 - delta) / (1.0 + math.exp(eps))
    top, first = (0.5, p // 2) if p % 2 == 0 else (c_g, p // 2 + 1)
    if eps == 0.0:
        # g(a) = a - delta on both branches
        j = first + np.maximum(0.0, np.ceil((top - u) / delta))
        k = np.maximum(0.0, np.ceil(j / p) - 1.0)
        return k, u + p * k * delta
    # on [0, 1 - c_g] g^(j)(a) + d = e^(-j eps) (a + d) with d = delta / (e^eps - 1)
    d = delta / math.expm1(eps)
    j = first + np.maximum(0.0, np.ceil(np.log((top + d) / (u + d)) / eps))
    k = np.maximum(0.0, np.ceil(j / p) - 1.0)
    # p k inverse g-steps from u: on the lower branch while the value is at
    # most c_g (all of them when p = 1), then on the upper branch, on which
    # b = 1 - w follows the lower branch forward
    low = k if p == 1 else np.minimum(
        p * k, np.maximum(0.0, np.floor(np.log((c_g + d) / (u + d)) / eps) + 1.0))
    a = np.exp(low * eps) * u + delta * np.expm1(low * eps) / math.expm1(eps)
    if p == 1:
        return k, a
    up = p * k - low
    b = np.exp(-up * eps) * (1.0 - a) + delta * np.expm1(-up * eps) / math.expm1(eps)
    return k, np.where(up > 0.0, 1.0 - b, a)


def cnd_quantile(spec: CndSpec, u):
    """Inverse CDF, in closed form: the left tail inverts the k-fold iterate
    directly and the right tail follows by symmetry, Q(u) = -Q(1 - u).
    """
    arr = np.asarray(u, dtype=float)
    flat = np.atleast_1d(arr)
    if not ((flat > 0.0) & (flat < 1.0)).all():
        raise ValueError("u must lie strictly inside (0, 1)")
    steps, level = _invert_iterate(spec.tradeoff, np.minimum(flat, 1.0 - flat))
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
