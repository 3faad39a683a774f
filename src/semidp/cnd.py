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

``make_cnd`` and ``CndSpec`` validate once: the curve's constants (its base
curve and power, the kink (1 - delta) / (1 + e^epsilon), expm1(epsilon) and
1 - 2c) are computed when the spec is built and kept on it. ``cnd_quantile`` and
``cnd_sample`` check their inputs; after that the CDF, the quantile and the
fixed point evaluate the tradeoff through the unvalidated evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._special import ndtr, ndtri
from .rng import NoiseRng, RngSeed
from .tradeoff import TradeoffSpec, _Curve, _curve, _iterate

_FIXED_POINT_TOL = 1e-13
#: Most draws one ``cnd_sample`` call makes. ``semidp cnd --sample`` spends
#: about 1.7 us and 170 bytes of peak memory a draw (the draws, their reprs
#: and the JSON), so the cap is about 2 s and 200 MB; larger counts are
#: refused before anything is allocated.
SAMPLE_CAP = 1_000_000


@dataclass(frozen=True)
class CndSpec:
    """A tradeoff function together with its fixed point c, f(1-c) = c.

    Construction checks the fixed point and keeps the constants every
    evaluation uses: the base curve and power with their constants, and the
    central band's slope 1 - 2c.
    """

    tradeoff: TradeoffSpec
    c: float
    curve: _Curve = field(init=False, repr=False, compare=False)
    slope: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.c < 0.5:
            raise ValueError(f"c must lie in [0, 1/2), got {self.c}")
        curve = _curve(self.tradeoff)
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "slope", 1.0 - 2.0 * self.c)
        # f(1 - c) from b = 1 - a = c itself, so no bit of c is lost
        c = np.float64(self.c)
        gap = abs(float(_iterate(curve, 1.0 - c, 1, b=c)) - self.c)
        if gap > 1e-12:
            raise ValueError(f"c does not satisfy f(1-c)=c (residual {gap:.2e})")


def solve_c(f: TradeoffSpec) -> float:
    """Fixed point c of f(1-c) = c on [0, 1/2].

    f(1-c) - c decreases strictly from f(1) at c = 0 to f(1/2) - 1/2 <= 0
    at c = 1/2, so the root is unique. Trivial inputs (root at 1/2), the
    perfect-distinguishability edge f(1) = 0 (root at 0) and a root that
    underflows to 0 are rejected. Every case is closed form. The p-fold
    iterate of a Gaussian curve is G_(p mu), with c = Phi(-p mu / 2). An
    (epsilon, delta) curve g has c_g = (1 - delta) / (1 + e^epsilon), where
    its sloped branches meet, and its p-fold iterate has c = g^(p/2)(1/2)
    for even p, c = g^((p-1)/2)(c_g) for odd p: g is symmetric,
    g(1 - g(a)) = 1 - a, so g^(floor(p/2)) carries 1 - c to 1/2 or to
    1 - c_g, and the remaining steps carry that to c.
    """
    curve = _curve(f)
    if _iterate(curve, np.float64(1.0), 1) <= _FIXED_POINT_TOL:
        raise ValueError("f(1) = 0: distributions are perfectly distinguishable at "
                         "the endpoint; the construction degenerates")
    p = curve.p
    if curve.gaussian:
        c = float(ndtr(-0.5 * (p * curve.mu)))
    elif p > 1:
        start = 0.5 if p % 2 == 0 else curve.kink
        c = float(_iterate(curve._replace(p=1), np.float64(start), p // 2))
    else:
        c = curve.kink
    if c >= 0.5 - 1e-9:
        raise ValueError("fixed point sits at 1/2; tradeoff function is trivial")
    if c == 0.0:
        raise ValueError("fixed point c underflows to 0: the curve is too close to "
                         "perfect distinguishability for a float noise distribution")
    return c


def make_cnd(f: TradeoffSpec) -> CndSpec:
    return CndSpec(tradeoff=f, c=solve_c(f))


def cnd_cdf(spec: CndSpec, x):
    """CDF of the canonical noise distribution; scalar or ndarray input."""
    arr = np.asarray(x, dtype=float)
    ax = np.abs(arr)
    steps = np.ceil(ax - 0.5)  # -0.0 on the band, which every step count treats as 0
    with np.errstate(invalid="ignore"):
        # |x| = inf takes infinitely many steps from the band's edge: F(-inf) = 0
        offset = np.where(np.isinf(ax), 0.5, ax - steps)
    left = _iterate(spec.curve, 0.5 - offset * spec.slope, steps)
    if arr.ndim == 0:
        return float(1.0 - left if arr > 0 else left)
    return np.subtract(1.0, left, out=left, where=arr > 0)


def _invert_iterate(curve: _Curve, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Steps k and central level a in [c, 1 - c] with f^(k)(a) = u, for u <= 1/2.

    Step k of the left tail covers [f^(k+1)(1 - c), f^(k)(1 - c)), so k is
    the least integer with f^(k+1)(1 - c) <= u, and a is f^(-k)(u).
    """
    p = curve.p
    if curve.gaussian:
        # f^(k)(1 - c) = Phi(mu/2 - k mu)
        mu = p * curve.mu
        z = ndtri(u)
        k = np.maximum(0.0, np.ceil((-z - 0.5 * mu) / mu))
        return k, ndtr(z + k * mu)
    # f = g^(p) for an (epsilon, delta) curve g, c_g = g(1 - c_g) its kink value.
    # As in solve_c, g^(h)(1 - c) is 1/2 for p = 2h and 1 - c_g for p = 2h + 1,
    # whose next g-step is c_g; from 1/2 or c_g on, g takes its lower branch.
    # So j g-steps carry 1 - c to u or below, and k = ceil(j / p) - 1.
    eps, delta, c_g, em1 = curve.epsilon, curve.delta, curve.kink, curve.expm1_eps
    top, first = (0.5, p // 2) if p % 2 == 0 else (c_g, p // 2 + 1)
    if eps == 0.0:
        # g(a) = a - delta on both branches
        j = first + np.maximum(0.0, np.ceil((top - u) / delta))
        k = np.maximum(0.0, np.ceil(j / p) - 1.0)
        return k, u + p * k * delta
    # on [0, 1 - c_g] g^(j)(a) + d = e^(-j eps) (a + d) with d = delta / (e^eps - 1)
    d = delta / em1
    j = first + np.maximum(0.0, np.ceil(np.log((top + d) / (u + d)) / eps))
    k = np.maximum(0.0, np.ceil(j / p) - 1.0)
    # p k inverse g-steps from u: on the lower branch while the value is at
    # most c_g (all of them when p = 1), then on the upper branch, on which
    # b = 1 - w follows the lower branch forward
    low = k if p == 1 else np.minimum(
        p * k, np.maximum(0.0, np.floor(np.log((c_g + d) / (u + d)) / eps) + 1.0))
    t = low * eps
    a = np.exp(t) * u + delta * np.expm1(t) / em1
    if p == 1:
        return k, a
    up = p * k - low
    t = -up * eps
    b = np.exp(t) * (1.0 - a) + delta * np.expm1(t) / em1
    return k, np.where(up > 0.0, 1.0 - b, a)


def cnd_quantile(spec: CndSpec, u):
    """Inverse CDF, in closed form: the left tail inverts the k-fold iterate
    directly and the right tail follows by symmetry, Q(u) = -Q(1 - u).
    """
    arr = np.asarray(u, dtype=float)
    if not ((arr > 0.0) & (arr < 1.0)).all():
        raise ValueError("u must lie strictly inside (0, 1)")
    steps, level = _invert_iterate(spec.curve, np.minimum(arr, 1.0 - arr))
    left = (level - 0.5) / spec.slope - steps
    if arr.ndim == 0:
        return float(-left if arr > 0.5 else left)
    return np.negative(left, out=left, where=arr > 0.5)


def cnd_sample(spec: CndSpec, seed: RngSeed, count: int) -> np.ndarray:
    """Inverse-transform samples from the canonical noise distribution."""
    if not 1 <= count <= SAMPLE_CAP:
        raise ValueError(f"count must lie in [1, {SAMPLE_CAP:,}], got {count}")
    rng = NoiseRng(seed)
    u = np.asarray(rng.uniform_open(size=count))
    return np.asarray(cnd_quantile(spec, u))
