"""Private one-sided odds-ratio test for a 2x2 table with fixed margins.

Conditioned on both one-way margins, the upper-left cell follows a Fisher
noncentral hypergeometric law; the most powerful unbiased private test
rejects with probability F(x11 - m), F the canonical noise CDF for the
target tradeoff function and m solved so the null rejection rate is exactly
alpha. The private p-value post-processes the noisy statistic U = x11 + N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from .cnd import CndSpec, cnd_cdf, cnd_quantile, cnd_sample
from .rng import RngSeed

_SIZE_TOL = 1e-12
#: Overshoot of [0, 1] by a p-value that is rounding error, not a fault.
_PVALUE_ROUNDING = 1e-12


@dataclass(frozen=True)
class Table2x2:
    x11: int
    x12: int
    x21: int
    x22: int

    def __post_init__(self) -> None:
        if min(self.x11, self.x12, self.x21, self.x22) < 0:
            raise ValueError("table cells must be non-negative")

    def margins(self) -> "Margins":
        return Margins(
            t1dot=self.x11 + self.x12,
            t2dot=self.x21 + self.x22,
            tdot1=self.x11 + self.x21,
            tdot2=self.x12 + self.x22,
        )

    def vector(self) -> tuple[int, int, int, int]:
        return (self.x11, self.x12, self.x21, self.x22)


@dataclass(frozen=True)
class Margins:
    """Row and column totals; rows and columns must sum to the same n."""

    t1dot: int
    t2dot: int
    tdot1: int
    tdot2: int

    def __post_init__(self) -> None:
        if min(self.t1dot, self.t2dot, self.tdot1, self.tdot2) < 0:
            raise ValueError("margins must be non-negative")
        if self.t1dot + self.t2dot != self.tdot1 + self.tdot2:
            raise ValueError("row and column margins must sum to the same total")

    @property
    def n(self) -> int:
        return self.t1dot + self.t2dot

    def support(self) -> tuple[int, int]:
        lo = max(0, self.tdot1 - self.t2dot)
        hi = min(self.t1dot, self.tdot1)
        return lo, hi

    def table_for(self, x11: int) -> Table2x2:
        return Table2x2(
            x11=x11,
            x12=self.t1dot - x11,
            x21=self.tdot1 - x11,
            x22=self.t2dot - self.tdot1 + x11,
        )


def nchg_distribution(t: Margins, w: float) -> tuple[np.ndarray, np.ndarray]:
    """Support points and probabilities of the noncentral hypergeometric law.

    Computed in log space (log-binomials via log-gamma) and normalized by
    log-sum-exp, so heavy margins stay stable.
    """
    if w <= 0:
        raise ValueError(f"odds parameter w must be positive, got {w}")
    lo, hi = t.support()
    xs = np.arange(lo, hi + 1)
    logs = (
        _log_binom(t.t1dot, xs)
        + _log_binom(t.t2dot, t.tdot1 - xs)
        + xs * math.log(w)
    )
    logs -= logsumexp(logs)
    return xs, np.exp(logs)


def _log_binom(n: int, k: np.ndarray) -> np.ndarray:
    return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)


def nchg_pmf(t: Margins, w: float, x: int) -> float:
    """Probability of upper-left cell x; zero off the support."""
    lo, hi = t.support()
    if x < lo or x > hi:
        return 0.0
    xs, pmf = nchg_distribution(t, w)
    return float(pmf[x - lo])


def solve_threshold_m(t: Margins, spec: CndSpec, alpha: float) -> float:
    """m with E[F(H - m)] = alpha under the central law, by bisection.

    The expectation is an exact finite sum over the support and is strictly
    decreasing in m, so the bracket below always contains the root.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    lo, hi = t.support()
    if lo == hi:
        return lo - float(cnd_quantile(spec, alpha))
    xs, pmf = nchg_distribution(t, 1.0)

    def size_minus_alpha(m: float) -> float:
        return float(pmf @ cnd_cdf(spec, xs - m)) - alpha

    m_lo = lo - float(cnd_quantile(spec, 1.0 - 1e-12))
    m_hi = hi - float(cnd_quantile(spec, 1e-12))
    g_lo, g_hi = size_minus_alpha(m_lo), size_minus_alpha(m_hi)
    if not (g_lo > 0 > g_hi):
        raise RuntimeError("threshold bracket failed to straddle the root")
    for _ in range(200):
        mid = 0.5 * (m_lo + m_hi)
        g = size_minus_alpha(mid)
        if abs(g) <= _SIZE_TOL:
            return mid
        if g > 0:
            m_lo = mid
        else:
            m_hi = mid
    return 0.5 * (m_lo + m_hi)


@dataclass(frozen=True)
class TestResult:
    __test__ = False  # keep pytest from collecting this as a test class

    phi_star: float | None
    threshold: float | None
    noisy_statistic: float | None
    p_value: float | None

    def __post_init__(self) -> None:
        if self.phi_star is not None and not 0.0 <= self.phi_star <= 1.0:
            raise ValueError("phi_star must lie in [0, 1]")
        if self.p_value is not None and not 0.0 <= self.p_value <= 1.0:
            raise ValueError("p_value must lie in [0, 1]")


def umpu_test(table: Table2x2, spec: CndSpec, alpha: float) -> TestResult:
    """Rejection probability F(x11 - m) of the size-alpha threshold test."""
    t = table.margins()
    m = solve_threshold_m(t, spec, alpha)
    phi = float(cnd_cdf(spec, table.x11 - m))
    return TestResult(phi_star=phi, threshold=m, noisy_statistic=None, p_value=None)


def private_pvalue(table: Table2x2, spec: CndSpec, seed: RngSeed) -> TestResult:
    """Noisy statistic U = x11 + N and its exact-summation p-value.

    p = E[F(H - U)] under the central law is a post-processing of U alone,
    so it inherits U's privacy guarantee.
    """
    t = table.margins()
    noise = float(cnd_sample(spec, seed, 1)[0])
    u = table.x11 + noise
    xs, pmf = nchg_distribution(t, 1.0)
    p = float(pmf @ cnd_cdf(spec, xs - u))
    if -_PVALUE_ROUNDING <= p <= 1.0 + _PVALUE_ROUNDING:
        # the pmf sums to 1 only up to rounding, so p can leave [0, 1] by a few ulps
        p = min(max(p, 0.0), 1.0)
    return TestResult(phi_star=None, threshold=None, noisy_statistic=u, p_value=p)
