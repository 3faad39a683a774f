"""Private one-sided odds-ratio test for a 2x2 table with fixed margins.

Conditioned on both one-way margins, the upper-left cell follows a Fisher
noncentral hypergeometric law; the most powerful unbiased private test
rejects with probability F(x11 - m), F the canonical noise CDF for the
target tradeoff function and m solved so the null rejection rate is exactly
alpha. The private p-value post-processes the noisy statistic U = x11 + N.
The central law comes from the exact integer ratio of consecutive
probabilities, so its size stays exact at margins in the billions; it is
built once per margins and odds (a small cache of read-only arrays), so a
test and its p-value share it. Cells and margins must be integers >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .cnd import CndSpec, cnd_cdf, cnd_quantile, cnd_sample
from .dataspace import _check_integer
from .rng import RngSeed

_SIZE_TOL = 1e-12
#: Overshoot of [0, 1] by a p-value that is rounding error, not a fault.
_PVALUE_ROUNDING = 1e-12
#: Most points a central law's support may hold. ``semidp test`` on this
#: many takes about 10 s and 190 MB peak with gdp:1 (2 s and 120 MB with
#: eps:1) on a 2-vCPU host, and memory grows with the support, so ten times
#: it would need about 2 GB; wider supports are refused before allocating.
SUPPORT_CAP = 1_000_000


def _store_counts(counts) -> None:
    """Store each field of a frozen table or margins as an int; ValueError
    naming the field unless it is an integer >= 0."""
    for f in fields(counts):
        object.__setattr__(counts, f.name, _check_integer(getattr(counts, f.name), f.name, 0))


@dataclass(frozen=True)
class Table2x2:
    x11: int
    x12: int
    x21: int
    x22: int

    def __post_init__(self) -> None:
        _store_counts(self)

    def margins(self) -> "Margins":
        return Margins(
            t1dot=self.x11 + self.x12,
            t2dot=self.x21 + self.x22,
            tdot1=self.x11 + self.x21,
            tdot2=self.x12 + self.x22,
        )


@dataclass(frozen=True)
class Margins:
    """Row and column totals; rows and columns must sum to the same n."""

    t1dot: int
    t2dot: int
    tdot1: int
    tdot2: int

    def __post_init__(self) -> None:
        _store_counts(self)
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

    Consecutive probabilities differ by an exact ratio of integer products,
    p(x + 1) / p(x) = w (t1. - x)(t.1 - x) / ((x + 1)(t2. - t.1 + x + 1)),
    which falls strictly in x. The pmf is built as cumulative products of
    them outward from its mode, every factor at most 1, then normalised:
    nothing overflows, far tails underflow to exact zeros, and margins in
    the billions keep full precision. The read-only arrays are cached per
    (margins, w), so a test and its p-value share one central law. Supports
    of more than ``SUPPORT_CAP`` points are refused before allocating.
    """
    if not 0.0 < w < math.inf:
        raise ValueError(f"odds parameter w must be positive and finite, got {w}")
    lo, hi = t.support()
    if hi - lo + 1 > SUPPORT_CAP:
        raise ValueError(f"the central law's support has {hi - lo + 1:,} points, "
                         f"more than SUPPORT_CAP = {SUPPORT_CAP:,}")
    return _nchg_cached(t, w)


@lru_cache(maxsize=16)
def _nchg_cached(t: Margins, w: float) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = t.support()
    x = np.arange(lo, hi, dtype=float)  # exact below 2^53
    num = w * ((t.t1dot - x) * (t.tdot1 - x))
    den = (x + 1.0) * (t.t2dot - t.tdot1 + x + 1.0)
    ratio = num / den
    mode = int(np.count_nonzero(ratio > 1.0))
    below = np.cumprod((den[:mode] / num[:mode])[::-1])[::-1]
    pmf = np.concatenate([below, [1.0], np.cumprod(ratio[mode:])])
    pmf /= pmf.sum()
    xs = np.arange(lo, hi + 1)
    xs.setflags(write=False)
    pmf.setflags(write=False)
    return xs, pmf


def solve_threshold_m(t: Margins, spec: CndSpec, alpha: float) -> float:
    """m with E[F(H - m)] = alpha under the central law.

    The expectation is an exact finite sum over the support and is strictly
    decreasing in m, so the bracket below always contains the root. Each
    step is false position with the Illinois modification (an endpoint kept
    twice in a row has its value halved), and the midpoint whenever that
    step leaves the bracket.
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
    kept = 0  # +1 after a step that kept m_hi, -1 after one that kept m_lo
    for _ in range(200):
        mid = m_hi - g_hi * (m_hi - m_lo) / (g_hi - g_lo)
        if not m_lo < mid < m_hi:
            mid = 0.5 * (m_lo + m_hi)
        g = size_minus_alpha(mid)
        if abs(g) <= _SIZE_TOL:
            return mid
        if g > 0:
            m_lo, g_lo = mid, g
            if kept == 1:
                g_hi *= 0.5
            kept = 1
        else:
            m_hi, g_hi = mid, g
            if kept == -1:
                g_lo *= 0.5
            kept = -1
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
