"""Conditional odds-ratio test: pmf, threshold, test function, p-value."""

import math
from fractions import Fraction

import numpy as np
import pytest

import semidp.inference
from semidp._special import gammaln
from semidp.cnd import cnd_cdf, cnd_quantile, cnd_sample, make_cnd
from semidp.inference import (
    Margins,
    Table2x2,
    TestResult,
    nchg_distribution,
    private_pvalue,
    solve_threshold_m,
    umpu_test,
)
from semidp.rng import RngSeed
from semidp.tradeoff import eval_tradeoff, exact_dp, gaussian_dp

SPEC = make_cnd(gaussian_dp(1.0))
REF_MARGINS = Margins(t1dot=8, t2dot=6, tdot1=7, tdot2=7)


def test_margins_validation_and_support():
    with pytest.raises(ValueError):
        Margins(3, 2, 4, 2)
    t = Margins(5, 5, 4, 6)
    assert t.n == 10
    assert t.support() == (0, 4)
    t2 = Margins(3, 2, 4, 1)
    assert t2.support() == (2, 3)


def test_table_margins_consistency():
    x = Table2x2(5, 3, 2, 4)
    t = x.margins()
    assert (t.t1dot, t.t2dot, t.tdot1, t.tdot2) == (8, 6, 7, 7)
    assert t.table_for(5) == x
    with pytest.raises(ValueError):
        Table2x2(-1, 0, 0, 0)


def test_central_pmf_against_exact_rational_oracle():
    t = Margins(5, 5, 4, 6)
    lo, hi = t.support()
    den = sum(math.comb(5, k) * math.comb(5, 4 - k) for k in range(lo, hi + 1))
    xs, pmf = nchg_distribution(t, 1.0)
    assert xs.tolist() == list(range(lo, hi + 1))
    for x, p in zip(xs.tolist(), pmf):
        exact = Fraction(math.comb(5, x) * math.comb(5, 4 - x), den)
        assert p == pytest.approx(float(exact), abs=1e-14)


def test_pmf_degenerate_support():
    t = Margins(3, 0, 3, 0)
    assert t.support() == (3, 3)
    xs, pmf = nchg_distribution(t, 2.0)
    assert xs.tolist() == [3] and pmf.tolist() == [1.0]


@pytest.mark.parametrize("w", [0.5, 1.0, 3.0])
def test_pmf_normalization(w):
    _, pmf = nchg_distribution(REF_MARGINS, w)
    assert abs(pmf.sum() - 1.0) < 1e-12


def test_pmf_normalization_heavy_margins():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(20, 61))
        r1 = int(rng.integers(1, n))
        c1 = int(rng.integers(1, n))
        t = Margins(r1, n - r1, c1, n - c1)
        for w in (0.25, 1.0, 4.0):
            _, pmf = nchg_distribution(t, w)
            assert abs(pmf.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("n", [0, 1, 2, 37, 255, 256, 1000, 4097, 14_000, 32_767])
def test_log_binom_table_is_bit_equal_to_the_log_gamma_expression(n):
    k = np.arange(n + 1)
    expected = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
    assert np.array_equal(semidp.inference._log_binom(n, k), expected)


def test_log_binom_builds_no_table_for_a_margin_in_the_millions():
    semidp.inference._log_factorials.cache_clear()
    n, k = 3_000_000, np.arange(5)
    expected = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
    assert np.array_equal(semidp.inference._log_binom(n, k), expected)
    assert semidp.inference._log_factorials.cache_info().currsize == 0


def test_pmf_rejects_nonpositive_odds():
    with pytest.raises(ValueError):
        nchg_distribution(REF_MARGINS, 0.0)


def test_central_law_is_built_once_and_read_only():
    semidp.inference._nchg_cached.cache_clear()
    xs, pmf = nchg_distribution(REF_MARGINS, 1.0)
    assert not xs.flags.writeable and not pmf.flags.writeable
    with pytest.raises(ValueError):
        pmf[0] = 0.5
    again = nchg_distribution(Margins(8, 6, 7, 7), 1.0)
    assert again[0] is xs and again[1] is pmf
    # a test and its p-value on one table build its central law once
    semidp.inference._nchg_cached.cache_clear()
    table = Table2x2(10, 20, 15, 25)
    umpu_test(table, SPEC, 0.05)
    private_pvalue(table, SPEC, RngSeed(3))
    info = semidp.inference._nchg_cached.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_threshold_degenerate_support_closed_form():
    t = Margins(3, 0, 3, 0)
    m = solve_threshold_m(t, SPEC, 0.05)
    assert m == pytest.approx(3.0 - float(cnd_quantile(SPEC, 0.05)), abs=1e-12)


def test_threshold_size_self_consistency():
    m = solve_threshold_m(REF_MARGINS, SPEC, 0.05)
    xs, pmf = nchg_distribution(REF_MARGINS, 1.0)
    size = float(pmf @ cnd_cdf(SPEC, xs - m))
    assert abs(size - 0.05) < 1e-9


def test_threshold_monotone_in_alpha():
    m_strict = solve_threshold_m(REF_MARGINS, SPEC, 0.01)
    m_loose = solve_threshold_m(REF_MARGINS, SPEC, 0.10)
    assert m_strict > m_loose


def test_umpu_test_exact_size():
    xs, pmf = nchg_distribution(REF_MARGINS, 1.0)
    for alpha in (0.01, 0.05, 0.2):
        m = solve_threshold_m(REF_MARGINS, SPEC, alpha)
        size = float(pmf @ cnd_cdf(SPEC, xs - m))
        assert abs(size - alpha) < 1e-9
        res = umpu_test(REF_MARGINS.table_for(5), SPEC, alpha)
        assert res.threshold == pytest.approx(m, abs=1e-12)
        assert res.phi_star == pytest.approx(float(cnd_cdf(SPEC, 5 - m)), abs=1e-14)


def test_umpu_exact_size_random_margins():
    rng = np.random.default_rng(17)
    for _ in range(8):
        n = int(rng.integers(6, 41))
        r1 = int(rng.integers(1, n))
        c1 = int(rng.integers(1, n))
        t = Margins(r1, n - r1, c1, n - c1)
        xs, pmf = nchg_distribution(t, 1.0)
        if len(xs) < 2:
            continue
        m = solve_threshold_m(t, SPEC, 0.05)
        assert abs(float(pmf @ cnd_cdf(SPEC, xs - m)) - 0.05) < 1e-8


@pytest.mark.parametrize("f", [gaussian_dp(1.0), exact_dp(1.0), exact_dp(0.5, 1e-3)])
def test_umpu_exact_size_at_large_n(f):
    # n = 14,000 puts 7,001 points on the support, thousands of unit steps
    # from the centre at the bracket ends
    spec = make_cnd(f)
    table = Table2x2(3500, 3500, 3500, 3500)
    res = umpu_test(table, spec, 0.05)
    xs, pmf = nchg_distribution(table.margins(), 1.0)
    assert len(xs) == 7001
    assert abs(float(pmf @ cnd_cdf(spec, xs - res.threshold)) - 0.05) < 1e-8


def _phi_star_on_support(t, spec, alpha):
    m = solve_threshold_m(t, spec, alpha)
    lo, hi = t.support()
    return {x: float(cnd_cdf(spec, x - m)) for x in range(lo, hi + 1)}


def test_rejection_rates_respect_unit_shift_inequalities():
    # neighbouring tables on the same margins differ by one in the free cell;
    # the rejection probabilities must satisfy both directions of the
    # testing constraint phi(x) <= 1 - f(1 - phi(x +- 1))
    f = gaussian_dp(1.0)
    phis = _phi_star_on_support(REF_MARGINS, SPEC, 0.05)
    lo, hi = REF_MARGINS.support()
    for x in range(lo, hi + 1):
        if x + 1 <= hi:
            bound = 1.0 - eval_tradeoff(f, 1.0 - phis[x + 1])
            assert phis[x] <= bound + 1e-12
        if x - 1 >= lo:
            bound = 1.0 - eval_tradeoff(f, 1.0 - phis[x - 1])
            assert phis[x] <= bound + 1e-12


def test_power_monotone_in_odds_ratio():
    m = solve_threshold_m(REF_MARGINS, SPEC, 0.05)
    powers = []
    for w in (0.5, 1.0, 2.0, 4.0):
        xs, pmf = nchg_distribution(REF_MARGINS, w)
        powers.append(float(pmf @ cnd_cdf(SPEC, xs - m)))
    assert all(a < b for a, b in zip(powers, powers[1:]))


def test_private_pvalue_structure():
    table = REF_MARGINS.table_for(5)
    res = private_pvalue(table, SPEC, RngSeed(31))
    assert 0.0 <= res.p_value <= 1.0
    assert res.noisy_statistic is not None
    again = private_pvalue(table, SPEC, RngSeed(31))
    assert res == again


def test_pvalue_agreement_with_test_function():
    # P(p <= alpha | X) equals the rejection probability: p is decreasing in
    # the noisy statistic and crosses alpha exactly at the test threshold
    table = REF_MARGINS.table_for(5)
    alpha = 0.05
    res = umpu_test(table, SPEC, alpha)
    n = 30_000
    noises = cnd_sample(SPEC, RngSeed(32), n)
    frac = float(np.mean(table.x11 + noises >= res.threshold))
    se = math.sqrt(res.phi_star * (1 - res.phi_star) / n)
    assert abs(frac - res.phi_star) < 3 * se

    # spot-check the equivalence {p <= alpha} == {U >= m} on actual p-values
    for seed in range(40):
        pv = private_pvalue(table, SPEC, RngSeed(33, seed))
        assert (pv.p_value <= alpha) == (pv.noisy_statistic >= res.threshold - 1e-12)


def test_pvalue_super_uniform_under_null():
    rng = np.random.default_rng(8)
    xs, pmf = nchg_distribution(REF_MARGINS, 1.0)
    n = 4000
    tables = rng.choice(xs, size=n, p=pmf)
    hits = {0.05: 0, 0.2: 0}
    for i, x in enumerate(tables):
        pv = private_pvalue(REF_MARGINS.table_for(int(x)), SPEC, RngSeed(34, i))
        for alpha in hits:
            hits[alpha] += pv.p_value <= alpha
    for alpha, count in hits.items():
        se = math.sqrt(alpha * (1 - alpha) / n)
        assert count / n <= alpha + 3 * se


PVALUE_OVERSHOOT_CASE = (Table2x2(9, 44, 76, 8), make_cnd(gaussian_dp(1.206)), RngSeed(1534301711))


def test_pvalue_rounding_overshoot_is_clamped():
    # U falls far below the support, so every CDF term is 1 and p is the
    # pmf's sum, which exceeds 1 by a few ulps here
    assert private_pvalue(*PVALUE_OVERSHOOT_CASE).p_value == 1.0


def test_pvalue_overshoot_beyond_rounding_still_raises(monkeypatch):
    exact = semidp.inference.nchg_distribution

    def inflated(t, w):
        xs, pmf = exact(t, w)
        return xs, 1.01 * pmf

    monkeypatch.setattr(semidp.inference, "nchg_distribution", inflated)
    with pytest.raises(ValueError, match="p_value"):
        private_pvalue(*PVALUE_OVERSHOOT_CASE)


def test_test_result_validation():
    with pytest.raises(ValueError):
        TestResult(phi_star=1.2, threshold=0.0, noisy_statistic=None, p_value=None)
    with pytest.raises(ValueError):
        TestResult(phi_star=None, threshold=None, noisy_statistic=1.0, p_value=-0.1)
