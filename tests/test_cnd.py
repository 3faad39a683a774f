"""Canonical noise construction: fixed point, CDF, quantile, sampling."""

import math

import numpy as np
import pytest
import scipy.stats as st
from scipy.special import ndtr, ndtri

from semidp import _special
from semidp.cnd import SAMPLE_CAP, CndSpec, cnd_cdf, cnd_quantile, cnd_sample, make_cnd, solve_c
from semidp.inference import Table2x2, nchg_distribution, umpu_test
from semidp.rng import RngSeed
from semidp.tradeoff import _iterate
from semidp.tradeoff import eval_tradeoff, exact_dp, gaussian_dp, iterate_tradeoff, self_power

F_GAUSS = gaussian_dp(1.0)
F_PURE = exact_dp(1.0, 0.0)
F_MIXED = exact_dp(0.5, 0.01)


def test_solve_c_gaussian_closed_form():
    # plugging c = Phi(-mu/2) into f(1-c) returns c
    c = solve_c(F_GAUSS)
    target = float(ndtr(-0.5))
    assert eval_tradeoff(F_GAUSS, 1.0 - target) == pytest.approx(target, abs=1e-14)
    assert c == pytest.approx(target, abs=1e-12)


def test_solve_c_pure_dp_closed_form():
    # lower linear branch: e^-eps (1 - c) = c  =>  c = 1 / (1 + e^eps)
    assert solve_c(F_PURE) == pytest.approx(1.0 / (1.0 + math.e), abs=1e-12)


def test_solve_c_with_delta_closed_form():
    # e^-eps (1 - c - delta) = c  =>  c = (1 - delta) / (1 + e^eps)
    expected = 0.99 / (1.0 + math.exp(0.5))
    assert solve_c(F_MIXED) == pytest.approx(expected, abs=1e-12)


def test_solve_c_rejects_trivial_and_degenerate():
    with pytest.raises(ValueError):
        solve_c(exact_dp(0.0, 0.0))  # identity curve
    with pytest.raises(ValueError):
        solve_c(exact_dp(1.0, 1.0))  # f(1) = 0 edge


def test_cnd_spec_validates_fixed_point():
    with pytest.raises(ValueError):
        CndSpec(tradeoff=F_GAUSS, c=0.25)


def test_cdf_center_values():
    for f in (F_GAUSS, F_PURE, F_MIXED):
        spec = make_cnd(f)
        assert cnd_cdf(spec, 0.0) == pytest.approx(0.5, abs=1e-14)
        assert cnd_cdf(spec, 0.5) == pytest.approx(1.0 - spec.c, abs=1e-14)
        assert cnd_cdf(spec, -0.5) == pytest.approx(spec.c, abs=1e-14)


@pytest.mark.parametrize("x", [0.3, 1.7, 4.2, 0.5, 2.0, 7.9])
def test_cdf_symmetry(x):
    for f in (F_GAUSS, F_PURE, F_MIXED):
        spec = make_cnd(f)
        assert cnd_cdf(spec, x) + cnd_cdf(spec, -x) == pytest.approx(1.0, abs=1e-10)


def test_cdf_limits_and_missing_values():
    for f in (F_GAUSS, F_PURE, F_MIXED, self_power(F_PURE, 2)):
        spec = make_cnd(f)
        assert list(cnd_cdf(spec, [-math.inf, -1e300, 1e300, math.inf])) == [0.0, 0.0, 1.0, 1.0]
        assert math.isnan(cnd_cdf(spec, math.nan))


def test_cdf_monotone_on_fine_grid():
    grid = np.linspace(-10.0, 10.0, 4001)
    for f in (F_GAUSS, F_PURE, F_MIXED):
        vals = cnd_cdf(make_cnd(f), grid)
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[0] >= 0.0 and vals[-1] <= 1.0


def test_unit_shift_recovers_tradeoff_curve():
    # the defining property: F(F^-1(alpha) - 1) = f(alpha)
    grid = np.linspace(0.01, 0.99, 99)
    for f in (F_GAUSS, F_PURE, F_MIXED):
        spec = make_cnd(f)
        lhs = cnd_cdf(spec, np.asarray(cnd_quantile(spec, grid)) - 1.0)
        assert np.max(np.abs(lhs - eval_tradeoff(f, grid))) < 1e-8


@pytest.mark.parametrize("shift", [0.25, 0.5, 0.75])
def test_partial_shift_dominates_tradeoff_curve(shift):
    grid = np.linspace(0.01, 0.99, 99)
    for f in (F_GAUSS, F_PURE, F_MIXED):
        spec = make_cnd(f)
        curve = cnd_cdf(spec, np.asarray(cnd_quantile(spec, grid)) - shift)
        assert np.all(curve >= eval_tradeoff(f, grid) - 1e-10)


def test_quantile_basics_and_round_trip():
    spec = make_cnd(F_GAUSS)
    assert cnd_quantile(spec, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert cnd_quantile(spec, 1.0 - spec.c) == pytest.approx(0.5, abs=1e-12)
    for u in (0.01, 0.37, 0.99):
        assert cnd_cdf(spec, cnd_quantile(spec, u)) == pytest.approx(u, abs=1e-10)
    with pytest.raises(ValueError):
        cnd_quantile(spec, 0.0)
    with pytest.raises(ValueError):
        cnd_quantile(spec, 1.0)


def test_quantile_deep_tails():
    spec = make_cnd(F_PURE)
    for u in (1e-10, 1 - 1e-10):
        x = cnd_quantile(spec, u)
        assert cnd_cdf(spec, x) == pytest.approx(u, abs=1e-9)


def test_samples_match_cdf():
    spec = make_cnd(F_MIXED)
    draws = cnd_sample(spec, RngSeed(21), 50_000)
    assert st.kstest(draws, lambda x: cnd_cdf(spec, x)).pvalue > 0.01
    assert abs(draws.mean()) < 5 * draws.std() / math.sqrt(draws.size)


def test_gaussian_curve_cnd_is_not_the_gaussian_distribution():
    # the construction yields one canonical distribution among possibly many;
    # its tails are piecewise transforms, not the normal law itself
    spec = make_cnd(F_GAUSS)
    draws = cnd_sample(spec, RngSeed(22), 50_000)
    assert st.kstest(draws, lambda x: cnd_cdf(spec, x)).pvalue > 0.01
    # still symmetric with the right central slope
    assert cnd_cdf(spec, 0.25) - cnd_cdf(spec, -0.25) == pytest.approx(
        0.5 * (1 - 2 * spec.c), abs=1e-12
    )


def test_sampling_is_deterministic():
    spec = make_cnd(F_PURE)
    a = cnd_sample(spec, RngSeed(23, 1), 100)
    b = cnd_sample(spec, RngSeed(23, 1), 100)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        cnd_sample(spec, RngSeed(23), 0)


def test_sample_counts_past_the_cap_are_refused_before_drawing():
    spec = make_cnd(F_PURE)
    assert cnd_sample(spec, RngSeed(1), SAMPLE_CAP // 1000).size == SAMPLE_CAP // 1000
    for count in (SAMPLE_CAP + 1, 10**13):
        with pytest.raises(ValueError, match="count must lie in"):
            cnd_sample(spec, RngSeed(1), count)


# --- closed forms against the one-step recursion they replace ---------------

ORACLE_SPECS = {
    "gdp:0.5": gaussian_dp(0.5),
    "gdp:2": gaussian_dp(2.0),
    "eps:1": exact_dp(1.0),
    "eps:0.5,0.01": exact_dp(0.5, 0.01),
    "eps:1.7,1e-6": exact_dp(1.7, 1e-6),
    "eps:0.05": exact_dp(0.05),
    # f^3 starts above the base curve's kink, so it takes upper-branch steps
    "(eps:0.4,1e-3)^3": self_power(exact_dp(0.4, 1e-3), 3),
}


def _one_step(f, alpha):
    """f(alpha) from the family's defining formula, nesting self powers."""
    alpha = np.asarray(alpha, dtype=float)
    if f.family == "exact_dp":
        e = math.exp(f.epsilon)
        return np.maximum(0.0, np.maximum((alpha - f.delta) / e, 1.0 - f.delta - e + e * alpha))
    if f.family == "gaussian_dp":
        with np.errstate(divide="ignore"):
            return ndtr(ndtri(alpha) - f.mu)
    for _ in range(f.power):
        alpha = _one_step(f.base, alpha)
    return alpha


def _recursive_cdf(f, c, x):
    """F(x) = f(F(x + 1)) on the left and 1 - f(1 - F(x - 1)) on the right,
    walked one unit step at a time from the affine band on [-1/2, 1/2]."""
    steps = np.maximum(np.ceil(np.abs(x) - 0.5), 0).astype(int)
    out = 0.5 + (x - np.sign(x) * steps) * (1.0 - 2.0 * c)
    for k in range(1, int(steps.max(initial=0)) + 1):
        up = (steps >= k) & (x > 0.5)
        out[up] = 1.0 - _one_step(f, 1.0 - out[up])
        down = (steps >= k) & (x < -0.5)
        out[down] = _one_step(f, out[down])
    return out


def _bisected_c(f, tol=1e-15):
    lo, hi = 0.0, 0.5
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _one_step(f, 1.0 - mid) - mid > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("name", list(ORACLE_SPECS))
def test_closed_form_cdf_matches_recursion(name):
    spec = make_cnd(ORACLE_SPECS[name])
    x = np.linspace(-160.0, 160.0, 64001)
    gap = np.abs(cnd_cdf(spec, x) - _recursive_cdf(spec.tradeoff, spec.c, x))
    assert np.max(gap) <= 1e-14


@pytest.mark.parametrize("name", list(ORACLE_SPECS))
def test_quantile_inverts_cdf_in_both_tails(name):
    spec = make_cnd(ORACLE_SPECS[name])
    tail = np.logspace(-14.0, math.log10(0.5), 300)
    u = np.concatenate([tail, 1.0 - tail])
    assert np.max(np.abs(cnd_cdf(spec, cnd_quantile(spec, u)) - u)) <= 1e-14


@pytest.mark.parametrize("name", list(ORACLE_SPECS))
def test_fixed_point_matches_bisection(name):
    f = ORACLE_SPECS[name]
    assert solve_c(f) == pytest.approx(_bisected_c(f), abs=1e-12)


def test_quantile_with_zero_epsilon():
    # f(a) = a - delta: every unit step lowers the CDF by delta
    spec = make_cnd(exact_dp(0.0, 0.1))
    assert spec.c == pytest.approx(0.45, abs=1e-15)
    u = np.linspace(0.001, 0.999, 999)
    assert np.max(np.abs(cnd_cdf(spec, cnd_quantile(spec, u)) - u)) <= 1e-14
    x = np.linspace(-8.0, 8.0, 1601)
    assert np.max(np.abs(cnd_cdf(spec, x) - _recursive_cdf(spec.tradeoff, spec.c, x))) <= 1e-14


@pytest.mark.parametrize(
    "f",
    [
        self_power(exact_dp(0.4, 1e-3), 3),
        self_power(exact_dp(0.4, 0.0), 5),
        self_power(exact_dp(1.3, 0.05), 7),
        self_power(self_power(exact_dp(0.2, 0.01), 2), 3),
        self_power(gaussian_dp(0.6), 4),
    ],
)
def test_self_power_matches_nested_loop(f):
    grid = np.linspace(0.0, 1.0, 2001)
    assert np.max(np.abs(eval_tradeoff(f, grid) - _one_step(f, grid))) <= 1e-14


def test_iterate_is_elementwise_in_k():
    f = exact_dp(0.4, 1e-3)
    alpha = np.array([0.2, 0.7, 0.999, 1.0])
    k = np.array([0, 1, 4, 9])
    expected = [float(_one_step(self_power(f, int(j)), a)) if j else a for a, j in zip(alpha, k)]
    assert np.max(np.abs(iterate_tradeoff(f, alpha, k) - expected)) <= 1e-14
    # pure DP keeps f(1) = 1 however often it is applied
    assert iterate_tradeoff(exact_dp(1.0), 1.0, 10_000) == 1.0
    with pytest.raises(ValueError):
        iterate_tradeoff(f, 0.5, -1)
    with pytest.raises(ValueError):
        iterate_tradeoff(f, 0.5, 1.5)


SELF_POWER_GRID = [
    self_power(exact_dp(eps, delta), p)
    for eps in (0.0, 0.05, 0.4, 1.0, 2.5)
    for delta in (0.0, 1e-6, 1e-3, 0.05, 0.3)
    for p in (2, 3, 4, 5, 7, 10)
] + [self_power(self_power(exact_dp(0.2, 0.01), 2), 3),
     self_power(self_power(self_power(gaussian_dp(0.3), 2), 3), 3)]


def test_self_power_fixed_point_matches_bisection():
    refused = 0
    for f in SELF_POWER_GRID:
        if _one_step(f, 1.0) <= 1e-13 or _bisected_c(f) >= 0.5 - 1e-9:
            refused += 1
            with pytest.raises(ValueError):
                solve_c(f)
        else:
            assert solve_c(f) == pytest.approx(_bisected_c(f), abs=1e-13), f
    assert 0 < refused < len(SELF_POWER_GRID)


def test_odd_self_power_is_solved_without_refusing_its_base():
    # the base alone sits within 1e-9 of 1/2 and is refused as trivial; its
    # fifth power is not, and its fixed point starts from the base's kink
    f = self_power(exact_dp(1e-9), 5)
    with pytest.raises(ValueError, match="trivial"):
        solve_c(f.base)
    assert solve_c(f) == pytest.approx(_bisected_c(f), abs=1e-13)
    assert solve_c(f) < 0.5 - 1e-9


def _bisected_quantile(spec, u, tol=1e-13):
    """Quantile by bracket expansion, then bisection on the CDF to tol in x."""
    lo, hi = -1.0, 1.0
    while not (cnd_cdf(spec, lo) < u.min() and cnd_cdf(spec, hi) > u.max()):
        lo, hi = 2.0 * lo, 2.0 * hi
    los, his = np.full_like(u, lo), np.full_like(u, hi)
    for _ in range(int(np.ceil(np.log2((hi - lo) / tol)))):
        mid = 0.5 * (los + his)
        below = cnd_cdf(spec, mid) < u
        los, his = np.where(below, mid, los), np.where(below, his, mid)
    return 0.5 * (los + his)


def test_self_power_quantile_matches_bisection():
    left = np.concatenate([np.logspace(-14.0, math.log10(0.5), 200), np.linspace(0.01, 0.5, 50)])
    right = 1.0 - left
    checked = 0
    for f in SELF_POWER_GRID:
        try:
            spec = make_cnd(f)
        except ValueError:
            continue
        checked += 1
        x = cnd_quantile(spec, left)
        # the bisection resolves x to 1e-13, to an ulp of x far in the tail, and
        # to ulp(u) / (1 - 2c) where the band's slope 1 - 2c is small
        assert np.allclose(x, _bisected_quantile(spec, left), rtol=1e-15, atol=1e-10), f
        assert cnd_quantile(spec, 0.5) == 0.0
        assert np.array_equal(cnd_quantile(spec, right), -cnd_quantile(spec, 1.0 - right))
        u = np.concatenate([left, right])
        assert np.max(np.abs(cnd_cdf(spec, cnd_quantile(spec, u)) - u)) <= 1e-14, f
    assert checked == 114


@pytest.mark.parametrize("f", [self_power(exact_dp(1.0), 3), self_power(exact_dp(0.4), 4)])
def test_self_power_quantile_keeps_tiny_probabilities(f):
    spec = make_cnd(f)
    assert cnd_cdf(spec, cnd_quantile(spec, 1e-300)) == pytest.approx(1e-300, rel=1e-12)


# --- the unvalidated evaluator against the validated public path -----------

BITWISE_SPECS = [
    gaussian_dp(0.5), gaussian_dp(2.0), exact_dp(1.0), exact_dp(0.5, 0.01), exact_dp(1.7, 1e-6),
    exact_dp(0.0, 0.1), exact_dp(0.0, 0.3),
    self_power(exact_dp(0.4, 1e-3), 3), self_power(exact_dp(0.4), 4),
    self_power(exact_dp(0.0, 0.05), 3), self_power(gaussian_dp(0.6), 4),
    self_power(self_power(exact_dp(0.2, 0.01), 2), 3),
]
BITWISE_X = np.concatenate([np.linspace(-40.0, 40.0, 1601), [-0.5, 0.5, -0.0, 1e300, -1e300]])


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _public_cdf(f, c, x):
    """The CDF through the validating ``iterate_tradeoff``, constants recomputed."""
    ax = np.abs(x)
    steps = np.maximum(np.ceil(ax - 0.5), 0.0)
    with np.errstate(invalid="ignore"):
        offset = np.where(np.isinf(ax), 0.5, ax - steps)
    left = iterate_tradeoff(f, 0.5 - offset * (1.0 - 2.0 * c), steps)
    return np.where(x > 0, 1.0 - left, left)


@pytest.mark.parametrize("f", BITWISE_SPECS)
def test_cdf_and_quantile_match_the_public_path_bit_for_bit(f):
    spec = make_cnd(f)
    cdf = cnd_cdf(spec, BITWISE_X)
    assert np.array_equal(_bits(cdf), _bits(_public_cdf(f, spec.c, BITWISE_X)))
    # a scalar takes the same operations as an array element
    picks = BITWISE_X[::97]
    assert np.array_equal(_bits([cnd_cdf(spec, float(x)) for x in picks]), _bits(cdf[::97]))
    u = np.concatenate([np.logspace(-14.0, math.log10(0.5), 60), 1.0 - np.logspace(-14.0, -0.5, 40)])
    q = cnd_quantile(spec, u)
    assert np.array_equal(_bits([cnd_quantile(spec, float(v)) for v in u]), _bits(q))
    assert np.array_equal(_bits(cnd_quantile(make_cnd(f), u.reshape(4, 25))), _bits(q.reshape(4, 25)))


@pytest.mark.parametrize("f", BITWISE_SPECS)
def test_fixed_point_and_its_check_match_the_public_path_bit_for_bit(f):
    g, p = f, 1
    while g.family == "self_power":
        g, p = g.base, p * g.power
    c = solve_c(f)
    if g.family == "gaussian_dp":
        assert c == float(_special.ndtr(-0.5 * (p * g.mu)))
    elif p > 1:
        assert c == iterate_tradeoff(g, 0.5 if p % 2 == 0 else solve_c(g), p // 2)
    else:
        assert c == (1.0 - g.delta) / (1.0 + math.exp(g.epsilon))
    # the check evaluates f(1 - c) from c; where 1 - (1 - c) is c again (c a
    # multiple of 2^-53) that is the public evaluation at 1 - c, bit for bit
    spec = make_cnd(f)
    for cc in (math.ldexp(round(math.ldexp(c, 53)), -53), 0.25, 0.125, 0.375):
        assert 1.0 - (1.0 - cc) == cc
        b = np.float64(cc)
        assert _bits(_iterate(spec.curve, 1.0 - b, 1, b=b)) == _bits(eval_tradeoff(f, 1.0 - cc))


WEAK_CURVES = [exact_dp(10.25), exact_dp(12.0), exact_dp(40.0), exact_dp(300.0), exact_dp(700.0),
               exact_dp(12.0, 1e-6), exact_dp(40.0, 0.1), gaussian_dp(16.75), gaussian_dp(20.0),
               gaussian_dp(37.0)]


@pytest.mark.parametrize("f", WEAK_CURVES)
def test_weak_privacy_curves_build_and_round_trip(f):
    # c is tiny; the check no longer forms 1 - (1 - c), whose rounding the
    # upper branch's slope e^eps (or the normal quantile's tail) magnified
    spec = make_cnd(f)
    expected = (float(ndtr(-0.5 * f.mu)) if f.family == "gaussian_dp"
                else (1.0 - f.delta) / (1.0 + math.exp(f.epsilon)))
    assert spec.c == pytest.approx(expected, rel=1e-12)
    residual = abs(float(_iterate(spec.curve, 1.0 - np.float64(spec.c), 1, b=np.float64(spec.c))) - spec.c)
    assert residual <= 1.2e-16
    u = np.concatenate([np.logspace(-300.0, math.log10(0.5), 301), 1.0 - np.logspace(-15.0, -0.5, 50)])
    assert np.max(np.abs(cnd_cdf(spec, cnd_quantile(spec, u)) - u)) <= 1e-15
    # a perturbed c is still rejected
    with pytest.raises(ValueError, match="f\\(1-c\\)=c"):
        CndSpec(tradeoff=f, c=spec.c + 2e-12)


def test_weak_pure_dp_test_keeps_exact_size():
    spec = make_cnd(exact_dp(12.0))
    for cells in [(10, 20, 15, 25), (5, 3, 2, 4), (0, 7, 9, 1), (30, 2, 4, 40)]:
        table = Table2x2(*cells)
        for alpha in (0.01, 0.05, 0.2):
            m = umpu_test(table, spec, alpha).threshold
            xs, pmf = nchg_distribution(table.margins(), 1.0)
            assert abs(float(pmf @ cnd_cdf(spec, xs - m)) - alpha) < 1e-8


def test_curves_beyond_the_float_range_are_refused_by_name():
    with pytest.raises(ValueError, match="e\\^epsilon overflows"):
        make_cnd(exact_dp(800.0))
    with pytest.raises(ValueError, match="underflows to 0"):
        make_cnd(gaussian_dp(80.0))
    with pytest.raises(ValueError, match="underflows to 0"):
        make_cnd(self_power(gaussian_dp(20.0), 4))
