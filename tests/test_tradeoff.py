"""Tradeoff-function evaluation, composition, conversions, and ordering."""

import json
import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from semidp import _special
from semidp.tradeoff import (
    DEFAULT_COMPARISON_GRID,
    PrivacyGuarantee,
    breakpoints,
    compare_guarantees,
    compose_self,
    composition_order_check,
    eval_tradeoff,
    exact_dp,
    gaussian_dp,
    gdp_to_approx_dp,
    iterate_tradeoff,
    self_power,
    tensor_gdp,
    zcdp_group,
    zcdp_to_approx_dp,
)

GRID = np.linspace(0.0, 1.0, 101)


def test_identity_families():
    assert eval_tradeoff(exact_dp(0.0, 0.0), 0.3) == pytest.approx(0.3, abs=1e-15)
    assert eval_tradeoff(gaussian_dp(0.0), 0.7) == pytest.approx(0.7, abs=1e-12)


def test_exact_dp_formula_at_half():
    # max{0, 1 - 2 + 2*0.5, 0.5/2} = 0.25
    assert eval_tradeoff(exact_dp(math.log(2.0), 0.0), 0.5) == 0.25


def test_alpha_domain_error():
    with pytest.raises(ValueError):
        eval_tradeoff(gaussian_dp(1.0), 1.2)
    with pytest.raises(ValueError):
        eval_tradeoff(exact_dp(1.0, 0.0), -0.1)


VALIDATED_CURVES = [gaussian_dp(1.0), exact_dp(1.0), exact_dp(0.5, 0.01), exact_dp(0.0, 0.1),
                    self_power(exact_dp(0.4, 1e-3), 3), self_power(gaussian_dp(0.6), 2)]


@pytest.mark.parametrize("f", VALIDATED_CURVES)
def test_public_evaluation_validates_alpha_and_k(f):
    # nan passes through as nan, elementwise and as a scalar
    assert math.isnan(eval_tradeoff(f, math.nan))
    out = iterate_tradeoff(f, np.array([0.2, math.nan, 1.0]), 2)
    assert math.isnan(out[1]) and not np.isnan(out[[0, 2]]).any()
    for alpha in (-1e-300, -0.1, 1.0 + 2.0**-52, 1.2, math.inf, -math.inf, [0.5, 1.5]):
        with pytest.raises(ValueError, match="alpha must lie in"):
            eval_tradeoff(f, alpha)
    for k in (-1, -0.5, 0.5, 2.25, -math.inf, [1, -2], [0, 1.5]):
        with pytest.raises(ValueError, match="k must hold"):
            iterate_tradeoff(f, 0.5, k)
    # the edges are valid: alpha 0 and 1, k = 0 (the identity) and a k of -0.0
    assert iterate_tradeoff(f, [0.0, 1.0], 0).tolist() == [0.0, 1.0]
    assert iterate_tradeoff(f, 0.3, -0.0) == iterate_tradeoff(f, 0.3, 0)


def test_epsilon_beyond_the_float_range_of_its_exponential_is_refused():
    assert eval_tradeoff(exact_dp(709.0), 1.0) == 1.0
    with pytest.raises(ValueError, match="e\\^epsilon overflows"):
        eval_tradeoff(exact_dp(800.0), 0.5)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        exact_dp(-1.0, 0.0)
    with pytest.raises(ValueError):
        exact_dp(1.0, 1.5)
    with pytest.raises(ValueError):
        gaussian_dp(-0.5)
    with pytest.raises(ValueError):
        self_power(gaussian_dp(1.0), 0)


@pytest.mark.parametrize("mu", [0.3, 1.0, 2.5])
def test_gaussian_curve_against_monte_carlo_likelihood_ratio(mu):
    # Simulate the two-normal testing problem directly: threshold at the
    # exact alpha-quantile of the null statistic, measure type II error.
    rng = np.random.default_rng(20240915)
    n = 200_000
    h1 = rng.normal(mu, 1.0, size=n)
    for alpha in (0.25, 0.5, 0.8):
        threshold = ndtri(alpha)
        beta_hat = np.mean(h1 <= threshold)
        beta = eval_tradeoff(gaussian_dp(mu), alpha)
        se = math.sqrt(beta * (1.0 - beta) / n)
        assert abs(beta_hat - beta) < 5 * se + 1e-9


def test_tradeoff_axioms_on_grid():
    specs = [
        exact_dp(0.7, 0.0),
        exact_dp(1.3, 0.05),
        gaussian_dp(0.8),
        self_power(exact_dp(0.4, 0.0), 3),
        self_power(gaussian_dp(0.6), 2),
    ]
    for f in specs:
        vals = eval_tradeoff(f, GRID)
        assert np.all(vals <= GRID + 1e-12)
        assert np.all(np.diff(vals) >= -1e-12)
        second = np.diff(vals, 2)
        assert np.all(second >= -1e-9)
        assert np.all((0.0 <= vals) & (vals <= 1.0))


def test_symmetry_fixed_point_unique():
    # symmetric curves cross alpha -> f(1 - alpha) - alpha exactly once on [0, 1/2)
    for f in (exact_dp(1.0, 0.0), gaussian_dp(1.5), exact_dp(0.5, 0.01)):
        cs = np.linspace(0.0, 0.5, 2001)
        g = eval_tradeoff(f, 1.0 - cs) - cs
        signs = np.sign(g)
        crossings = np.sum(np.abs(np.diff(signs)) > 0)
        assert crossings == 1


def test_compose_self_identity_case():
    f = exact_dp(0.9, 0.02)
    assert compose_self(f, 1) is f


def test_compose_self_gaussian_closed_form():
    composed = compose_self(gaussian_dp(0.5), 3)
    assert composed == gaussian_dp(1.5)
    nested = self_power(gaussian_dp(0.5), 3)
    assert np.allclose(
        eval_tradeoff(composed, GRID), eval_tradeoff(nested, GRID), atol=1e-9
    )


def test_compose_self_flattens_nested_powers():
    f = self_power(exact_dp(0.4, 0.0), 2)
    assert compose_self(f, 3) == self_power(exact_dp(0.4, 0.0), 6)


def test_exact_dp_iteration_dominates_epsilon_sum_curve():
    # The nested iterate of the (0.4, 0) curve is a valid guarantee at twice
    # the budget but is NOT the (0.8, 0) curve pointwise: direct evaluation
    # of the three-branch max shows a strict gap on a middle band, so the
    # iterate must stay represented as a nested power, never simplified.
    iterate = compose_self(exact_dp(0.4, 0.0), 2)
    closed = exact_dp(0.8, 0.0)
    iv = eval_tradeoff(iterate, GRID)
    cv = eval_tradeoff(closed, GRID)
    assert np.all(iv >= cv - 1e-12)

    def three_branch_max(eps, alpha):
        return max(0.0, 1.0 - math.exp(eps) * (1.0 - alpha), math.exp(-eps) * alpha)

    by_hand = three_branch_max(0.4, three_branch_max(0.4, 0.6))
    assert eval_tradeoff(iterate, 0.6) == pytest.approx(by_hand, abs=1e-15)
    assert by_hand - eval_tradeoff(closed, 0.6) > 5e-4


def test_tensor_gdp_closed_form():
    assert tensor_gdp(0.0, 1.7) == gaussian_dp(1.7)
    assert tensor_gdp(3.0, 4.0) == gaussian_dp(5.0)
    assert tensor_gdp(1.0, 1.0).mu == pytest.approx(math.sqrt(2.0), abs=1e-15)
    # any number of curves, numpy floats included
    assert tensor_gdp(1.0, 2.0, 2.0) == gaussian_dp(3.0)
    assert tensor_gdp(*np.array([2.0, 3.0, 6.0])) == gaussian_dp(7.0)
    assert tensor_gdp(0.6) == gaussian_dp(0.6)
    with pytest.raises(ValueError, match="mu values"):
        tensor_gdp(1.0, 2.0, -0.5)


def test_tensor_gdp_monte_carlo_product_test():
    # testing N(0, I_2) against N((3, 4), I_2); the likelihood-ratio statistic
    # is 3x + 4y, so the problem reduces to a unit-variance shift of 5
    rng = np.random.default_rng(77)
    n = 200_000
    h1 = rng.normal(loc=(3.0, 4.0), scale=1.0, size=(n, 2)) @ np.array([3.0, 4.0]) / 5.0
    f = tensor_gdp(3.0, 4.0)
    for alpha in (0.3, 0.6):
        beta_hat = np.mean(h1 <= ndtri(alpha))
        beta = eval_tradeoff(f, alpha)
        se = math.sqrt(beta * (1 - beta) / n)
        assert abs(beta_hat - beta) < 5 * se + 1e-9


def test_composition_order_check_gaussian_pairs():
    report = composition_order_check([gaussian_dp(1.0), gaussian_dp(1.0)], 2)
    assert report.ordered
    assert report.tensor_then_power == gaussian_dp(2.0 * math.sqrt(2.0))
    assert abs(report.max_lhs_minus_rhs) < 1e-12

    report = composition_order_check([gaussian_dp(0.0)], 3)
    assert np.allclose(report.lhs_values, report.grid, atol=1e-12)

    report = composition_order_check([gaussian_dp(0.5), gaussian_dp(1.2)], 3)
    assert report.ordered and abs(report.max_lhs_minus_rhs) < 1e-12
    # both sides are tensor_gdp compositions: of the curves, then of their powers
    report = composition_order_check([gaussian_dp(0.5), gaussian_dp(1.2), gaussian_dp(0.4)], np.int64(2))
    assert report.tensor_then_power == compose_self(tensor_gdp(0.5, 1.2, 0.4), 2)
    assert report.power_then_tensor == tensor_gdp(1.0, 2.4, 0.8)


def test_composition_order_check_rejects_other_families():
    with pytest.raises(ValueError):
        composition_order_check([exact_dp(0.5, 0.0)], 2)


def test_gdp_to_approx_dp_values():
    # oracle: delta(0) = Phi(1/2) - Phi(-1/2), two normal CDF evaluations
    oracle = float(ndtr(0.5) - ndtr(-0.5))
    assert gdp_to_approx_dp(1.0, 0.0) == pytest.approx(oracle, abs=1e-14)
    assert gdp_to_approx_dp(1.0, 0.0) == pytest.approx(0.3829249225480263, abs=1e-12)
    assert gdp_to_approx_dp(1.0, 40.0) < 1e-15
    assert gdp_to_approx_dp(2.0, 1.0) > gdp_to_approx_dp(2.0, 2.0)
    assert gdp_to_approx_dp(0.0, 3.0) == 0.0
    with pytest.raises(ValueError):
        gdp_to_approx_dp(-1.0, 0.5)
    for mu, eps in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            gdp_to_approx_dp(mu, eps)


def test_zcdp_group_values():
    assert zcdp_group(2.56, 2) == pytest.approx(10.24, abs=1e-12)
    assert zcdp_group(0.0, 5) == 0.0
    assert zcdp_group(0.07, 3) == pytest.approx(0.63, abs=1e-12)
    for rho in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="rho"):
            zcdp_group(rho, 2)
        with pytest.raises(ValueError, match="rho"):
            zcdp_to_approx_dp(rho, 0.1)


def test_groups_beyond_the_float_range_are_refused():
    # k * mu and k^2 * rho either overflow to inf or k itself has no float
    for k in (10**154, 10**200, 10**400):
        with pytest.raises(ValueError, match="finite"):
            zcdp_group(2.0, k)
    for f, k in ((gaussian_dp(1.0), 10**400), (gaussian_dp(1e300), 10**10),
                 (self_power(gaussian_dp(1.0), 2), 10**400)):
        with pytest.raises(ValueError, match="finite"):
            compose_self(f, k)
    assert zcdp_group(2.0, 10**150) == 2.0 * 10**300
    assert compose_self(self_power(exact_dp(0.4, 0.0), 2), 10**400).power == 2 * 10**400


def test_zcdp_to_approx_dp_census_numbers():
    assert zcdp_to_approx_dp(2.56, 1e-10) == pytest.approx(17.91528, abs=5e-5)
    assert zcdp_to_approx_dp(10.24, 1e-10) == pytest.approx(40.95057, abs=5e-5)
    assert zcdp_to_approx_dp(0.0, 0.3) == 0.0
    with pytest.raises(ValueError):
        zcdp_to_approx_dp(1.0, 0.0)
    with pytest.raises(ValueError):
        zcdp_to_approx_dp(1.0, 1.0)


def test_zcdp_conversion_monotonicity():
    rng = np.random.default_rng(3)
    for _ in range(25):
        rho = rng.uniform(0.01, 5.0)
        delta = rng.uniform(1e-12, 0.1)
        assert zcdp_to_approx_dp(rho * 1.5, delta) > zcdp_to_approx_dp(rho, delta)
        assert zcdp_to_approx_dp(rho, delta / 10) > zcdp_to_approx_dp(rho, delta)


def test_normal_cdf_quantile_accuracy_contract():
    # high-accuracy contract for semidp's normal primitives, used everywhere
    # here, checked against 50-digit reference values
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    xs = np.linspace(-8.0, 8.0, 33)
    for x in xs:
        ref = float(mpmath.ncdf(mpmath.mpf(float(x))))
        got = float(_special.ndtr(x))
        assert abs(got - ref) <= 1e-12 * max(ref, 1e-300)
    for u in np.linspace(1e-6, 1 - 1e-6, 21):
        assert abs(float(_special.ndtr(_special.ndtri(u))) - u) < 1e-13


def _pairs(items):
    out = set()
    for i, a in enumerate(items):
        for b in items[i + 1 :]:
            out.add((a, b))
    return out


def test_compare_guarantees_orderings():
    f = gaussian_dp(1.0)
    f2 = compose_self(f, 2)
    # full binary cube vs the datasets summing to 2, both at radius 2
    cube = [tuple((v,) for v in bits) for bits in
            [(0,0,0),(0,0,1),(0,1,0),(1,0,0),(0,1,1),(1,0,1),(1,1,0),(1,1,1)]]
    conforming = [x for x in cube if sum(v[0] for v in x) == 2]
    ind_full = _pairs(cube)
    ind_semi = _pairs(conforming)

    g_group = PrivacyGuarantee("full_cube", 2, f2)
    g_semi = PrivacyGuarantee("sum_two_cube", 2, f2)
    assert compare_guarantees(g_group, g_semi, ind_full, ind_semi) == "g1_stronger"
    assert compare_guarantees(g_semi, g_group, ind_semi, ind_full) == "g2_stronger"
    assert compare_guarantees(g_semi, g_semi, ind_semi, ind_semi) == "equal"

    # smaller protected set but larger curve: neither dominates
    g_small_strong = PrivacyGuarantee("sum_two_cube", 2, f)
    assert (
        compare_guarantees(g_small_strong, g_group, ind_semi, ind_full)
        == "incomparable"
    )


def test_guarantee_json_round_trip():
    g = PrivacyGuarantee("table_margins", 3, exact_dp(0.5, 0.01))
    assert json.loads(g.to_json()) == {
        "dataspace": "table_margins", "adjacency_radius": 3, "family": "exact_dp",
        "params": {"epsilon": 0.5, "delta": 0.01},
    }
    # numpy integers are stored as ints, so the triple stays JSON-ready
    g2 = PrivacyGuarantee("cube", np.int64(2), self_power(gaussian_dp(0.7), np.int64(2)))
    assert json.loads(g2.to_json()) == {
        "dataspace": "cube", "adjacency_radius": 2, "family": "self_power",
        "params": {"k": 2, "base": {"family": "gaussian_dp", "params": {"mu": 0.7}}},
    }


def test_group_sizes_and_radii_must_be_integers():
    cases = [
        (lambda v: compose_self(gaussian_dp(1.0), v), "k", 0),
        (lambda v: compose_self(exact_dp(1.0), v), "k", -1),
        (lambda v: self_power(exact_dp(1.0), v), "power", 0),
        (lambda v: composition_order_check([gaussian_dp(1.0)], v), "a", 0),
        (lambda v: zcdp_group(1.0, v), "k", 0),
        (lambda v: PrivacyGuarantee("x", v, exact_dp(1.0)), "adjacency_radius", -1),
    ]
    for build, name, below in cases:
        for bad in (2.5, 2.7, 2.0, 1.5, math.nan, "2"):
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                build(bad)
        with pytest.raises(ValueError, match=f"^{name} must be >= "):
            build(below)
        build(np.int64(2))
        build(2)
    assert compose_self(gaussian_dp(1.0), np.int64(3)) == gaussian_dp(3.0)
    assert zcdp_group(1.0, np.int64(10**10)) == 1e20  # k^2 in Python ints, not int64


def _dense_max(f, g, n=100_001):
    """max of f - g on a uniform grid of n points: an oracle independent of the knots."""
    a = np.linspace(0.0, 1.0, n)
    return float(np.max(eval_tradeoff(f, a) - eval_tradeoff(g, a)))


def test_compare_guarantees_sees_the_knots_of_iterated_curves():
    # the 4-fold iterate of (1.1, 0.02) lies below (0.88, 0.88) by 1.2e-3 only
    # near alpha = 0.98175, a knot of the iterate that the base curve lacks
    f, g = self_power(exact_dp(1.1, 0.02), 4), exact_dp(0.88, 0.88)
    assert eval_tradeoff(g, 0.981755) - eval_tradeoff(f, 0.981755) > 1.1e-3
    assert _dense_max(g, f) > 1.1e-3 and _dense_max(f, g) > 0.11
    for knot in (0.7605, 0.9252, 0.9818):
        assert min(abs(k - knot) for k in breakpoints(f)) < 1e-4
    assert compare_guarantees(PrivacyGuarantee("s", 2, f), PrivacyGuarantee("s", 2, g), [], []) == "incomparable"
    assert compare_guarantees(PrivacyGuarantee("s", 2, g), PrivacyGuarantee("s", 2, f), [], []) == "incomparable"


def _random_iterate(rng):
    eps = float(rng.choice([0.0, rng.uniform(0.02, 2.0)]))
    delta = float(rng.choice([0.0, rng.uniform(0.0, 0.3)]))
    return compose_self(exact_dp(eps, delta), int(rng.integers(1, 7)))


def test_iterates_are_linear_between_their_knots():
    rng = np.random.default_rng(1606)
    t = np.linspace(0.0, 1.0, 401)[1:-1]
    for _ in range(60):
        f = _random_iterate(rng)
        knots = np.array([0.0, *breakpoints(f), 1.0])
        assert np.all(np.diff(knots) > 0.0)
        lo, hi = knots[:-1], knots[1:]
        x = lo[:, None] + t * (hi - lo)[:, None]  # dense points inside each piece
        flo, fhi = eval_tradeoff(f, lo), eval_tradeoff(f, hi)
        chord = flo[:, None] + t * (fhi - flo)[:, None]
        assert np.max(np.abs(eval_tradeoff(f, x) - chord)) < 1e-9, f


def test_compare_guarantees_agrees_with_a_dense_grid_on_iterates():
    rng = np.random.default_rng(2024)
    verdicts = set()
    for _ in range(80):
        f, g = _random_iterate(rng), _random_iterate(rng)
        g_le_f, f_le_g = _dense_max(g, f) <= 1e-9, _dense_max(f, g) <= 1e-9
        oracle = {(True, True): "equal", (True, False): "g1_stronger",
                  (False, True): "g2_stronger", (False, False): "incomparable"}[g_le_f, f_le_g]
        got = compare_guarantees(PrivacyGuarantee("s", 1, f), PrivacyGuarantee("s", 1, g), [], [])
        assert got == oracle, (f, g)
        verdicts.add(got)
    assert verdicts == {"equal", "g1_stronger", "g2_stronger", "incomparable"}


def test_compare_guarantees_refuses_an_overflowing_epsilon_by_name():
    for f in (exact_dp(800.0), self_power(exact_dp(800.0, 0.1), 3)):
        for g1, g2 in ((f, exact_dp(1.0)), (exact_dp(1.0), f)):
            with pytest.raises(ValueError, match="epsilon = 800.0 is too large"):
                compare_guarantees(PrivacyGuarantee("s", 1, g1), PrivacyGuarantee("s", 1, g2), [], [])
    assert breakpoints(exact_dp(709.0, 0.1)) == (0.1,)


def test_breakpoints_refuse_an_iterate_with_too_many_knots():
    with pytest.raises(ValueError, match="knots"):
        breakpoints(compose_self(exact_dp(1e-6), 10**9))
    assert breakpoints(compose_self(gaussian_dp(1.0), 10**9)) == ()


def test_comparison_grid_default():
    assert len(DEFAULT_COMPARISON_GRID) == 101
    assert DEFAULT_COMPARISON_GRID[0] == 0.0 and DEFAULT_COMPARISON_GRID[-1] == 1.0
