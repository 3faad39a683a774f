"""Noise mechanisms: distributional laws, span confinement, determinism."""

import math

import numpy as np
import pytest
import scipy.stats as st

from semidp.mechanisms import (
    NaiveGroupMechanism,
    gaussian_noise_samples,
    gaussian_semi,
    knorm_noise_samples,
    knorm_optimal,
    lp_mechanism,
    lp_noise_samples,
)
from semidp.rng import NoiseRng, RngSeed
from semidp.sensitivity import (
    SensitivitySpace,
    contingency_s_semi,
    gauge_norm,
    hull_geometry,
    projection_matrix,
    span_basis,
)

S22 = contingency_s_semi(2, 2)
QUERY = np.array([5.0, 3.0, 2.0, 4.0])


def radial_cdf(s, eps):
    """CDF of the hull-gauge radius by numeric integration of g^(s-1) e^(-eps g)."""
    g = np.linspace(0.0, 60.0 / eps, 200_001)
    dens = g ** (s - 1) * np.exp(-eps * g) if s > 1 else np.exp(-eps * g)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(g))])
    cum /= cum[-1]
    return lambda x: np.interp(x, g, cum)


def test_gaussian_semi_deterministic_bytes():
    a = gaussian_semi(QUERY, S22, 1.0, RngSeed(10, 3))
    b = gaussian_semi(QUERY, S22, 1.0, RngSeed(10, 3))
    assert a.to_json() == b.to_json()
    c = gaussian_semi(QUERY, S22, 1.0, RngSeed(10, 4))
    assert a.to_json() != c.to_json()


def test_gaussian_semi_output_identity_and_span():
    out = gaussian_semi(QUERY, S22, 1.0, RngSeed(1))
    assert np.array_equal(out.value, QUERY + out.noise)
    P = projection_matrix(span_basis(S22), 4)
    residual = out.noise - P @ out.noise
    assert np.linalg.norm(residual) <= 1e-9 * max(np.linalg.norm(out.noise), 1e-12)


def test_gaussian_semi_orthogonal_to_margin_directions():
    # row/column sum directions never receive noise
    noise = gaussian_noise_samples(S22, 1.0, NoiseRng(RngSeed(2)), 200)
    for direction in ([1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]):
        dots = noise @ np.array(direction, dtype=float)
        assert np.max(np.abs(dots)) < 1e-9


def test_gaussian_semi_covariance():
    mu = 1.0
    n = 20_000
    noise = gaussian_noise_samples(S22, mu, NoiseRng(RngSeed(3)), n)
    emp = noise.T @ noise / n
    P = projection_matrix(span_basis(S22), 4)
    target = (2.0 / mu) ** 2 * P
    for i in range(4):
        for j in range(4):
            se = math.sqrt((target[i, i] * target[j, j] + target[i, j] ** 2) / n)
            assert abs(emp[i, j] - target[i, j]) < 5 * se


def test_gaussian_semi_vanishes_at_huge_mu():
    noise = gaussian_noise_samples(S22, 1e6, NoiseRng(RngSeed(4)), 1000)
    assert np.max(np.linalg.norm(noise, axis=1)) < 1e-4


def test_gaussian_semi_degenerate_space_warns():
    zero = SensitivitySpace(array=((0, 0, 0, 0),), provenance="zero")
    out = gaussian_semi(QUERY, zero, 1.0, RngSeed(5))
    assert np.array_equal(out.noise, np.zeros(4))
    assert "warning" in out.meta


def test_gaussian_semi_rejects_bad_mu():
    with pytest.raises(ValueError):
        gaussian_semi(QUERY, S22, 0.0, RngSeed(1))


def test_knorm_geometry_box_contains_vertices():
    for space in (S22, contingency_s_semi(3, 3)):
        geom = hull_geometry(space)
        coords = space.array @ geom.basis.vectors.T
        assert np.all(np.abs(coords) <= geom.box + 1e-12)


def test_knorm_noise_stays_in_span_and_hull():
    eps = 0.8
    noise, radii, dirs, rejections = knorm_noise_samples(
        S22, eps, NoiseRng(RngSeed(6)), 2000
    )
    P = projection_matrix(span_basis(S22), 4)
    assert np.max(np.abs(noise - noise @ P)) < 1e-9
    gauges = np.array([gauge_norm(S22, v) for v in dirs])
    assert gauges.max() <= 1.0 + 1e-9
    assert all(r == 0 for r in rejections)  # s = 1: the box equals the hull


def test_knorm_segment_direction_uniform():
    # s = 1: accepted directions are uniform on the segment between the two
    # generators; the unit basis vector puts the endpoints at coordinate +-2
    _, _, dirs, _ = knorm_noise_samples(S22, 1.0, NoiseRng(RngSeed(7)), 20_000)
    coord = dirs @ np.array([0.5, -0.5, -0.5, 0.5])
    assert st.kstest(coord, st.uniform(loc=-2.0, scale=4.0).cdf).pvalue > 0.01


def test_knorm_radius_is_gamma_s_plus_one():
    eps = 0.7
    _, radii, _, _ = knorm_noise_samples(S22, eps, NoiseRng(RngSeed(8)), 50_000)
    assert st.kstest(radii, st.gamma(a=2, scale=1.0 / eps).cdf).pvalue > 0.01


def test_knorm_gauge_law_matches_radial_density():
    # gauge of the noise has density proportional to g^(s-1) exp(-eps g);
    # for s = 1 that is the exponential law, confirmed against the
    # numerically integrated CDF and the closed form
    eps = 0.7
    noise, radii, dirs, _ = knorm_noise_samples(S22, eps, NoiseRng(RngSeed(9)), 30_000)
    # hull gauge of a span point is half its basis coordinate in absolute value
    gauges = radii * np.abs(dirs @ np.array([0.5, -0.5, -0.5, 0.5])) / 2.0
    spot = np.array([gauge_norm(S22, v) for v in noise[:200]])
    assert np.allclose(spot, gauges[:200], atol=1e-7)
    assert st.kstest(gauges, radial_cdf(1, eps)).pvalue > 0.01
    assert st.kstest(gauges, st.expon(scale=1.0 / eps).cdf).pvalue > 0.01


def test_knorm_three_by_three_gauge_law():
    space = contingency_s_semi(3, 3)
    eps = 1.0
    noise, radii, dirs, rejections = knorm_noise_samples(
        space, eps, NoiseRng(RngSeed(10)), 3000
    )
    s = span_basis(space).s
    assert s == 4
    gauges = np.array([gauge_norm(space, v) for v in dirs]) * radii
    assert st.kstest(gauges, st.gamma(a=s, scale=1.0 / eps).cdf).pvalue > 0.01
    assert any(r > 0 for r in rejections)  # the box is strictly larger here


def test_knorm_output_structure_and_determinism():
    out = knorm_optimal(QUERY, S22, 0.5, RngSeed(11, 1))
    assert np.array_equal(out.value, QUERY + out.noise)
    assert out.meta["span_dim"] == 1
    assert "rejections" in out.meta
    again = knorm_optimal(QUERY, S22, 0.5, RngSeed(11, 1))
    assert out.to_json() == again.to_json()
    with pytest.raises(ValueError):
        knorm_optimal(QUERY, S22, -1.0, RngSeed(1))


def test_lp_mechanism_laplace_variance():
    delta, eps, d, n = 2.0, 0.5, 4, 50_000
    noise = lp_noise_samples(delta, eps, 1, d, NoiseRng(RngSeed(12)), n)
    b = delta / eps
    target = 2 * b * b
    se = math.sqrt(20.0 * b**4 / (n * d))
    assert abs(noise.var() - target) < 5 * se
    assert abs(noise.mean()) < 5 * math.sqrt(target / (n * d))


def test_lp_mechanism_l2_radius_law():
    delta, eps, d = math.sqrt(2.0), 0.8, 4
    noise = lp_noise_samples(delta, eps, 2, d, NoiseRng(RngSeed(13)), 50_000)
    norms = np.linalg.norm(noise, axis=1)
    assert st.kstest(norms, st.gamma(a=d, scale=delta / eps).cdf).pvalue > 0.01


def test_lp_mechanism_linf_dimension_one():
    # r ~ Gamma(2, eps/delta) times U(-1,1): |noise| is then exponential
    # (a Gamma(a+b) radius thinned by a Beta(a,b) factor is Gamma(a))
    delta, eps = 1.0, 0.9
    noise = lp_noise_samples(delta, eps, math.inf, 1, NoiseRng(RngSeed(14)), 50_000)
    assert st.kstest(np.abs(noise[:, 0]), st.expon(scale=delta / eps).cdf).pvalue > 0.01
    assert st.kstest(np.sign(noise[:, 0]), st.uniform(loc=-1, scale=2).cdf).pvalue == pytest.approx(0.0)


def test_lp_mechanism_output():
    out = lp_mechanism(QUERY, 2.0, 0.5, 1, RngSeed(15))
    assert np.array_equal(out.value, QUERY + out.noise)
    with pytest.raises(ValueError):
        lp_mechanism(QUERY, 2.0, 0.5, 3, RngSeed(15))


def test_naive_group_wrapper_parameters():
    gauss = NaiveGroupMechanism("gaussian", 3, 1.0)
    assert gauss.scaled_param == pytest.approx(1.0 / 3.0)
    assert gauss.delta == pytest.approx(math.sqrt(2.0))
    # noise is iid with per-coordinate sd 3*sqrt(2)/mu
    noise = gauss.noise_samples(4, NoiseRng(RngSeed(16)), 20_000)
    sd = 3.0 * math.sqrt(2.0)
    assert abs(noise.std() - sd) < 0.05

    unchanged = NaiveGroupMechanism("l2", 1, 0.7)
    assert unchanged.scaled_param == 0.7

    l1 = NaiveGroupMechanism("l1", 3, 0.3)
    assert l1.delta / l1.scaled_param == pytest.approx(20.0)

    with pytest.raises(ValueError):
        NaiveGroupMechanism("cauchy", 2, 1.0)


def test_naive_group_wrapper_call():
    out = NaiveGroupMechanism("linf", 3, 0.9)(QUERY, RngSeed(17))
    assert np.array_equal(out.value, QUERY + out.noise)
    assert out.meta["mechanism"] == "naive_linf"


@pytest.mark.parametrize("k", [2, 3])
def test_projected_gaussian_beats_naive_group_noise(k):
    space = contingency_s_semi(k, k)
    mu = 1.0
    semi = gaussian_noise_samples(space, mu, NoiseRng(RngSeed(18, k)), 1000)
    naive = NaiveGroupMechanism("gaussian", 3, mu).noise_samples(
        k * k, NoiseRng(RngSeed(19, k)), 1000
    )
    assert np.linalg.norm(semi, axis=1).mean() < np.linalg.norm(naive, axis=1).mean()


def test_mechanism_output_json_fields():
    out = gaussian_semi(QUERY, S22, 1.0, RngSeed(20))
    text = out.to_json()
    assert '"value"' in text and '"noise"' in text and '"meta"' in text
