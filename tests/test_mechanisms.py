"""Noise mechanisms: distributional laws, span confinement, determinism."""

import math
import re

import numpy as np
import pytest
import scipy.stats as st

from semidp import mechanisms, sensitivity, simplex
from semidp.dataspace import DataspaceSpec, JointMargins, OneWayMargins, conforming_set
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
    brute_force_sensitivity_space,
    cell_count_query,
    contingency_s_dp,
    contingency_s_semi,
    gauge_norm,
    hull_membership,
    projection_matrix,
    span_basis,
    table_geometry,
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


def test_meta_keys_on_degenerate_and_full_spaces():
    zero = SensitivitySpace(array=((0, 0, 0, 0),), provenance="zero")
    common = {"mechanism", "span_dim", "rng"}
    for space, s in ((zero, 0), (S22, 1)):
        g = gaussian_semi(QUERY, space, 1.0, RngSeed(5))
        k = knorm_optimal(QUERY, space, 1.0, RngSeed(5))
        assert g.meta["span_dim"] == k.meta["span_dim"] == s
        warn = {"warning"} if s == 0 else set()
        assert set(g.meta) == common | {"mu", "delta2"} | warn
        draws = set() if s == 0 else {"delta_k", "radius", "rejections", "sampler"}
        assert set(k.meta) == common | {"epsilon"} | warn | draws
    for out in (gaussian_semi(QUERY, zero, 1.0, RngSeed(5)), knorm_optimal(QUERY, zero, 1.0, RngSeed(5))):
        assert out.noise.tolist() == [0.0] * 4 and np.array_equal(out.value, QUERY)


def test_gaussian_semi_rejects_bad_mu():
    with pytest.raises(ValueError):
        gaussian_semi(QUERY, S22, 0.0, RngSeed(1))


def test_table_projector_is_the_double_centring_of_the_span_basis():
    rng = np.random.default_rng(2)
    for r in range(2, 7):
        for c in range(2, 7):
            space = contingency_s_semi(r, c)
            s, delta2, project = mechanisms._gaussian_constants(space)
            basis = span_basis(space)
            assert s == basis.s == (r - 1) * (c - 1) and delta2 == sensitivity.lp_sensitivity(space, 2) == 2.0
            P = projection_matrix(basis, r * c)
            z, w = rng.normal(size=(2, 30, r * c))
            assert np.abs(project(z) - z @ P).max() < 1e-12
            assert np.abs(sensitivity._double_centring(z[0], r, c) - P @ z[0]).max() < 1e-12
            # symmetric and idempotent
            assert np.abs((project(z) * w).sum(axis=1) - (z * project(w)).sum(axis=1)).max() < 1e-12
            assert np.abs(project(project(z)) - project(z)).max() < 1e-12


def test_table_projector_draws_match_the_basis_path(monkeypatch):
    space = contingency_s_semi(4, 5)
    query = np.arange(20.0)
    table = gaussian_semi(query, space, 0.7, RngSeed(8))
    # with no table record recognized, a space takes its projector from span_basis
    monkeypatch.setattr(mechanisms, "_table_record", lambda space: None)
    foreign = gaussian_semi(query, SensitivitySpace(space.array, "foreign"), 0.7, RngSeed(8))
    assert table.meta == foreign.meta
    assert np.abs(table.noise - foreign.noise).max() < 1e-12
    assert np.abs(table.value - foreign.value).max() < 1e-12


@pytest.mark.parametrize("r,c", [(2, 2), (3, 7), (10, 10)])
def test_table_noise_keeps_row_and_column_sums(r, c):
    noise = gaussian_noise_samples(contingency_s_semi(r, c), 0.5, NoiseRng(RngSeed(6)), 40)
    cells = noise.reshape(40, r, c)
    assert np.abs(cells.sum(axis=2)).max() < 1e-12 and np.abs(cells.sum(axis=1)).max() < 1e-12
    query = np.arange(r * c, dtype=float)
    out = gaussian_semi(query, contingency_s_semi(r, c), 0.5, RngSeed(6))
    released, true = out.value.reshape(r, c), query.reshape(r, c)
    assert np.abs(released.sum(axis=1) - true.sum(axis=1)).max() < 1e-12
    assert np.abs(released.sum(axis=0) - true.sum(axis=0)).max() < 1e-12


def test_table_spaces_and_projector_need_no_sort_and_no_span_basis(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("called on the table fast path")

    sensitivity._table_space.cache_clear()
    monkeypatch.setattr(np, "lexsort", refuse)
    for module in (sensitivity, mechanisms):
        monkeypatch.setattr(module, "span_basis", refuse)
    monkeypatch.setattr(sensitivity, "_span_basis_cached", refuse)
    dp = contingency_s_dp(4, 4)
    space = contingency_s_semi(10, 10)
    out = gaussian_semi(np.zeros(100), space, 1.0, RngSeed(2))
    assert out.meta["span_dim"] == 81
    out = gaussian_semi(np.zeros(16), dp, 1.0, RngSeed(2))
    assert out.meta["span_dim"] == 15 and abs(out.noise.sum()) < 1e-12


def test_knorm_noise_stays_in_span_and_hull():
    eps = 0.8
    noise, radii, dirs, rejections = knorm_noise_samples(
        S22, eps, NoiseRng(RngSeed(6)), 2000
    )
    P = projection_matrix(span_basis(S22), 4)
    assert np.max(np.abs(noise - noise @ P)) < 1e-9
    gauges = np.array([gauge_norm(S22, v) for v in dirs])
    assert gauges.max() <= 1.0 + 1e-9
    assert all(r == 0 for r in rejections)  # every draw is exact


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
    assert all(r == 0 for r in rejections)  # a cone draw never rejects


def test_knorm_samplers_by_space():
    # tabled semi spaces draw from their cone tables; dp, 2 x c and r x 2
    # spaces from the root polytope: every draw is exact
    for space in (S22, contingency_s_semi(4, 4), contingency_s_semi(3, 5), contingency_s_dp(2, 2),
                  contingency_s_dp(1, 5), contingency_s_semi(2, 5), contingency_s_semi(9, 2)):
        out = knorm_optimal(np.zeros(space.ambient_dim), space, 1.0, RngSeed(3))
        assert out.meta["sampler"] == "cone" and out.meta["rejections"] == 0
        assert out.meta["span_dim"] == span_basis(space).s


def test_knorm_optimal_looks_its_hull_up_once(monkeypatch):
    lookups = []
    exact_hull = mechanisms._exact_hull
    monkeypatch.setattr(mechanisms, "_exact_hull", lambda space: lookups.append(space) or exact_hull(space))
    for space in (S22, contingency_s_semi(3, 3), contingency_s_semi(2, 4), contingency_s_dp(2, 3)):
        lookups.clear()
        out = knorm_optimal(np.zeros(space.ambient_dim), space, 0.7, RngSeed(5))
        assert lookups == [space]
        noise = knorm_noise_samples(space, 0.7, NoiseRng(RngSeed(5)), 1)[0][0]
        assert out.noise.tobytes() == noise.tobytes()


def test_gaussian_takes_a_semi_or_dp_geometry():
    for r, c in ((2, 2), (3, 5), (6, 4)):
        query = np.arange(r * c, dtype=float)
        out = gaussian_semi(query, table_geometry("semi", r, c), 0.9, RngSeed(4))
        assert out.to_json() == gaussian_semi(query, contingency_s_semi(r, c), 0.9, RngSeed(4)).to_json()
    # a single-move space projects by centring in closed form; on its record
    # and on its vectors alike, within 1e-14 of the projector of its span basis
    for r in range(1, 5):
        for c in range(1, 5):
            d, query, seed = r * c, np.arange(r * c, dtype=float), RngSeed(r, c)
            out = gaussian_semi(query, table_geometry("dp", r, c), 0.9, seed)
            space = contingency_s_dp(r, c)
            assert out.to_json() == gaussian_semi(query, space, 0.9, seed).to_json()
            assert out.meta["span_dim"] == d - 1 and out.meta["delta2"] == (math.sqrt(2.0) if d > 1 else 0.0)
            z = NoiseRng(seed).normal(scale=out.meta["delta2"] / 0.9, size=(1, d))
            basis_path = (z @ projection_matrix(span_basis(space), d))[0]
            assert np.abs(out.noise - basis_path).max() <= 1e-14


def test_knorm_draws_on_every_single_move_space_up_to_sixteen_cells():
    for r in range(1, 17):
        for c in range(1, 16 // r + 1):
            out = knorm_optimal(np.zeros(r * c), contingency_s_dp(r, c), 0.5, RngSeed(r, c))
            assert out.meta["span_dim"] == r * c - 1
            if r * c == 1:  # one cell: no move, no noise
                assert "warning" in out.meta and out.noise.tolist() == [0.0]
            else:
                assert out.meta["rejections"] == 0 and abs(out.noise.sum()) < 1e-12 and out.noise.any()


def _brute_force_space(levels, spec, t, radius):
    data = DataspaceSpec(n=3, levels=levels)
    return brute_force_sensitivity_space(data, conforming_set(data, spec, t), cell_count_query(data), radius)


#: Spaces with hulls that have no exact draw: the 3x3 semi moves with the
#: three-record rotations (radius 3 at all margins 1), and the radius-2 set
#: of three records of three binary features with one joint two-way margin.
UNDRAWN_SPACES = {
    "rotations": lambda: _brute_force_space((3, 3), OneWayMargins((0, 1)), ((1, 1, 1), (1, 1, 1)), 3),
    "joint": lambda: _brute_force_space((2, 2, 2), JointMargins(((0, 1),)), ((1, 1, 1, 0),), 2),
}


@pytest.mark.parametrize("r,c", [(3, 6), (5, 5), (4, 5), (6, 3), ("rotations", None), ("joint", None)])
def test_knorm_refuses_hopeless_boxes_before_the_first_try(monkeypatch, r, c):
    # a hull with neither a cone table nor the root polytope's form is
    # refused by name, by draws and gauges alike, before any uniform is drawn,
    # span basis built or LP solved
    def refuse(*args, **kwargs):
        raise AssertionError("a uniform was drawn or a geometry built")

    space = UNDRAWN_SPACES[r]() if c is None else contingency_s_semi(r, c)
    monkeypatch.setattr(NoiseRng, "uniform_open", refuse)
    monkeypatch.setattr(sensitivity, "_span_basis_cached", refuse)
    monkeypatch.setattr(simplex, "solve_lp", refuse)
    refusal = f"^the hull sampler refuses {re.escape(space.provenance)}: it draws exactly only on"
    with pytest.raises(ValueError, match=refusal):
        knorm_noise_samples(space, 1.0, NoiseRng(RngSeed(1)), 1)
    with pytest.raises(ValueError, match=refusal):
        knorm_optimal(np.zeros(space.ambient_dim), space, 1.0, RngSeed(1))
    for gauge in (gauge_norm, hull_membership):
        with pytest.raises(ValueError, match=refusal):
            gauge(space, space.array[-1])


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


def test_naive_group_size_must_be_an_integer_at_least_one():
    for bad in (2.5, 1.5, math.nan, "2"):
        with pytest.raises(ValueError, match="^group_size must be an integer"):
            NaiveGroupMechanism("gaussian", bad, 1.0)
    with pytest.raises(ValueError, match="^group_size must be >= 1"):
        NaiveGroupMechanism("l1", 0, 1.0)
    three = NaiveGroupMechanism("gaussian", np.int64(3), 1.0)
    assert type(three.group_size) is int and three == NaiveGroupMechanism("gaussian", 3, 1.0)


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
