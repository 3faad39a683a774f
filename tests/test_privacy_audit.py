"""The hull mechanism's law and privacy loss on every hull it draws exactly.

The noise density is proportional to exp(-eps ||y||_K) on the span of the
space, K its hull, s the span's dimension. So:

* a direction u is uniform in K, and its gauge^s is uniform on (0, 1);
* the radius is Gamma(s + 1, eps) and the noise's gauge Gamma(s, eps).

A draw takes the radius and the gauge as eps^-1 times the sums of its
s + 1 exponentials and of the last s of them, so both are checked exactly
against the same seeded stream; their Gamma laws are the stream's, which
``tests/test_rng.py`` checks, and on the shapes added with the root
polytope and the 3x5 tables the radius is KS-tested too. The gauge^s law
depends on the simplex weights and the Dirichlet weights, and is KS-tested.

The tabled semi tables take their gauges from the committed facet tables.
The root polytope's (single-move spaces, 2 x c and r x 2 tables) come from
a closed form, checked here, with ``gauge_norm``, against the LP:
||x||_1 / 2 at x less its mean on a single-move space, and ||x||_1 / 4 at
the double-centred table on a 2 x c or r x 2 table, whose moves hold each
e_a - e_b twice.

The privacy loss of the pair (q, q + D) at noise y is
L(y) = eps (||y||_K - ||y - D||_K). Under the density, E[exp L] = 1 exactly,
and |L| <= eps ||D||_K by the triangle inequality. A wrong simplex weight,
orbit size or symmetry gives a density that is not a function of the gauge
alone, which moves E[exp L] off 1 even where the radial laws hold.

The projected Gaussian releases q + y, y ~ N(0, sigma^2 P), sigma =
Delta_2 / mu and P the projector onto the span. Its privacy loss at a move
D in the span is L(y) = (<y, D> - ||D||^2 / 2) / sigma^2, exactly
N(-m^2 / 2, m^2) with m = mu ||D||_2 / Delta_2: mu-GDP at every adjacent
move, and m = mu sqrt(6) / 2 at the 3x3 rotation. It is audited on semi
tables, projected by double centring, and on a single-move space,
projected by centring.

Seeds, sample sizes and thresholds were fixed before the tests were first
run: each KS test needs p > 0.001; the audit allows 4 standard errors; the
closed-form gauges must match the LP to 1e-9.
"""

import math
from functools import partial

import numpy as np
import pytest
import scipy.stats as st

from test_sensitivity import lp_gauge

from semidp import sensitivity
from semidp.mechanisms import gaussian_noise_samples, knorm_noise_samples
from semidp.rng import NoiseRng, RngSeed
from semidp.sensitivity import contingency_s_dp, contingency_s_semi, gauge_norm, lp_sensitivity

LAW_SHAPES = [(2, 3), (3, 3), (3, 4), (4, 4)]
LAW_SEED, LAW_N, LAW_EPS, LAW_P = 20261019, 20_000, 0.7, 0.001

AUDIT_SEED, AUDIT_N, AUDIT_EPS, AUDIT_Z = 20261020, 50_000, 1.0, 4.0

#: The spaces drawn on the root polytope, and the 3x5 and 5x3 tables: their
#: law draws take streams EXACT_STREAM + i of LAW_SEED, their audits of AUDIT_SEED.
EXACT_SHAPES = [("dp", 2, 3), ("dp", 3, 3), ("dp", 4, 4), ("semi", 2, 10), ("semi", 7, 2),
                ("semi", 3, 5), ("semi", 5, 3)]
EXACT_STREAM = 10
BUILDERS = {"dp": contingency_s_dp, "semi": contingency_s_semi}

#: Random span points a root hull's closed-form gauge is compared with the LP on.
ORACLE_SEED, ORACLE_N, ORACLE_TOL = 20261021, 200, 1e-9

#: A three-record rotation of a 3x3 table: +1 on the diagonal, -1 beside it.
ROTATION = np.array([1, -1, 0, 0, 1, -1, -1, 0, 1])

#: The projected Gaussian's mu; its audit draws take streams GAUSS_STREAM + i of AUDIT_SEED.
GAUSS_MU, GAUSS_STREAM = 1.0, 20


def _gauges(r, c, points):
    """Hull gauges of span points, one per row, from the committed facet table."""
    return (sensitivity._hull_table(r, c).facets @ points.T).max(axis=0) / 2.0


def _exact_gauges(kind, r, c, points):
    """Hull gauges of span points of an ``EXACT_SHAPES`` space: from the facet
    table, or on the root polytope in closed form."""
    if kind == "semi" and 2 not in (r, c):
        return _gauges(r, c, points)
    if kind == "dp":
        return np.abs(points - points.mean(axis=1, keepdims=True)).sum(axis=1) / 2.0
    t = points.reshape(-1, r, c)
    t = t - t.mean(axis=2, keepdims=True)
    return np.abs(t - t.mean(axis=1, keepdims=True)).sum(axis=(1, 2)) / 4.0


def _in_span(kind, r, c, points):
    """Largest row or column sum (semi), or total (dp), of the points' tables."""
    t = points.reshape(-1, r, c)
    if kind == "dp":
        return np.abs(t.sum(axis=(1, 2))).max()
    return max(np.abs(t.sum(axis=1)).max(), np.abs(t.sum(axis=2)).max())


def _check_laws(kind, r, c, gauge, seed, width):
    """Draw LAW_N noise vectors on the r x c space, check the hull laws that
    hold draw by draw and the gauge^s law, and return the radii. A draw
    takes ``width(s)`` uniforms, its exponentials first."""
    space = BUILDERS[kind](r, c)
    s, eps = sensitivity.span_basis(space).s, LAW_EPS
    noise, radii, directions, rejections = knorm_noise_samples(space, eps, NoiseRng(seed), LAW_N)
    assert not any(rejections)
    gauges = gauge(directions)
    assert gauges.max() <= 1.0 + 1e-12
    assert _in_span(kind, r, c, directions) < 1e-12
    exponentials = -np.log(NoiseRng(seed).uniform_open((LAW_N, width(s)))[:, : s + 1])
    assert eps * radii == pytest.approx(exponentials.sum(axis=1), rel=1e-12)
    assert eps * gauge(noise) == pytest.approx(exponentials[:, 1:].sum(axis=1), rel=1e-12)
    p_direction = st.kstest(gauges**s, st.uniform.cdf).pvalue
    assert p_direction > LAW_P, p_direction
    return radii


@pytest.mark.parametrize("r,c", LAW_SHAPES)
def test_cone_draws_follow_the_hull_laws(r, c):
    seed = RngSeed(LAW_SEED, LAW_SHAPES.index((r, c)))
    _check_laws("semi", r, c, partial(_gauges, r, c), seed, lambda s: s + 3)


@pytest.mark.parametrize("kind,r,c", EXACT_SHAPES)
def test_root_and_three_by_five_draws_follow_the_hull_laws(kind, r, c):
    root = kind == "dp" or 2 in (r, c)
    seed = RngSeed(LAW_SEED, EXACT_STREAM + EXACT_SHAPES.index((kind, r, c)))
    width = (lambda s: 3 * s + 1) if root else (lambda s: s + 3)
    radii = _check_laws(kind, r, c, partial(_exact_gauges, kind, r, c), seed, width)
    s = sensitivity.span_basis(BUILDERS[kind](r, c)).s
    p_radius = st.kstest(radii, st.gamma(a=s + 1, scale=1.0 / LAW_EPS).cdf).pvalue
    assert p_radius > LAW_P, p_radius


@pytest.mark.parametrize("kind,r,c", [shape for shape in EXACT_SHAPES if shape[0] == "dp" or 2 in shape[1:]])
def test_root_gauge_closed_form_is_the_lp_gauge(kind, r, c):
    space = BUILDERS[kind](r, c)
    basis = sensitivity.span_basis(space).vectors
    rng = np.random.default_rng(ORACLE_SEED + EXACT_SHAPES.index((kind, r, c)))
    points = rng.normal(size=(ORACLE_N, len(basis))) @ basis * rng.uniform(0.0, 2.0, size=(ORACLE_N, 1))
    lp = np.array([lp_gauge(space, v) for v in points])
    tol = ORACLE_TOL * max(1.0, lp.max())
    assert np.abs(np.array([gauge_norm(space, v) for v in points]) - lp).max() <= tol
    assert np.abs(_exact_gauges(kind, r, c, points) - lp).max() <= tol


def _check_privacy_loss(loss, bound):
    """|L| <= eps ||D||_K, reached, and E[exp L] = 1 within AUDIT_Z standard errors."""
    assert np.abs(loss).max() <= AUDIT_EPS * bound * (1.0 + 1e-12)
    # the bound is reached: where y and y - D share a facet that D reaches,
    # which happens with positive probability; for the rotation that is 2 eps
    assert loss.max() == pytest.approx(AUDIT_EPS * bound, rel=1e-9)
    ratio = np.exp(loss)
    se = ratio.std(ddof=1) / math.sqrt(len(loss))
    assert abs(ratio.mean() - 1.0) <= AUDIT_Z * se, (ratio.mean(), se)


@pytest.mark.parametrize("stream,r,c,move", [
    (0, 2, 3, None),
    (1, 3, 3, None),
    (2, 4, 4, None),
    (3, 3, 3, ROTATION),
])
def test_privacy_loss_has_mean_one_and_stays_bounded(stream, r, c, move):
    space = contingency_s_semi(r, c)
    delta = space.array[-1] if move is None else move  # an adjacent move, or the rotation
    bound = gauge_norm(space, delta)
    assert bound == pytest.approx(1.0 if move is None else 2.0, abs=1e-12)
    noise = knorm_noise_samples(space, AUDIT_EPS, NoiseRng(RngSeed(AUDIT_SEED, stream)), AUDIT_N)[0]
    _check_privacy_loss(AUDIT_EPS * (_gauges(r, c, noise) - _gauges(r, c, noise - delta)), bound)


@pytest.mark.parametrize("kind,r,c", EXACT_SHAPES)
def test_root_and_three_by_five_privacy_loss_has_mean_one_and_stays_bounded(kind, r, c):
    space = BUILDERS[kind](r, c)
    delta = space.array[-1]  # an adjacent move
    bound = gauge_norm(space, delta)
    assert bound == pytest.approx(1.0, abs=1e-12)
    seed = RngSeed(AUDIT_SEED, EXACT_STREAM + EXACT_SHAPES.index((kind, r, c)))
    noise = knorm_noise_samples(space, AUDIT_EPS, NoiseRng(seed), AUDIT_N)[0]
    gauges = partial(_exact_gauges, kind, r, c)
    _check_privacy_loss(AUDIT_EPS * (gauges(noise) - gauges(noise - delta)), bound)


@pytest.mark.parametrize("stream,r,c,move", [
    (GAUSS_STREAM, 2, 3, None),
    (GAUSS_STREAM + 1, 3, 3, None),
    (GAUSS_STREAM + 2, 4, 4, None),
    (GAUSS_STREAM + 3, 3, 3, ROTATION),
    (GAUSS_STREAM + 4, 2, 3, "dp"),
])
def test_gaussian_privacy_loss_is_the_gdp_law(stream, r, c, move):
    # move None: an adjacent move of the semi space; "dp": one of the single-move space
    rotation = isinstance(move, np.ndarray)
    space = BUILDERS[move if isinstance(move, str) else "semi"](r, c)
    delta = (move if rotation else space.array[-1]).astype(float)
    delta2 = lp_sensitivity(space, 2)
    sigma, m = delta2 / GAUSS_MU, GAUSS_MU * math.sqrt(delta @ delta) / delta2
    assert m == pytest.approx(GAUSS_MU * math.sqrt(6.0) / 2.0 if rotation else GAUSS_MU, rel=1e-12)
    noise = gaussian_noise_samples(space, GAUSS_MU, NoiseRng(RngSeed(AUDIT_SEED, stream)), AUDIT_N)
    loss = (noise @ delta - delta @ delta / 2.0) / sigma**2
    p_loss = st.kstest(loss, st.norm(loc=-m * m / 2.0, scale=m).cdf).pvalue
    assert p_loss > LAW_P, p_loss
    ratio = np.exp(loss)
    se = ratio.std(ddof=1) / math.sqrt(len(loss))
    assert abs(ratio.mean() - 1.0) <= AUDIT_Z * se, (ratio.mean(), se)
