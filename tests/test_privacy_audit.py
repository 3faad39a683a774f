"""The hull mechanism's law and privacy loss on the tabled one-way-margin tables.

The noise density is proportional to exp(-eps ||y||_K) on the span of
``contingency_s_semi(r, c)``, K its hull, s = (r - 1)(c - 1). So:

* a direction u is uniform in K, and its gauge^s is uniform on (0, 1);
* the radius is Gamma(s + 1, eps) and the noise's gauge Gamma(s, eps).

A cone draw takes the radius and the gauge as eps^-1 times the sums of its
s + 1 exponentials and of the last s of them, so both are checked exactly
against the same seeded stream; their Gamma laws are the stream's, which
``tests/test_rng.py`` checks. The gauge^s law depends on the simplex
weights and the Dirichlet weights, and is KS-tested.

The privacy loss of the pair (q, q + D) at noise y is
L(y) = eps (||y||_K - ||y - D||_K). Under the density, E[exp L] = 1 exactly,
and |L| <= eps ||D||_K by the triangle inequality. A wrong simplex weight,
orbit size or symmetry gives a density that is not a function of the gauge
alone, which moves E[exp L] off 1 even where the radial laws hold.

Seeds, sample sizes and thresholds were fixed before the tests were first
run: each KS test needs p > 0.001; the audit allows 4 standard errors.
"""

import math

import numpy as np
import pytest
import scipy.stats as st

from semidp import sensitivity
from semidp.mechanisms import knorm_noise_samples
from semidp.rng import NoiseRng, RngSeed
from semidp.sensitivity import contingency_s_semi, gauge_norm

LAW_SHAPES = [(2, 3), (3, 3), (3, 4), (4, 4)]
LAW_SEED, LAW_N, LAW_EPS, LAW_P = 20261019, 20_000, 0.7, 0.001

AUDIT_SEED, AUDIT_N, AUDIT_EPS, AUDIT_Z = 20261020, 50_000, 1.0, 4.0

#: A three-record rotation of a 3x3 table: +1 on the diagonal, -1 beside it.
ROTATION = np.array([1, -1, 0, 0, 1, -1, -1, 0, 1])


def _gauges(r, c, points):
    """Hull gauges of span points, one per row, from the committed facet table."""
    return (sensitivity._hull_table(r, c).facets @ points.T).max(axis=0) / 2.0


@pytest.mark.parametrize("r,c", LAW_SHAPES)
def test_cone_draws_follow_the_hull_laws(r, c):
    s, eps = (r - 1) * (c - 1), LAW_EPS
    seed = RngSeed(LAW_SEED, LAW_SHAPES.index((r, c)))
    noise, radii, directions, rejections = knorm_noise_samples(
        contingency_s_semi(r, c), eps, NoiseRng(seed), LAW_N)
    assert not any(rejections)
    gauges = _gauges(r, c, directions)
    assert gauges.max() <= 1.0 + 1e-12
    assert np.abs(directions.reshape(-1, r, c).sum(axis=1)).max() < 1e-12  # in the span
    assert np.abs(directions.reshape(-1, r, c).sum(axis=2)).max() < 1e-12
    exponentials = -np.log(NoiseRng(seed).uniform_open((LAW_N, s + 3))[:, : s + 1])
    assert eps * radii == pytest.approx(exponentials.sum(axis=1), rel=1e-12)
    assert eps * _gauges(r, c, noise) == pytest.approx(exponentials[:, 1:].sum(axis=1), rel=1e-12)
    p_direction = st.kstest(gauges**s, st.uniform.cdf).pvalue
    assert p_direction > LAW_P, p_direction


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
    loss = AUDIT_EPS * (_gauges(r, c, noise) - _gauges(r, c, noise - delta))
    assert np.abs(loss).max() <= AUDIT_EPS * bound * (1.0 + 1e-12)
    # the bound is reached: where y and y - D share a facet that D reaches,
    # which happens with positive probability; for the rotation that is 2 eps
    assert loss.max() == pytest.approx(AUDIT_EPS * bound, rel=1e-9)
    ratio = np.exp(loss)
    se = ratio.std(ddof=1) / math.sqrt(AUDIT_N)
    assert abs(ratio.mean() - 1.0) <= AUDIT_Z * se, (ratio.mean(), se)
