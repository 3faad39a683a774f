"""semidp._special against scipy.special, its oracle.

Each function is checked on a scalar, on short arrays (element by element)
and on long ones (vectorised), including the values where scipy's
conventions matter: +-inf, nan, 0, 1 and inputs off the domain.
"""

import math

import numpy as np
import pytest
import scipy.special as sp

from semidp import _special
from semidp.rng import NoiseRng, RngSeed


def _ulps(got, want):
    """|got - want| in units of the spacing at want; equal infinities and nans are 0."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    same = (got == want) | (np.isnan(got) & np.isnan(want))
    with np.errstate(invalid="ignore"):
        return np.where(same, 0.0, np.abs(got - want) / np.spacing(np.abs(want)))


def _each_path(fn, x):
    """fn on x whole, in short slices (the element-by-element path) and on
    every step-th element as a scalar: three (values, index into x) pairs."""
    x = np.asarray(x, dtype=float)
    short = np.concatenate([fn(x[i:i + 5]) for i in range(0, x.size, 5)])
    every = slice(None, None, max(1, x.size // 500))
    scalars = np.array([fn(float(v)) for v in x[every]])
    return [(fn(x), slice(None)), (short, slice(None)), (scalars, every)]


UNIFORMS = np.asarray(NoiseRng(RngSeed(20240601, 3)).uniform_open(200_000))
CENTRAL = (UNIFORMS > math.exp(-2.0)) & (UNIFORMS < 1.0 - math.exp(-2.0))


def test_ndtri_on_uniform_draws_is_bit_identical_centrally_and_within_two_ulp_in_the_tails():
    want = sp.ndtri(UNIFORMS)
    for got, index in _each_path(_special.ndtri, UNIFORMS):
        central = CENTRAL[index]
        assert np.array_equal(got[central], want[index][central])
        assert _ulps(got[~central], want[index][~central]).max() <= 2.0
    tails = UNIFORMS[~CENTRAL]  # the vectorised tail path
    assert _ulps(_special.ndtri(tails), sp.ndtri(tails)).max() <= 2.0


def _scalar_ndtri(x):
    return np.array([_special._ndtri(v) for v in np.ravel(x).tolist()]).reshape(np.shape(x))


@pytest.mark.parametrize("size", [100_000, 39, 40, 41, 60])
def test_ndtri_array_path_equals_the_scalar_path_bit_for_bit(size):
    # sizes 39, 40 and 41 sit on the element-by-element threshold; 100,000
    # draws send about 27,000 tail elements down the vectorised tail path
    y = NoiseRng(RngSeed(20240607, 5)).uniform_open(size)
    got = _special.ndtri(y)
    assert np.array_equal(got.view(np.int64), _scalar_ndtri(y).view(np.int64))
    # all central, all tails, and tails mixed with 0, 1, nan and off-domain values
    central = np.linspace(0.14, 0.86, 64)
    tails = np.concatenate([np.linspace(1e-10, 0.13, 30), np.linspace(0.87, 1 - 1e-10, 30)])
    odd = np.concatenate([tails, [0.0, 1.0, np.nan, -0.5, 1.5, 1e-300]])
    for x in (central, tails, odd, y[:41].reshape(-1, 1)):
        got = _special.ndtri(x)
        assert got.shape == x.shape
        assert np.array_equal(got.view(np.int64), _scalar_ndtri(x).view(np.int64))


def test_ndtri_far_tails_and_edges_within_two_ulp():
    edges = np.array([5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-20, 1.2e-14,
                      5.551115123125783e-17, math.exp(-2.0), 1.0 - math.exp(-2.0),
                      0.5, 1.0 - 2.0**-53, 1.0 - 2.0**-52, 0.0, -0.0, 1.0,
                      -1e-300, -1.0, 1.0 + 2.0**-52, 2.0, np.inf, -np.inf, np.nan])
    deep = np.exp(-np.linspace(0.0, 740.0, 5001))
    y = np.concatenate([deep, 1.0 - deep[deep > 1e-16], edges])
    want = sp.ndtri(y)
    for got, index in _each_path(_special.ndtri, y):
        assert _ulps(got, want[index]).max() <= 2.0
    for v in edges:
        got = _special.ndtri(v)
        assert isinstance(got, np.float64)
        assert _ulps(got, sp.ndtri(v)) <= 2.0


def test_ndtri_keeps_the_array_shape():
    y = UNIFORMS[:120].reshape(4, 30)
    assert np.array_equal(_special.ndtri(y), sp.ndtri(y))
    assert _special.ndtri(np.empty((0, 3))).shape == (0, 3)
    assert isinstance(_special.ndtri(np.array(0.25)), np.float64)


#: Phi to 40 digits (mpmath): scipy's erfc takes exp of a rounded -x^2, so
#: in the left tail it is itself off by up to x^2 ulp.
NDTR_EXACT = {-37.0: 5.725571222524577e-300, -20.0: 2.7536241186062337e-89,
              -5.0: 2.866515718791939e-07, 0.5: 0.6914624612740131}


def test_ndtr_matches_scipy_and_exact_values():
    x = np.concatenate([np.linspace(-37.0, 38.0, 30_001), np.linspace(-1.0, 1.0, 2001)])
    want = sp.ndtr(x)
    # 1e-15 relative, widened by the condition number ~x^2 of Phi in the left tail
    tol = 1e-15 * np.maximum(1.0, x * x)
    for got, index in _each_path(_special.ndtr, x):
        assert np.all(np.abs(got - want[index]) <= tol[index] * want[index])
    for v, exact in NDTR_EXACT.items():
        assert abs(_special.ndtr(v) - exact) <= 1e-15 * max(1.0, v * v) * exact
    for v, want in ((np.inf, 1.0), (-np.inf, 0.0), (0.0, 0.5), (-0.0, 0.5)):
        assert _special.ndtr(v) == want
    assert np.isnan(_special.ndtr(np.nan))
    assert np.array_equal(_special.ndtr(np.array([np.inf, -np.inf, np.nan])),
                          sp.ndtr(np.array([np.inf, -np.inf, np.nan])), equal_nan=True)


#: log Phi to 40 digits (mpmath).
LOG_NDTR_EXACT = {-1000.0: -500007.82669481216, -20.0: -203.91715537109727,
                  6.0: -9.865876455243758e-10}


def test_log_ndtr_matches_scipy_on_both_sides_of_the_branch_points():
    x = np.concatenate([np.linspace(-1e3, 40.0, 40_001), np.linspace(-20.5, -19.5, 1001),
                        np.linspace(5.5, 6.5, 1001), [-20.0, 6.0, 0.0, -0.0]])
    want = sp.log_ndtr(x)
    # above 6, log Phi(x) = -Phi(-x) to double precision, conditioned by x^2
    tol = np.where(x > 6.0, 1e-15 * x * x, 1e-14) * np.abs(want)
    tol = np.maximum(tol, np.finfo(float).tiny)  # subnormal results hold no relative precision
    for got, index in _each_path(_special.log_ndtr, x):
        assert np.all(np.abs(got - want[index]) <= tol[index])
    for v, exact in LOG_NDTR_EXACT.items():
        assert abs(_special.log_ndtr(v) - exact) <= 1e-14 * abs(exact)
    assert _special.log_ndtr(-np.inf) == -np.inf
    assert _special.log_ndtr(np.inf) == 0.0
    assert np.isnan(_special.log_ndtr(np.nan))
