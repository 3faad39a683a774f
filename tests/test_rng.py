"""Deterministic streams and distributional correctness of the sampler."""

import math

import numpy as np
import pytest
import scipy.stats as st

from semidp.rng import NoiseRng, RngSeed


def test_same_seed_same_stream_identical():
    a = NoiseRng(RngSeed(123, 4)).normal(size=100)
    b = NoiseRng(RngSeed(123, 4)).normal(size=100)
    assert np.array_equal(a, b)


def test_streams_differ():
    a = NoiseRng(RngSeed(123, 0)).normal(size=100)
    b = NoiseRng(RngSeed(123, 1)).normal(size=100)
    assert not np.array_equal(a, b)


def test_seed_validation():
    with pytest.raises(ValueError):
        RngSeed(-1)
    with pytest.raises(ValueError):
        RngSeed(2**64)


def test_uniform_open_strictly_interior():
    u = NoiseRng(RngSeed(1)).uniform_open(size=100_000)
    assert u.min() > 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005


def test_normal_distribution():
    x = NoiseRng(RngSeed(2)).normal(size=100_000)
    assert st.kstest(x, st.norm.cdf).pvalue > 0.01
    assert abs(x.mean()) < 5 / np.sqrt(100_000)


def test_laplace_variance_identity():
    scale = 1.7
    x = NoiseRng(RngSeed(3)).laplace(scale=scale, size=100_000)
    assert st.kstest(x, st.laplace(scale=scale).cdf).pvalue > 0.01
    # Var = 2 b^2
    assert abs(np.var(x) - 2 * scale**2) < 5 * np.sqrt(20.0 * scale**4 / 100_000)


@pytest.mark.parametrize("shape,rate", [(0.7, 1.0), (1.0, 0.5), (2.0, 0.7), (5.0, 2.0)])
def test_gamma_distribution(shape, rate):
    x = NoiseRng(RngSeed(4)).gamma(shape, rate, size=100_000)
    assert st.kstest(x, st.gamma(a=shape, scale=1.0 / rate).cdf).pvalue > 0.01
    assert abs(x.mean() - shape / rate) < 5 * np.sqrt(shape / rate**2 / 100_000)


def _eager_gamma(seed: RngSeed, shape: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Marsaglia-Tsang rounds that transform all 2 n + 8 normals of a round,
    and the next uniforms on the stream after the draw."""
    rng = NoiseRng(seed)
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out: list[float] = []
    while len(out) < n:
        m = 2 * (n - len(out)) + 8
        x = rng.normal(size=m)
        v = (1.0 + c * x) ** 3
        u = rng.uniform_open(m)
        with np.errstate(invalid="ignore", divide="ignore"):
            ok = (v > 0) & (np.log(u) < 0.5 * x**2 + d - d * v + d * np.log(v))
        out.extend((d * v[ok])[: n - len(out)])
    return np.array(out), rng.uniform_open(4)


@pytest.mark.parametrize("shape", [1.0, 1.3, 2.0, 4.0, 10.0])
def test_gamma_draws_and_stream_match_eager_rounds(shape):
    for seed in range(40):
        for n in (1, 2, 5, 20, 300):
            rng = NoiseRng(RngSeed(seed, 9))
            draws = rng.gamma(shape, 1.0, size=n)
            want, after = _eager_gamma(RngSeed(seed, 9), shape, n)
            assert np.array_equal(draws, want)
            assert np.array_equal(rng.uniform_open(4), after)


def test_gamma_scalar_and_validation():
    v = NoiseRng(RngSeed(5)).gamma(2.0, 1.0)
    assert isinstance(v, float) and v > 0
    with pytest.raises(ValueError):
        NoiseRng(RngSeed(5)).gamma(0.0, 1.0)


def test_multinomial_counts():
    p = np.array([0.2, 0.3, 0.5])
    counts = NoiseRng(RngSeed(6)).multinomial(100_000, p)
    assert counts.sum() == 100_000
    assert np.all(np.abs(counts / 100_000 - p) < 0.01)


def test_meta_records_choices():
    meta = NoiseRng(RngSeed(9, 2)).meta()
    assert meta["generator"] == "philox4x64"
    assert meta["seed"] == 9 and meta["stream"] == 2
    assert meta["normal"] == "inverse_cdf"
