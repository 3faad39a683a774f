"""The dense one-phase simplex core, cross-checked against scipy."""

import numpy as np
import pytest
from scipy.optimize import linprog

from semidp import simplex
from semidp.simplex import IterationLimitExceeded, UnboundedLp, solve_lp


def _scipy_max(A, b, c):
    """scipy's answer to max c'x over Ax <= b, x >= 0."""
    return linprog(-c, A_ub=A, b_ub=b, bounds=[(0, None)] * len(c), method="highs")


KNOWN_A = np.array([[1.0, 1.0], [1.0, 3.0]])
KNOWN_B = np.array([4.0, 6.0])
KNOWN_C = np.array([1.0, 2.0])  # max x1 + 2 x2: optimum 5 at (3, 1)


def test_small_known_optimum():
    assert solve_lp(KNOWN_A, KNOWN_B, KNOWN_C) == pytest.approx(5.0, abs=1e-12)
    assert solve_lp(KNOWN_A, KNOWN_B, np.zeros(2)) == 0.0


def test_unbounded_detected():
    # max x1 with -x1 + x2 <= 1: x1 grows without limit
    with pytest.raises(UnboundedLp):
        solve_lp(np.array([[-1.0, 1.0]]), np.array([1.0]), np.array([1.0, 0.0]))


def test_negative_rhs_refused():
    # b < 0 makes the slack basis infeasible, which this solver does not handle
    with pytest.raises(ValueError):
        solve_lp(KNOWN_A, np.array([4.0, -1.0]), KNOWN_C)
    with pytest.raises(ValueError):
        solve_lp(KNOWN_A, np.array([4.0]), KNOWN_C)


def test_redundant_rows_dropped():
    # the second row is twice the first: it ties every ratio test of the
    # first row and must neither stall the pivots nor move the optimum
    A = np.array([[1.0, 1.0], [2.0, 2.0]])
    b = np.array([2.0, 4.0])
    c = np.array([1.0, 2.0])
    assert solve_lp(A, b, c) == pytest.approx(4.0, abs=1e-12)
    assert solve_lp(A, b, c) == pytest.approx(-_scipy_max(A, b, c).fun, abs=1e-9)
    assert solve_lp(A, b, c) == solve_lp(A[:1], b[:1], c)


def test_degenerate_pivots_terminate():
    # the cycling example of Bertsimas and Tsitsiklis (Example 3.6), which
    # cycles under the largest-coefficient rule: two zero right-hand sides,
    # plus a scaled copy of the first row that ties its ratio tests
    A = np.array(
        [
            [0.25, -8.0, -1.0, 9.0],
            [0.5, -12.0, -0.5, 3.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.5, -16.0, -2.0, 18.0],
        ]
    )
    b = np.array([0.0, 0.0, 1.0, 0.0])
    c = np.array([0.75, -20.0, 0.5, -6.0])
    ref = _scipy_max(A, b, c)
    assert ref.status == 0
    assert solve_lp(A, b, c) == pytest.approx(-ref.fun, abs=1e-9)
    assert solve_lp(A, b, c) == pytest.approx(1.25, abs=1e-12)


def test_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(simplex, "MAX_PIVOTS", 1)
    with pytest.raises(IterationLimitExceeded):
        solve_lp(KNOWN_A, KNOWN_B, KNOWN_C)
    monkeypatch.setattr(simplex, "MAX_PIVOTS", 2)
    assert solve_lp(KNOWN_A, KNOWN_B, KNOWN_C) == pytest.approx(5.0, abs=1e-12)


def test_random_problems_match_scipy():
    rng = np.random.default_rng(42)
    bounded = unbounded = 0
    for _ in range(40):
        m, n = int(rng.integers(2, 8)), int(rng.integers(2, 7))
        A = rng.normal(size=(m, n)).round(3)
        b = rng.uniform(0.0, 2.0, size=m).round(3)
        b[rng.random(m) < 0.2] = 0.0  # degenerate starting vertices
        c = rng.normal(size=n).round(3)
        ref = _scipy_max(A, b, c)
        if ref.status == 3:
            with pytest.raises(UnboundedLp):
                solve_lp(A, b, c)
            unbounded += 1
        else:
            assert ref.status == 0
            assert solve_lp(A, b, c) == pytest.approx(-ref.fun, abs=1e-7)
            bounded += 1
    assert bounded >= 10 and unbounded >= 5


def test_early_exit_lands_between_bound_and_optimum():
    assert 1.0 < solve_lp(KNOWN_A, KNOWN_B, KNOWN_C, stop_above=1.0) <= 5.0 + 1e-12
    rng = np.random.default_rng(3)
    stopped = 0
    for _ in range(40):
        m, n = int(rng.integers(3, 9)), int(rng.integers(2, 6))
        A = np.abs(rng.normal(size=(m, n))) + 0.1  # positive rows keep it bounded
        b = rng.uniform(0.5, 2.0, size=m)
        c = rng.normal(size=n)
        optimum = solve_lp(A, b, c)
        assert optimum == pytest.approx(-_scipy_max(A, b, c).fun, abs=1e-9)
        bound = 0.5 * optimum
        value = solve_lp(A, b, c, stop_above=bound)
        if optimum > 0:
            assert bound < value <= optimum + 1e-12
            stopped += value < optimum - 1e-9
        else:
            assert value == optimum == 0.0
    assert stopped >= 1
