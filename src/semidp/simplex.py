"""Small dense one-phase simplex solver, the tests' oracle for the hull gauge.

Solves max c'x subject to Ax <= b, x >= 0 with b >= 0. With b >= 0 the
slack basis is feasible, so one phase of tableau pivots under Bland's
anti-cycling rule solves the problem. The solver can stop early once the
objective passes a given bound. No module of the package calls it: the
gauge reads its hulls in closed form, and the tests compare that gauge with
this LP in span coordinates (a few dozen variables, a few hundred rows).
The package imports it only so that ``benchmarks/spans.py`` finds it loaded.
"""

from __future__ import annotations

import math

import numpy as np

PIVOT_TOL = 1e-9

#: Pivots allowed per solve before ``IterationLimitExceeded``.
MAX_PIVOTS = 10_000


class IterationLimitExceeded(RuntimeError):
    """Raised when the simplex loop hits its iteration cap."""


class UnboundedLp(RuntimeError):
    """Raised when the objective has no upper bound on the feasible set."""


def solve_lp(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    stop_above: float = math.inf,
) -> float:
    """Maximize c'x over Ax <= b, x >= 0, for b >= 0.

    Returns the optimal value. Once the objective exceeds ``stop_above`` the
    pivots stop and that objective is returned: a value above the bound and
    at most the optimum, since every pivot keeps x feasible and never lowers
    the objective.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("inconsistent LP dimensions")
    if np.any(b < 0):
        raise ValueError("b must be >= 0 so that the slack basis is feasible")

    # rows [A | I | b] over the objective row [-c | 0 | z]
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = A
    tableau[np.arange(m), n + np.arange(m)] = 1.0
    tableau[:m, -1] = b
    tableau[-1, :n] = -c
    basis = list(range(n, n + m))

    for pivots in range(MAX_PIVOTS + 1):
        objective = float(tableau[-1, -1])
        eligible = (tableau[-1, :-1] < -PIVOT_TOL).nonzero()[0]
        if objective > stop_above or eligible.size == 0:
            return objective
        if pivots == MAX_PIVOTS:
            break
        entering = int(eligible[0])  # Bland: smallest eligible index
        col = tableau[:m, entering]
        rows = (col > PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            raise UnboundedLp("the LP objective is unbounded above")
        ratios = tableau[rows, -1] / col[rows]
        ties = rows[ratios <= ratios.min() + PIVOT_TOL]
        leaving = int(min(ties, key=basis.__getitem__))  # Bland tie-break
        _pivot(tableau, basis, leaving, entering)
    raise IterationLimitExceeded(f"simplex exceeded {MAX_PIVOTS} iterations")


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    multipliers = tableau[:, col].copy()
    multipliers[row] = 0.0
    tableau -= multipliers[:, None] * tableau[row]
    basis[row] = col
