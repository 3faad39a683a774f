"""Tradeoff functions and privacy-guarantee accounting.

A tradeoff function f maps a hypothesis-testing level alpha in [0, 1] to the
best achievable type II error bound for distinguishing a mechanism's outputs
on two adjacent inputs (type I error convention 1 - alpha, so f is
non-decreasing, convex, and f(alpha) <= alpha). Three families are supported:

* ``exact_dp``     piecewise-linear f for an (epsilon, delta) guarantee,
* ``gaussian_dp``  f for testing N(0,1) against N(mu,1),
* ``self_power``   k-fold functional iteration of a base f (group privacy).

``iterate_tradeoff`` evaluates the k-fold iterate f^(k) of any of them in
closed form; a single evaluation is the case k = 1.

All values are immutable and every function here is pure, so concurrent use
is safe.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._special import log_ndtr, ndtr, ndtri

EXACT_DP = "exact_dp"
GAUSSIAN_DP = "gaussian_dp"
SELF_POWER = "self_power"

#: Label attached to tensor-product results that are lower bounds rather
#: than exact tradeoff curves.
LOWER_BOUND = "LOWER_BOUND"

#: Grid for pointwise tradeoff comparisons.
DEFAULT_COMPARISON_GRID = tuple(np.linspace(0.0, 1.0, 101))

_COMPARISON_TOL = 1e-9


@dataclass(frozen=True)
class TradeoffSpec:
    """A tradeoff function identified by family tag plus parameters."""

    family: str
    epsilon: float | None = None
    delta: float | None = None
    mu: float | None = None
    base: "TradeoffSpec | None" = None
    power: int | None = None

    def __post_init__(self) -> None:
        if self.family == EXACT_DP:
            if self.epsilon is None or self.delta is None:
                raise ValueError("exact_dp requires epsilon and delta")
            if not 0 <= self.epsilon < math.inf:
                raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
            if not 0.0 <= self.delta <= 1.0:
                raise ValueError(f"delta must be in [0, 1], got {self.delta}")
        elif self.family == GAUSSIAN_DP:
            if self.mu is None:
                raise ValueError("gaussian_dp requires mu")
            if not 0 <= self.mu < math.inf:
                raise ValueError(f"mu must be finite and >= 0, got {self.mu}")
        elif self.family == SELF_POWER:
            if self.base is None or self.power is None:
                raise ValueError("self_power requires base and power")
            if self.power < 1:
                raise ValueError(f"power must be >= 1, got {self.power}")
        else:
            raise ValueError(f"unknown tradeoff family: {self.family!r}")

    def params(self) -> dict:
        """Family parameters as a JSON-ready dict."""
        if self.family == EXACT_DP:
            return {"epsilon": self.epsilon, "delta": self.delta}
        if self.family == GAUSSIAN_DP:
            return {"mu": self.mu}
        return {"k": self.power, "base": {"family": self.base.family, "params": self.base.params()}}


def exact_dp(epsilon: float, delta: float = 0.0) -> TradeoffSpec:
    return TradeoffSpec(family=EXACT_DP, epsilon=float(epsilon), delta=float(delta))


def gaussian_dp(mu: float) -> TradeoffSpec:
    return TradeoffSpec(family=GAUSSIAN_DP, mu=float(mu))


def self_power(base: TradeoffSpec, k: int) -> TradeoffSpec:
    return TradeoffSpec(family=SELF_POWER, base=base, power=int(k))


def eval_tradeoff(f: TradeoffSpec, alpha):
    """Evaluate f(alpha); accepts a scalar or an ndarray in [0, 1]."""
    return iterate_tradeoff(f, alpha, 1)


def iterate_tradeoff(f: TradeoffSpec, alpha, k):
    """k-fold iterate f^(k)(alpha), elementwise over broadcast alpha and k.

    alpha lies in [0, 1] and k holds non-negative integers (k = 0 is the
    identity). Every family iterates in closed form, so the cost does not
    grow with k.
    """
    arr = np.asarray(alpha, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    steps = np.asarray(k, dtype=float)
    if np.any(steps < 0.0) or np.any(np.floor(steps) < steps):
        raise ValueError("k must hold non-negative integers")
    out = _iterate(f, arr, steps)
    if np.ndim(alpha) == 0 and np.ndim(k) == 0:
        return float(out)
    return out


def _iterate(f: TradeoffSpec, arr: np.ndarray, k: np.ndarray) -> np.ndarray:
    if f.family == GAUSSIAN_DP:
        # G_mu^(k) = G_(k mu): each step shifts the normal quantile by mu
        return ndtr(ndtri(arr) - k * f.mu)
    if f.family == SELF_POWER:
        return _iterate(f.base, arr, k * f.power)
    return _exact_dp_iterate(f.epsilon, f.delta, arr, k)


def _exact_dp_iterate(eps: float, delta: float, a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """f^(k) for f(a) = max(0, e^-eps (a - delta), 1 - delta - e^eps (1 - a)).

    Below the kink 1 - c, c = (1 - delta) / (1 + e^eps), f is the lower
    branch, whose iterate is e^(-k eps) a - delta S_k with
    S_k = sum_(j=1..k) e^(-j eps), clamped at 0. Above it, b = 1 - a follows
    the upper branch b -> e^eps b + delta until b reaches c; those steps come
    first because f(a) <= a.
    """
    if eps == 0.0:
        return np.maximum(0.0, a - k * delta)
    c = (1.0 - delta) / (1.0 + math.exp(eps))
    b = 1.0 - a
    above = b < c
    if np.any(above):
        d = delta / math.expm1(eps)  # the upper branch's repelling fixed point is b = -d
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            up = np.where(above, np.minimum(k, np.ceil(np.log((c + d) / (b + d)) / eps)), 0.0)
            grown = np.exp(up * eps) * b + delta * np.expm1(up * eps) / math.expm1(eps)
        # b = -d is a fixed point: pure DP keeps f(1) = 1 for every k
        a = np.where(up > 0.0, 1.0 - np.where(b + d > 0.0, grown, b), a)
        k = k - up
    return np.maximum(0.0, np.exp(-k * eps) * a + delta * np.expm1(-k * eps) / math.expm1(eps))


def breakpoints(f: TradeoffSpec) -> tuple[float, ...]:
    """Knots where a piecewise-linear family changes slope (grid refinement)."""
    if f.family == EXACT_DP:
        e = math.exp(f.epsilon)
        pts = {f.delta, (e - 1.0 + f.delta) / e}
        if e > 1.0 / e:
            # the two sloped pieces cross here
            pts.add((e + f.delta - 1.0 - f.delta / e) / (e - 1.0 / e))
        return tuple(sorted(p for p in pts if 0.0 < p < 1.0))
    if f.family == SELF_POWER:
        return breakpoints(f.base)
    return ()


def _finite_product(k: int, x: float, name: str) -> float:
    """k * x for an integer k of any size; ValueError unless it is a finite float."""
    try:
        out = k * x
    except OverflowError:  # k itself is beyond the float range
        out = math.inf
    if not out < math.inf:
        raise ValueError(f"{name} is not a finite float at this group size")
    return out


def compose_self(f: TradeoffSpec, k: int) -> TradeoffSpec:
    """Tradeoff after k-fold functional iteration (protection at distance k).

    Gaussian curves iterate in closed form, G_mu -> G_{k mu}. Other families
    stay as an explicit ``self_power``: the iterate of a piecewise-linear
    curve is not another ``exact_dp`` curve, though ``iterate_tradeoff``
    still evaluates it in closed form.
    """
    k = int(k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k == 1:
        return f
    if f.family == GAUSSIAN_DP:
        return gaussian_dp(_finite_product(k, f.mu, "group mu"))
    if f.family == SELF_POWER:
        if f.base.family == GAUSSIAN_DP:
            return gaussian_dp(_finite_product(k * f.power, f.base.mu, "group mu"))
        return self_power(f.base, k * f.power)
    return self_power(f, k)


def tensor_gdp(mu1: float, mu2: float) -> TradeoffSpec:
    """Tradeoff of releasing two independent Gaussian-curve mechanisms."""
    if mu1 < 0 or mu2 < 0:
        raise ValueError("mu values must be >= 0")
    return gaussian_dp(math.hypot(mu1, mu2))


def tensor_exact_lower_bound(f: TradeoffSpec, g: TradeoffSpec) -> tuple[TradeoffSpec, str]:
    """Composition bound for two exact_dp curves: (eps1+eps2, delta1+delta2).

    This is a valid lower bound on the composed tradeoff, not the exact
    curve, hence the LOWER_BOUND label in the result.
    """
    if f.family != EXACT_DP or g.family != EXACT_DP:
        raise ValueError("tensor_exact_lower_bound requires exact_dp inputs")
    return exact_dp(f.epsilon + g.epsilon, min(1.0, f.delta + g.delta)), LOWER_BOUND


@dataclass(frozen=True)
class CompositionOrderReport:
    """Pointwise comparison of compose-then-iterate vs iterate-then-compose."""

    tensor_then_power: TradeoffSpec
    power_then_tensor: TradeoffSpec
    grid: tuple[float, ...]
    lhs_values: tuple[float, ...]
    rhs_values: tuple[float, ...]
    max_lhs_minus_rhs: float
    ordered: bool


def composition_order_check(fs: Sequence[TradeoffSpec], a: int) -> CompositionOrderReport:
    """Check (f1 x ... x fk)^(a) <= f1^(a) x ... x fk^(a) on
    ``DEFAULT_COMPARISON_GRID``.

    Implemented for the Gaussian family, where both sides have closed forms;
    there they coincide exactly.
    """
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    if not fs:
        raise ValueError("fs must be non-empty")
    if any(f.family != GAUSSIAN_DP for f in fs):
        raise ValueError("composition_order_check supports the gaussian_dp family only")
    mus = np.array([f.mu for f in fs], dtype=float)
    lhs = compose_self(gaussian_dp(float(np.sqrt(np.sum(mus**2)))), a)
    rhs = gaussian_dp(float(np.sqrt(np.sum((a * mus) ** 2))))
    arr = np.asarray(DEFAULT_COMPARISON_GRID, dtype=float)
    lv = eval_tradeoff(lhs, arr)
    rv = eval_tradeoff(rhs, arr)
    gap = float(np.max(lv - rv))
    return CompositionOrderReport(
        tensor_then_power=lhs,
        power_then_tensor=rhs,
        grid=tuple(float(x) for x in arr),
        lhs_values=tuple(float(x) for x in lv),
        rhs_values=tuple(float(x) for x in rv),
        max_lhs_minus_rhs=gap,
        ordered=bool(np.all(lv <= rv + _COMPARISON_TOL)),
    )


def gdp_to_approx_dp(mu: float, epsilon: float) -> float:
    """delta(epsilon) for a Gaussian-curve guarantee with parameter mu.

    delta = Phi(-eps/mu + mu/2) - e^eps * Phi(-eps/mu - mu/2). The second
    term is computed in log space so large epsilon does not overflow.
    """
    if not 0 <= mu < math.inf:
        raise ValueError(f"mu must be finite and >= 0, got {mu}")
    if not 0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    if mu == 0.0:
        return 0.0
    first = float(ndtr(-epsilon / mu + mu / 2.0))
    second = float(np.exp(epsilon + log_ndtr(-epsilon / mu - mu / 2.0)))
    return max(0.0, first - second)


def zcdp_group(rho: float, k: int) -> float:
    """Concentrated-DP parameter after widening protection to groups of size k."""
    if not 0 <= rho < math.inf:
        raise ValueError(f"rho must be finite and >= 0, got {rho}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _finite_product(k**2, rho, "group rho")


def zcdp_to_approx_dp(rho: float, delta: float) -> float:
    """epsilon(delta) for a rho concentrated-DP guarantee (natural log)."""
    if not 0 <= rho < math.inf:
        raise ValueError(f"rho must be finite and >= 0, got {rho}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


@dataclass(frozen=True)
class PrivacyGuarantee:
    """A guarantee triple: dataspace label, adjacency radius, tradeoff."""

    dataspace_label: str
    adjacency_radius: int
    tradeoff: TradeoffSpec

    def __post_init__(self) -> None:
        if self.adjacency_radius < 0:
            raise ValueError("adjacency_radius must be >= 0")

    def to_json(self) -> str:
        return json.dumps(
            {
                "dataspace": self.dataspace_label,
                "adjacency_radius": self.adjacency_radius,
                "family": self.tradeoff.family,
                "params": self.tradeoff.params(),
            },
            sort_keys=True,
        )


def guarantee_from_json(text: str) -> PrivacyGuarantee:
    obj = json.loads(text)
    return PrivacyGuarantee(
        dataspace_label=obj["dataspace"],
        adjacency_radius=int(obj["adjacency_radius"]),
        tradeoff=_spec_from_params(obj["family"], obj["params"]),
    )


def _spec_from_params(family: str, params: dict) -> TradeoffSpec:
    if family == EXACT_DP:
        return exact_dp(params["epsilon"], params["delta"])
    if family == GAUSSIAN_DP:
        return gaussian_dp(params["mu"])
    if family == SELF_POWER:
        base = params["base"]
        return self_power(_spec_from_params(base["family"], base["params"]), params["k"])
    raise ValueError(f"unknown tradeoff family: {family!r}")


def _canonical_pairs(pairs: Iterable) -> set[frozenset]:
    out = set()
    for a, b in pairs:
        if a == b:
            raise ValueError("indistinguishable pairs must contain distinct datasets")
        out.add(frozenset((a, b)))
    return out


def _pointwise_le(f: TradeoffSpec, g: TradeoffSpec, grid: np.ndarray) -> bool:
    return bool(np.all(eval_tradeoff(f, grid) <= eval_tradeoff(g, grid) + _COMPARISON_TOL))


def compare_guarantees(
    g1: PrivacyGuarantee,
    g2: PrivacyGuarantee,
    ind1: Iterable,
    ind2: Iterable,
) -> str:
    """Order two guarantees by protected pairs and tradeoff strength.

    g1 is at least as strong as g2 when every pair g2 protects is protected
    by g1 and g2's tradeoff sits below g1's on ``DEFAULT_COMPARISON_GRID``
    and both curves' breakpoints. Returns one of
    ``g1_stronger``, ``g2_stronger``, ``equal``, ``incomparable``.
    """
    pairs1 = _canonical_pairs(ind1)
    pairs2 = _canonical_pairs(ind2)
    arr = np.asarray(
        sorted(set(DEFAULT_COMPARISON_GRID) | set(breakpoints(g1.tradeoff)) | set(breakpoints(g2.tradeoff))),
        dtype=float,
    )
    g2_below_g1 = pairs2 <= pairs1 and _pointwise_le(g2.tradeoff, g1.tradeoff, arr)
    g1_below_g2 = pairs1 <= pairs2 and _pointwise_le(g1.tradeoff, g2.tradeoff, arr)
    if g2_below_g1 and g1_below_g2:
        return "equal"
    if g2_below_g1:
        return "g1_stronger"
    if g1_below_g2:
        return "g2_stronger"
    return "incomparable"
