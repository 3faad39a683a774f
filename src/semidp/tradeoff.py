"""Tradeoff functions and privacy-guarantee accounting.

A tradeoff function f maps a hypothesis-testing level alpha in [0, 1] to the
best achievable type II error bound for distinguishing a mechanism's outputs
on two adjacent inputs (type I error convention 1 - alpha, so f is
non-decreasing, convex, and f(alpha) <= alpha). Three families are supported:

* ``exact_dp``     piecewise-linear f for an (epsilon, delta) guarantee,
* ``gaussian_dp``  f for testing N(0,1) against N(mu,1),
* ``self_power``   k-fold functional iteration of a base f (group privacy).

``iterate_tradeoff`` evaluates the k-fold iterate f^(k) of any of them in
closed form; a single evaluation is the case k = 1. The public functions
validate their inputs (alpha in [0, 1], k a non-negative integer, epsilon
small enough that e^epsilon is a float); the evaluator under them,
``_iterate`` over a ``_Curve`` of precomputed constants, does not, and the
package's own callers (``cnd``) use it directly on values they built.

Group sizes (``compose_self``, ``self_power``, ``zcdp_group``) and adjacency
radii must be integers. ``tensor_gdp`` composes Gaussian curves, and
``composition_order_check`` compares composing then iterating against
iterating then composing. A ``PrivacyGuarantee`` is the triple of dataspace
label, adjacency radius and tradeoff curve; ``compare_guarantees`` orders two
of them by protected pairs and curve strength, exactly for piecewise-linear
curves and their iterates (on the union of their knots, ``breakpoints``),
exactly for a Gaussian curve against those (also at each piece's tangent
point) and on a grid for two Gaussian curves.

All values are immutable and every function here is pure, so concurrent use
is safe.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from ._special import log_ndtr, ndtr, ndtri
from .dataspace import _check_integer

EXACT_DP = "exact_dp"
GAUSSIAN_DP = "gaussian_dp"
SELF_POWER = "self_power"

#: Grid for pointwise tradeoff comparisons.
DEFAULT_COMPARISON_GRID = tuple(np.linspace(0.0, 1.0, 101))

_COMPARISON_TOL = 1e-9

#: Most knots ``breakpoints`` lists before it refuses an iterate as too
#: finely kinked to compare exactly.
_MAX_KNOTS = 100_000


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
            object.__setattr__(self, "power", _check_integer(self.power, "power", 1))
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
    return TradeoffSpec(family=SELF_POWER, base=base, power=k)


def eval_tradeoff(f: TradeoffSpec, alpha):
    """Evaluate f(alpha); accepts a scalar or an ndarray in [0, 1]."""
    return iterate_tradeoff(f, alpha, 1)


def iterate_tradeoff(f: TradeoffSpec, alpha, k):
    """k-fold iterate f^(k)(alpha), elementwise over broadcast alpha and k.

    alpha lies in [0, 1] and k holds non-negative integers (k = 0 is the
    identity); nan passes through. Every family iterates in closed form, so
    the cost does not grow with k. This is the validating entry point;
    callers inside the package that build alpha and k themselves call
    ``_iterate`` directly.
    """
    arr = np.asarray(alpha, dtype=float)
    if (arr < 0.0).any() or (arr > 1.0).any():
        raise ValueError("alpha must lie in [0, 1]")
    steps = np.asarray(k, dtype=float)
    if (steps < 0.0).any() or (np.floor(steps) < steps).any():
        raise ValueError("k must hold non-negative integers")
    out = _iterate(_curve(f), arr, steps)
    if np.ndim(alpha) == 0 and np.ndim(k) == 0:
        return float(out)
    return out


class _Curve(NamedTuple):
    """f = g^(p) for a Gaussian or (epsilon, delta) curve g, with the
    constants every evaluation of g uses; ``_curve`` builds it."""

    gaussian: bool  # g is G_mu; otherwise g is the (epsilon, delta) curve
    p: int
    mu: float  # 0 for an (epsilon, delta) g; the fields below are 0 for a Gaussian g
    epsilon: float
    delta: float
    kink: float  # c_g = (1 - delta) / (1 + e^eps) = g(1 - c_g), where g's branches meet
    expm1_eps: float


def _curve(f: TradeoffSpec) -> _Curve:
    g, p = f, 1
    while g.family == SELF_POWER:
        g, p = g.base, p * g.power
    if g.family == GAUSSIAN_DP:
        return _Curve(True, p, g.mu, 0.0, 0.0, 0.0, 0.0)
    eps, delta = g.epsilon, g.delta
    try:
        kink = (1.0 - delta) / (1.0 + math.exp(eps))
    except OverflowError:
        raise ValueError(f"epsilon = {eps} is too large: e^epsilon overflows a float "
                         "(epsilon must be at most 709.78)") from None
    return _Curve(False, p, 0.0, eps, delta, kink, math.expm1(eps))


def _iterate(curve: _Curve, a, k, b=None):
    """f^(k)(a) without validation, elementwise over broadcast a and k;
    a (and b) are numpy floats or float arrays.

    b, when given, is 1 - a held exactly; forming 1 - a from a = 1 - b
    loses the low bits of a small b, which the upper branch's slope e^eps
    and the normal quantile's tail magnify.
    """
    steps = k if curve.p == 1 else k * curve.p
    if curve.gaussian:
        # G_mu^(k) = G_(k mu): each step shifts the normal quantile by mu
        z = ndtri(a) if b is None else -ndtri(b)
        return ndtr(z - steps * curve.mu)
    return _exact_dp_iterate(curve, a, 1.0 - a if b is None else b, steps)


def _exact_dp_iterate(curve: _Curve, a, b, k):
    """f^(k) for f(a) = max(0, e^-eps (a - delta), 1 - delta - e^eps (1 - a)), b = 1 - a.

    Below the kink 1 - c, c = (1 - delta) / (1 + e^eps), f is the lower
    branch, whose iterate is e^(-k eps) a - delta S_k with
    S_k = sum_(j=1..k) e^(-j eps), clamped at 0. Above it, b = 1 - a follows
    the upper branch b -> e^eps b + delta until b reaches c; those steps come
    first because f(a) <= a.
    """
    eps, delta, c, em1 = curve.epsilon, curve.delta, curve.kink, curve.expm1_eps
    if eps == 0.0:
        return np.maximum(0.0, a - k * delta)
    above = b < c
    if above.any():
        d = delta / em1  # the upper branch's repelling fixed point is b = -d
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            up = np.where(above, np.minimum(k, np.ceil(np.log((c + d) / (b + d)) / eps)), 0.0)
            t = up * eps
            grown = np.exp(t) * b + delta * np.expm1(t) / em1
        # b = -d is a fixed point: pure DP keeps f(1) = 1 for every k
        a = np.where(up > 0.0, 1.0 - np.where(b + d > 0.0, grown, b), a)
        k = k - up
    t = -k * eps
    return np.maximum(0.0, np.exp(t) * a + delta * np.expm1(t) / em1)


def breakpoints(f: TradeoffSpec) -> tuple[float, ...]:
    """Knots in (0, 1) where a piecewise-linear f changes slope, sorted; ()
    for a Gaussian curve.

    For f = g^(p), g an (epsilon, delta) curve, alpha is a knot of f when
    g^(j)(alpha) is a knot of g for some j < p. g increases strictly where it
    is positive, so a knot y > 0 has one preimage, the smaller of its
    preimages under g's two sloped branches, and none above g(1) = 1 - delta.
    f is linear between consecutive knots. Raises ValueError past
    ``_MAX_KNOTS`` knots.
    """
    curve = _curve(f)
    if curve.gaussian:
        return ()
    delta, e = curve.delta, math.exp(curve.epsilon)  # finite: _curve refuses an overflow
    # where g leaves 0 on each sloped branch, and where the branches meet;
    # at epsilon = 0 both branches are alpha - delta
    base = [delta] if curve.epsilon == 0.0 else [delta, 1.0 - (1.0 - delta) / e, 1.0 - curve.kink]
    frontier = [y for y in base if 0.0 < y < 1.0]
    knots = set(frontier)
    for _ in range(curve.p - 1):
        preimages = (min(e * y + delta, 1.0 - (1.0 - delta - y) / e) for y in frontier)
        # a preimage that rounds back onto y has reached g's fixed point 1
        frontier = [a for y, a in zip(frontier, preimages) if y < a < 1.0]
        if not frontier:
            break
        knots.update(frontier)
        if len(knots) > _MAX_KNOTS:
            raise ValueError(f"this iterate has more than {_MAX_KNOTS} knots; "
                             "its epsilon and delta are too small for its power")
    return tuple(sorted(knots))


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
    k = _check_integer(k, "k", 1)
    if k == 1:
        return f
    if f.family == GAUSSIAN_DP:
        return gaussian_dp(_finite_product(k, f.mu, "group mu"))
    if f.family == SELF_POWER:
        if f.base.family == GAUSSIAN_DP:
            return gaussian_dp(_finite_product(k * f.power, f.base.mu, "group mu"))
        return self_power(f.base, k * f.power)
    return self_power(f, k)


def tensor_gdp(*mus: float) -> TradeoffSpec:
    """Tradeoff of releasing independent Gaussian-curve mechanisms together:
    G_mu with mu = sqrt(mu1^2 + ... + muk^2)."""
    if any(mu < 0 for mu in mus):
        raise ValueError("mu values must be >= 0")
    return gaussian_dp(math.hypot(*mus))


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
    _check_integer(a, "a", 1)
    if not fs:
        raise ValueError("fs must be non-empty")
    if any(f.family != GAUSSIAN_DP for f in fs):
        raise ValueError("composition_order_check supports the gaussian_dp family only")
    lhs = compose_self(tensor_gdp(*(f.mu for f in fs)), a)
    rhs = tensor_gdp(*(compose_self(f, a).mu for f in fs))
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
    k = _check_integer(k, "k", 1)
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
        object.__setattr__(self, "adjacency_radius",
                           _check_integer(self.adjacency_radius, "adjacency_radius", 0))

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
    and both curves' breakpoints. Between consecutive points of that union
    two piecewise-linear curves (``exact_dp`` and its iterates) are both
    linear, so for them the comparison is exact. A piecewise-linear curve
    is also compared with a Gaussian G_mu where G_mu's slope equals each of
    its pieces' slopes, which makes that comparison exact too; two Gaussian
    curves are compared on the grid. Returns one of
    ``g1_stronger``, ``g2_stronger``, ``equal``, ``incomparable``.
    """
    pairs1 = _canonical_pairs(ind1)
    pairs2 = _canonical_pairs(ind2)
    f1, f2 = g1.tradeoff, g2.tradeoff
    knots1, knots2 = breakpoints(f1), breakpoints(f2)
    points = {*DEFAULT_COMPARISON_GRID, *knots1, *knots2}
    c1, c2 = _curve(f1), _curve(f2)
    if c1.gaussian != c2.gaussian and (c1.mu or c2.mu):
        # on a piece of slope s, the piecewise-linear curve minus the convex G_mu
        # is concave, so it rises furthest at an end or where G_mu's slope
        # exp(mu Phi^-1(alpha) - mu^2 / 2) is s (mu the iterate's p mu)
        pl, knots, mu = (f2, knots2, c1.p * c1.mu) if c1.gaussian else (f1, knots1, c2.p * c2.mu)
        ends = np.array([0.0, *knots, 1.0])
        slopes = np.diff(eval_tradeoff(pl, ends)) / np.diff(ends)
        points.update(ndtr((np.log(slopes[slopes > 0.0]) + 0.5 * mu * mu) / mu))
    arr = np.asarray(sorted(points), dtype=float)
    g2_below_g1 = pairs2 <= pairs1 and _pointwise_le(f2, f1, arr)
    g1_below_g2 = pairs1 <= pairs2 and _pointwise_le(f1, f2, arr)
    if g2_below_g1 and g1_below_g2:
        return "equal"
    if g2_below_g1:
        return "g1_stronger"
    if g1_below_g2:
        return "g2_stronger"
    return "incomparable"
