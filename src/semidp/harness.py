"""Experiment harness and census-style accounting reports.

The experiments average the L2 noise cost of each mechanism on a k x k
table over seeded replicates; the cost depends on the noise only, so no
table is drawn and the model only labels the rows. Output is plot-ready
CSV. The census report converts advertised concentrated-DP budgets into
the effective guarantee once a total-count invariant widens the adjacency
radius to 2.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dataspace import _check_integer, semi_adjacent_bound
from .mechanisms import NaiveGroupMechanism, gaussian_noise_samples, knorm_noise_samples
from .rng import NoiseRng, RngSeed
from .sensitivity import _check_table_size, contingency_s_semi, table_geometry
from .tradeoff import zcdp_group, zcdp_to_approx_dp

CSV_HEADER = "k,model,method,param,mean_l2,se"

#: Worst-case replacement radius for one-way margins of a two-feature table.
TABLE_GROUP_SIZE = semi_adjacent_bound(2)

MODELS = ("I", "II")

#: The exact statistics the census report lists as released without noise.
CENSUS_INVARIANTS = (
    "total population per state",
    "housing units per block",
    "occupied group quarters per block",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment cell: table size, model, privacy parameter, replicates."""

    k: int
    model: str
    mu: float | None = None
    eps: float | None = None
    replicates: int = 30
    seed: RngSeed = RngSeed(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _check_integer(self.k, "k", 2))
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        object.__setattr__(self, "replicates", _check_integer(self.replicates, "replicates", 1))
        for name in ("mu", "eps"):
            value = getattr(self, name)
            if value is not None and not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")


def _row(cfg: ExperimentConfig, method: str, param: float, costs: np.ndarray) -> dict:
    mean = float(np.mean(costs))
    se = float(np.std(costs, ddof=1) / math.sqrt(len(costs))) if len(costs) > 1 else 0.0
    return {
        "k": cfg.k,
        "model": cfg.model,
        "method": method,
        "param": param,
        "mean_l2": mean,
        "se": se,
    }


def run_gaussian_experiment(cfg: ExperimentConfig) -> list[dict]:
    """Projected Gaussian on the margin-preserving space vs the naive
    group-privacy Gaussian at mu/3 with full-space single-move sensitivity.

    The projected Gaussian reads the space's closed form (``table_geometry``),
    not its vectors. Tables whose space is past ``TABLE_SPACE_CAP`` are still
    refused, since the draws grow as replicates x k^2.
    """
    if cfg.mu is None or cfg.mu <= 0:
        raise ValueError("gaussian experiment requires a positive mu")
    geometry = table_geometry("semi", cfg.k, cfg.k)
    _check_table_size(geometry)
    reps = cfg.replicates
    semi_rng = NoiseRng(cfg.seed.with_stream(cfg.seed.stream + 1))
    semi_noise = gaussian_noise_samples(geometry, cfg.mu, semi_rng, reps)
    naive = NaiveGroupMechanism("gaussian", TABLE_GROUP_SIZE, cfg.mu)
    naive_rng = NoiseRng(cfg.seed.with_stream(cfg.seed.stream + 2))
    naive_noise = naive.noise_samples(cfg.k * cfg.k, naive_rng, reps)
    return [
        _row(cfg, "semi", cfg.mu, np.linalg.norm(semi_noise, axis=1)),
        _row(cfg, "naive", cfg.mu, np.linalg.norm(naive_noise, axis=1)),
    ]


def run_knorm_experiment(cfg: ExperimentConfig) -> list[dict]:
    """Optimal hull mechanism at eps vs naive l1/l2/linf baselines at eps/3."""
    if cfg.eps is None or cfg.eps <= 0:
        raise ValueError("knorm experiment requires a positive eps")
    space = contingency_s_semi(cfg.k, cfg.k)
    reps = cfg.replicates
    d = cfg.k * cfg.k
    rows = []
    knorm_rng = NoiseRng(cfg.seed.with_stream(cfg.seed.stream + 1))
    knorm_noise, _, _, _ = knorm_noise_samples(space, cfg.eps, knorm_rng, reps)
    rows.append(_row(cfg, "knorm", cfg.eps, np.linalg.norm(knorm_noise, axis=1)))
    for offset, kind in enumerate(("l1", "l2", "linf"), start=2):
        naive = NaiveGroupMechanism(kind, TABLE_GROUP_SIZE, cfg.eps)
        rng = NoiseRng(cfg.seed.with_stream(cfg.seed.stream + offset))
        noise = naive.noise_samples(d, rng, reps)
        rows.append(_row(cfg, f"naive_{kind}", cfg.eps, np.linalg.norm(noise, axis=1)))
    return rows


def rows_to_csv(rows: list[dict]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r['k']},{r['model']},{r['method']},{r['param']:.10g},"
            f"{r['mean_l2']:.10g},{r['se']:.10g}"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CensusBudget:
    """Concentrated-DP budget split across product components."""

    total_rho: float
    components: tuple[tuple[str, float], ...]
    delta: float

    def __post_init__(self) -> None:
        if not 0 <= self.total_rho < math.inf:
            raise ValueError("total_rho must be finite and >= 0")
        if not all(0 <= rho < math.inf for _, rho in self.components):
            raise ValueError("component rho values must be finite and >= 0")
        if sum(rho for _, rho in self.components) > self.total_rho + 1e-12:
            raise ValueError("component budgets exceed the total")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")


def census_report(budget: CensusBudget) -> dict:
    """Advertised vs effective guarantees for each budget component.

    A total-count invariant over a single feature forces a replacement
    radius of 2, which squares into the concentrated-DP parameter; both the
    advertised and effective budgets are also converted to (epsilon, delta).
    """
    a_t = semi_adjacent_bound(1)

    def guarantee(dataspace: str, radius: int, rho: float) -> dict:
        return {
            "dataspace": dataspace,
            "adjacency_radius": radius,
            "family": "zcdp",
            "params": {"rho": rho},
            "epsilon": zcdp_to_approx_dp(rho, budget.delta) if rho > 0 else 0.0,
        }

    return {
        "total_rho": budget.total_rho,
        "delta": budget.delta,
        "invariants": list(CENSUS_INVARIANTS),
        "components": [
            {
                "label": label,
                "rho": rho,
                "advertised": guarantee("full", 1, rho),
                "semi_adjacent_parameter": a_t,
                "effective": guarantee("invariant_conforming", a_t, zcdp_group(rho, a_t)),
            }
            for label, rho in budget.components
        ],
    }
