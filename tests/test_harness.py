"""Experiment harness rows, census report, and CSV determinism."""

import json
import math

import numpy as np
import pytest

from semidp.harness import (
    CSV_HEADER,
    CensusBudget,
    ExperimentConfig,
    census_report,
    rows_to_csv,
    run_gaussian_experiment,
    run_knorm_experiment,
)
from semidp.rng import RngSeed


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(k=1, model="I")
    with pytest.raises(ValueError):
        ExperimentConfig(k=2, model="nope")
    with pytest.raises(ValueError):
        run_gaussian_experiment(ExperimentConfig(k=2, model="I", mu=None))
    with pytest.raises(ValueError):
        run_knorm_experiment(ExperimentConfig(k=2, model="I", eps=None))


def test_gaussian_experiment_rows_and_ordering():
    cfg = ExperimentConfig(k=2, model="I", mu=1.0, replicates=30, seed=RngSeed(7))
    rows = run_gaussian_experiment(cfg)
    assert [r["method"] for r in rows] == ["semi", "naive"]
    assert all(r["k"] == 2 and r["model"] == "I" and r["param"] == 1.0 for r in rows)
    semi, naive = rows
    assert semi["mean_l2"] < naive["mean_l2"]
    assert semi["se"] > 0 and naive["se"] > 0


def test_gaussian_experiment_vanishing_noise_at_large_mu():
    cfg = ExperimentConfig(k=2, model="II", mu=1e3, replicates=30, seed=RngSeed(8))
    for row in run_gaussian_experiment(cfg):
        assert row["mean_l2"] < 0.05


def test_gaussian_semi_mean_matches_half_normal_identity():
    # k = 2 has a one-dimensional span: mean noise length is (2/mu) E|N(0,1)|
    cfg = ExperimentConfig(k=2, model="I", mu=1.0, replicates=10_000, seed=RngSeed(9))
    semi = run_gaussian_experiment(cfg)[0]
    expected = 2.0 * math.sqrt(2.0 / math.pi)
    assert abs(semi["mean_l2"] - expected) < 5 * semi["se"]


def test_knorm_experiment_rows_and_ordering():
    cfg = ExperimentConfig(k=2, model="I", eps=0.5, replicates=30, seed=RngSeed(10))
    rows = run_knorm_experiment(cfg)
    assert [r["method"] for r in rows] == ["knorm", "naive_l1", "naive_l2", "naive_linf"]
    best = rows[0]["mean_l2"]
    assert all(best < r["mean_l2"] for r in rows[1:])


def test_knorm_mean_cost_matches_radial_integral():
    # k = 2: noise = r * V with V uniform on the generator segment, so
    # ||noise||_2 = 2 * gauge and E||noise||_2 = 2 integral g eps e^(-eps g) dg
    # = 2 / eps (evaluated numerically below rather than trusted)
    eps = 0.5
    g = np.linspace(0.0, 80.0 / eps, 400_001)
    oracle = 2.0 * np.trapezoid(g * eps * np.exp(-eps * g), g)
    assert oracle == pytest.approx(2.0 / eps, rel=1e-6)
    cfg = ExperimentConfig(k=2, model="I", eps=eps, replicates=4000, seed=RngSeed(12))
    knorm = run_knorm_experiment(cfg)[0]
    assert abs(knorm["mean_l2"] - oracle) < 5 * knorm["se"]


def test_knorm_costs_decrease_with_epsilon():
    seeds = RngSeed(11)
    costs = {}
    for eps in (0.1, 1.0):
        cfg = ExperimentConfig(k=2, model="I", eps=eps, replicates=30, seed=seeds)
        costs[eps] = {r["method"]: r["mean_l2"] for r in run_knorm_experiment(cfg)}
    for method in costs[0.1]:
        assert costs[1.0][method] < costs[0.1][method]


def test_csv_output_format_and_determinism():
    cfg = ExperimentConfig(k=2, model="I", eps=0.5, replicates=30, seed=RngSeed(7))
    text1 = rows_to_csv(run_knorm_experiment(cfg))
    text2 = rows_to_csv(run_knorm_experiment(cfg))
    assert text1 == text2
    lines = text1.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    # different seed, different bytes
    cfg2 = ExperimentConfig(k=2, model="I", eps=0.5, replicates=30, seed=RngSeed(8))
    assert rows_to_csv(run_knorm_experiment(cfg2)) != text1


def test_census_budget_validation():
    with pytest.raises(ValueError):
        CensusBudget(total_rho=1.0, components=(("a", 0.6), ("b", 0.6)), delta=1e-10)
    with pytest.raises(ValueError):
        CensusBudget(total_rho=1.0, components=(("a", 0.5),), delta=0.0)


def test_census_report_reference_numbers():
    budget = CensusBudget(
        total_rho=2.63,
        components=(("persons", 2.56), ("housing_units", 0.07)),
        delta=1e-10,
    )
    report = census_report(budget)
    persons = report["components"][0]
    assert persons["semi_adjacent_parameter"] == 2
    assert persons["advertised"]["epsilon"] == pytest.approx(17.91528, abs=5e-5)
    assert persons["effective"]["params"]["rho"] == pytest.approx(10.24, abs=1e-12)
    assert persons["effective"]["epsilon"] == pytest.approx(40.95057, abs=5e-5)
    for comp in report["components"]:
        assert comp["effective"]["epsilon"] >= comp["advertised"]["epsilon"]
        assert comp["advertised"]["adjacency_radius"] == 1
        assert comp["effective"]["adjacency_radius"] == 2


def test_census_report_zero_component():
    budget = CensusBudget(total_rho=1.0, components=(("empty", 0.0),), delta=1e-10)
    comp = census_report(budget)["components"][0]
    assert comp["advertised"]["epsilon"] == 0.0
    assert comp["effective"]["epsilon"] == 0.0


def test_census_report_is_json_serializable():
    budget = CensusBudget(total_rho=0.5, components=(("x", 0.5),), delta=1e-6)
    text = json.dumps(census_report(budget), sort_keys=True)
    assert '"invariants"' in text
