"""Command-line dispatch: exit codes, output formats, seeding."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import semidp
from semidp.cli import cli_dispatch


def run(capsys, argv):
    code = cli_dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_unknown_subcommand_exits_2(capsys):
    code, _, _ = run(capsys, ["frobnicate"])
    assert code == 2


def test_unknown_flag_exits_2(capsys):
    code, _, _ = run(capsys, ["census", "--rho-person", "1", "--bogus", "2"])
    assert code == 2


CENSUS = ["census", "--rho-person", "2.56", "--rho-housing", "0.07", "--delta", "1e-10"]
ACCOUNT = ["account", "--zcdp", "2.56", "--delta", "1e-10"]


@pytest.mark.parametrize(
    "argv",
    [
        ["mech", "--query", "5,3,2,4", "--kind", "l1", "--eps", "0.5", "--format", "csv"],
        ["cnd", "--f", "gdp:1", "--cdf", "0", "--format", "csv"],
        ["test", "--table", "5,3,2,4", "--f", "gdp:1", "--format", "csv"],
        [*CENSUS, "--format", "csv"],
        [*ACCOUNT, "--format", "csv"],
        ["sens", "--r", "2", "--c", "2", "--seed", "1"],
        [*CENSUS, "--seed", "1"],
        [*ACCOUNT, "--seed", "1"],
        ["mech", "--query", "5,3,2,4", "--kind", "gaussian", "--mu", "1", "--eps", "1"],
        ["mech", "--query", "5,3,2,4", "--kind", "gaussian", "--mu", "1", "--group-size", "3"],
        ["mech", "--query", "5,3,2,4", "--kind", "knorm", "--eps", "1", "--mu", "1"],
        ["mech", "--query", "5,3,2,4", "--kind", "l1", "--eps", "1", "--r", "2"],
        ["mech", "--query", "5,3,2,4", "--kind", "l2", "--eps", "1", "--c", "2"],
        ["mech", "--query", "5,3,2,4", "--kind", "linf", "--eps", "1", "--group-size", "2"],
        ["mech", "--query", "5,3,2,4", "--kind", "naive-gaussian", "--mu", "1", "--eps", "1"],
        ["mech", "--query", "5,3,2,4", "--kind", "naive-l1", "--eps", "1", "--mu", "1"],
        ["mech", "--query", "5,3,2,4", "--kind", "naive-l2", "--eps", "1", "--r", "2", "--c", "2"],
        ["experiment", "gaussian", "--mu", "1", "--eps", "1"],
        ["experiment", "knorm", "--eps", "1", "--mu", "1"],
        ["cnd", "--f", "gdp:1", "--cdf", "0", "--seed", "1"],
    ],
)
def test_flags_a_subcommand_ignores_exit_2(capsys, argv):
    code, out, _ = run(capsys, argv)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mech", "--query", "5,3,2,4", "--kind", "gaussian"], "--mu is required"),
        (["mech", "--query", "5,3,2,4", "--kind", "knorm"], "--eps is required"),
        (["mech", "--query", "5,3,2,4", "--kind", "l1"], "--eps is required"),
        (["mech", "--query", "5,3,2,4", "--kind", "naive-l2"], "naive mechanisms need"),
    ],
)
def test_missing_flags_exit_1(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert message in err


@pytest.mark.parametrize("spec", ["eps:1,0.01,7", "eps:1,,", "gdp:1,2", "gdp:"])
def test_malformed_tradeoff_spec_exits_1(capsys, spec):
    code, out, err = run(capsys, ["cnd", "--f", spec, "--cdf", "0.3"])
    assert (code, out) == (1, "")
    assert "semidp: error:" in err


def test_absent_seed_and_group_size_keep_their_defaults(capsys):
    sample = ["cnd", "--f", "gdp:1", "--sample", "3"]
    assert run(capsys, sample) == run(capsys, [*sample, "--seed", "0"])
    naive = ["mech", "--query", "5,3,2,4", "--kind", "naive-l1", "--eps", "0.3"]
    assert run(capsys, naive) == run(capsys, [*naive, "--group-size", "3", "--seed", "0"])


def test_computation_error_exits_1(capsys):
    code, _, err = run(capsys, ["cnd", "--f", "eps:0,0"])  # identity curve
    assert code == 1
    assert "error" in err


def test_test_subcommand_json(capsys):
    code, out, _ = run(
        capsys, ["test", "--table", "5,3,2,4", "--f", "gdp:1", "--alpha", "0.05", "--seed", "1"]
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"phi_star", "m", "U", "p_value", "alpha", "f_family", "params"}
    assert payload["f_family"] == "gaussian_dp"
    assert 0.0 <= payload["phi_star"] <= 1.0


def test_census_subcommand_contains_reference_epsilon(capsys):
    code, out, _ = run(
        capsys,
        ["census", "--rho-person", "2.56", "--rho-housing", "0.07", "--delta", "1e-10"],
    )
    assert code == 0
    persons = json.loads(out)["components"][0]
    assert persons["advertised"]["epsilon"] == pytest.approx(17.91528, abs=5e-5)
    assert persons["effective"]["epsilon"] == pytest.approx(40.95057, abs=5e-5)


def test_experiment_csv_deterministic(capsys):
    argv = [
        "experiment", "knorm", "--k", "2", "--eps", "0.5", "--model", "I",
        "--replicates", "30", "--seed", "7", "--format", "csv",
    ]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "k,model,method,param,mean_l2,se"


def test_experiment_gaussian_json(capsys):
    code, out, _ = run(
        capsys,
        ["experiment", "gaussian", "--k", "2", "--mu", "1", "--model", "II",
         "--replicates", "5", "--seed", "3", "--format", "json"],
    )
    assert code == 0
    rows = json.loads(out)
    assert [r["method"] for r in rows] == ["semi", "naive"]


def test_env_seed_override(capsys, monkeypatch):
    argv = ["cnd", "--f", "gdp:1", "--sample", "3", "--seed", "1"]
    _, baseline, _ = run(capsys, argv)
    monkeypatch.setenv("SEMIDP_SEED", "99")
    _, overridden, _ = run(capsys, argv)
    assert baseline != overridden
    monkeypatch.setenv("SEMIDP_SEED", "1")
    _, same_as_baseline, _ = run(capsys, argv)
    assert same_as_baseline == baseline


def test_sens_subcommand(capsys):
    code, out, _ = run(capsys, ["sens", "--r", "2", "--c", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["delta_1"] == 4.0
    assert payload["delta_2"] == 2.0
    assert payload["delta_inf"] == 1.0
    assert payload["span_dim"] == 1

    code, out, _ = run(capsys, ["sens", "--r", "2", "--c", "2", "--format", "csv"])
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_mech_subcommand(capsys):
    code, out, _ = run(
        capsys,
        ["mech", "--query", "5,3,2,4", "--kind", "gaussian", "--mu", "1", "--seed", "4"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["mechanism"] == "gaussian_semi"

    code, out, _ = run(
        capsys,
        ["mech", "--query", "5,3,2,4", "--kind", "naive-l1", "--eps", "0.3", "--seed", "4"],
    )
    assert code == 0
    assert json.loads(out)["meta"]["scaled_param"] == pytest.approx(0.1)


def test_cnd_subcommand_values(capsys):
    code, out, _ = run(capsys, ["cnd", "--f", "gdp:1", "--cdf", "0", "--quantile", "0.5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["cdf"] == pytest.approx(0.5)
    assert payload["quantile"] == pytest.approx(0.0, abs=1e-10)


def test_account_subcommand(capsys):
    code, out, _ = run(
        capsys, ["account", "--zcdp", "2.56", "--delta", "1e-10", "--group", "2"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["zcdp"]["group_rho"] == pytest.approx(10.24)
    assert payload["zcdp"]["epsilon"] == pytest.approx(40.95057, abs=5e-5)

    code, _, _ = run(capsys, ["account"])
    assert code == 1


def test_out_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run(
        capsys,
        ["experiment", "gaussian", "--k", "2", "--mu", "1", "--replicates", "3",
         "--seed", "2", "--format", "csv", "--out", str(target)],
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("k,model,method")


def test_config_file_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 3, "replicates": 4}))
    code, out, _ = run(
        capsys,
        ["experiment", "gaussian", "--k", "2", "--mu", "1", "--seed", "5",
         "--config", str(cfg), "--format", "json"],
    )
    assert code == 0
    rows = json.loads(out)
    assert all(r["k"] == 3 for r in rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["mech", "--query", "5,3,2,4", "--kind", "knorm", "--eps", "inf"],
        ["mech", "--query", "5,3,2,4", "--kind", "gaussian", "--mu", "nan"],
        ["mech", "--query", "5,3,2,4", "--kind", "l2", "--eps", "inf"],
        ["mech", "--query", "5,3,2,4", "--kind", "naive-linf", "--eps", "inf"],
        ["experiment", "knorm", "--k", "2", "--eps", "inf", "--replicates", "3"],
        ["experiment", "gaussian", "--k", "2", "--mu", "nan", "--replicates", "3"],
        ["cnd", "--f", "gdp:inf", "--cdf", "0", "--quantile", "0.5"],
        ["cnd", "--f", "eps:nan"],
        ["test", "--table", "5,3,2,4", "--f", "eps:inf"],
        ["census", "--rho-person", "nan", "--rho-housing", "0.07", "--delta", "1e-10"],
        ["census", "--rho-person", "2.56", "--rho-housing", "inf", "--delta", "1e-10"],
    ],
)
def test_non_finite_privacy_parameters_exit_1(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert "finite" in err


def test_cli_import_leaves_slow_scipy_subpackages_unloaded():
    """Neither ``import semidp`` nor ``import semidp.cli`` loads any part of scipy."""
    code = ("import sys\n"
            "def scipy_modules(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "import semidp; print(scipy_modules())\n"
            "import semidp.cli; print(scipy_modules())")
    env = {**os.environ, "PYTHONPATH": str(Path(semidp.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n[]\n"
