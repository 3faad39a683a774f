"""Command-line dispatch: exit codes, output formats, seeding."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import semidp
from semidp.cli import cli_dispatch
from semidp.inference import SUPPORT_CAP


def _refuse_constant(name):
    raise AssertionError(f"stdout holds {name}, which is not JSON")


def run(capsys, argv):
    """Dispatch argv; JSON on stdout must parse strictly (no NaN or Infinity)."""
    code = cli_dispatch(argv)
    captured = capsys.readouterr()
    if captured.out[:1] in ("{", "["):
        json.loads(captured.out, parse_constant=_refuse_constant)
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

    code, out, _ = run(capsys, ["account", "--gdp", "1.5", "--group", "3"])
    assert code == 0
    assert json.loads(out)["gdp"] == {"mu": 1.5, "group_size": 3, "group_mu": 4.5}

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
        ["account", "--gdp", "nan", "--eps", "1"],
        ["account", "--gdp", "1", "--eps", "nan"],
        ["account", "--gdp", "inf"],
        ["account", "--gdp", "1", "--eps", "inf"],
        ["account", "--zcdp", "nan", "--delta", "1e-5"],
        ["account", "--zcdp", "nan"],
        ["account", "--zcdp", "inf", "--group", "2"],
        # groups whose k * mu or k^2 * rho is beyond the float range
        ["account", "--gdp", "1", "--group", str(10**400)],
        ["account", "--gdp", "1e300", "--group", str(10**10)],
        ["account", "--zcdp", "1", "--group", str(10**200)],
        ["account", "--zcdp", "2", "--group", str(10**154)],
    ],
)
def test_non_finite_privacy_parameters_exit_1(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cnd", "--f", "gdp:1", "--cdf", "nan"], "finite"),
        (["cnd", "--f", "gdp:1", "--cdf", "inf"], "finite"),
        (["cnd", "--f", "gdp:1", "--cdf=-inf"], "finite"),
        (["cnd", "--f", "gdp:1", "--quantile", "nan"], "(0, 1)"),
        (["account", "--gdp", "1", "--group", "-2"], "k must be >= 1"),
        (["account", "--gdp", "1", "--group", "0", "--eps", "1"], "k must be >= 1"),
        (["account", "--zcdp", "1", "--group", "0"], "k must be >= 1"),
        (["mech", "--query", "5,3,2,4", "--kind", "knorm", "--eps", "1", "--r", "0", "--c", "0"], ">= 2"),
        (["mech", "--query", "5,3,2,4", "--kind", "knorm", "--eps", "1", "--r", "0"], ">= 2"),
        (["mech", "--query", "5,3,2,4", "--kind", "gaussian", "--mu", "1", "--c", "0"], ">= 2"),
        (["mech", "--query", "5,3,2,4", "--kind", "gaussian", "--mu", "1", "--r", "1", "--c", "4"], ">= 2"),
    ],
)
def test_out_of_range_points_and_shapes_exit_1(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("semidp: error:") and message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cnd", "--f", "eps:800", "--quantile", "0.3"], "e^epsilon overflows"),
        (["test", "--table", "5,3,2,4", "--f", "eps:800"], "e^epsilon overflows"),
        (["cnd", "--f", "gdp:80", "--cdf", "0.3"], "underflows to 0"),
        (["cnd", "--f", "gdp:1", "--sample", "10000000000000", "--seed", "1"], "count must lie in"),
        (["cnd", "--f", "gdp:1", "--sample", "1000001", "--seed", "1"], "count must lie in"),
        (["test", "--table", f"0,{SUPPORT_CAP},{SUPPORT_CAP},0", "--f", "gdp:1"], "more than SUPPORT_CAP"),
    ],
)
def test_curves_and_sample_counts_beyond_the_float_range_exit_1(capsys, argv, message):
    # e^eps past the float range, c below the smallest float, and a sample
    # count or a test's support past its cap are refused by name, before any
    # draw or support is allocated
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("semidp: error:") and message in err


@pytest.mark.parametrize("spec", ["eps:10.25", "eps:40", "eps:700", "gdp:16.75", "gdp:37"])
def test_weak_privacy_curves_build_and_test(capsys, spec):
    # their fixed point is checked from c itself, so the steep upper branch
    # and the far normal tail no longer magnify the rounding of 1 - c
    code, out, err = run(capsys, ["cnd", "--f", spec, "--cdf", "0.2", "--quantile", "0.3"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert 0.0 < payload["c"] < 1e-4 and 0.0 < payload["cdf"] < 1.0
    code, out, err = run(capsys, ["test", "--table", "5,3,2,4", "--f", spec, "--seed", "1"])
    assert code == 0 and err == ""


def test_cli_import_leaves_slow_scipy_subpackages_unloaded():
    """Neither ``import semidp`` nor ``import semidp.cli`` loads any part of
    scipy, and the CLI import leaves the facet tables unread. A 3x3 knorm
    draw and a 4x4 ``gauge_norm`` read the tables and still load no scipy."""
    code = ("import contextlib, io, sys\n"
            "opened = []\n"
            "sys.addaudithook(lambda event, args: opened.append(args[0])\n"
            "                 if event == 'open' and str(args[0]).endswith('facets.npz') else None)\n"
            "def scipy_modules(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "import semidp; print(scipy_modules())\n"
            "import semidp.cli; print(scipy_modules(), len(opened))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = semidp.cli.cli_dispatch(['mech', '--query', '1,2,3,4,5,6,7,8,9', '--kind', 'knorm',\n"
            "                                    '--eps', '0.5', '--r', '3', '--c', '3', '--seed', '1'])\n"
            "print(scipy_modules(), code, len(opened))\n"
            "from semidp.sensitivity import contingency_s_semi, gauge_norm, hull_geometry\n"
            "space = contingency_s_semi(4, 4)\n"
            "gauge = gauge_norm(space, space.array[-1])\n"
            "print(scipy_modules(), hull_geometry(space).facets is not None, len(opened), round(gauge, 9))")
    env = {**os.environ, "PYTHONPATH": str(Path(semidp.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n[] 0\n[] 0 1\n[] True 2 1.0\n"
