"""Command-line dispatch: exit codes, output formats, seeding."""

import argparse
import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import semidp
from semidp import cli, harness
from semidp.cli import cli_dispatch
from semidp.inference import SUPPORT_CAP
from semidp.mechanisms import NaiveGroupMechanism, gaussian_noise_samples
from semidp.rng import NoiseRng, RngSeed


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
        # query cells that no noise could hide
        ["mech", "--query", "1,2,nan,4", "--kind", "knorm", "--eps", "1"],
        ["mech", "--query", "1,2,3,1e400", "--kind", "gaussian", "--mu", "1"],
        ["mech", "--query", "inf,2,3,4", "--kind", "l1", "--eps", "1"],
        ["mech", "--query", "1,-inf,3,4", "--kind", "naive-gaussian", "--mu", "1"],
        ["mech", "--query", "1,nan,3,4", "--kind", "naive-linf", "--eps", "1"],
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


_CELLS_15X16 = ",".join(["1"] * 240)


def _refuse_to_build(*args):
    raise AssertionError("a table space was built")


@pytest.mark.parametrize(
    "argv",
    [
        ["sens", "--r", "15", "--c", "16", "--format", "csv"],
        ["sens", "--r", "4", "--c", "43", "--space", "dp", "--format", "csv"],
    ["experiment", "knorm", "--k", "16", "--eps", "1"],
        ["mech", "--query", _CELLS_15X16, "--kind", "knorm", "--eps", "1", "--r", "15"],
    ],
)
def test_table_spaces_past_the_cap_exit_1(capsys, monkeypatch, argv):
    # the CSV export reads the vectors and stops at the cap; the hull sampler
    # reads the table's record, and refuses a hull it cannot draw by name
    monkeypatch.setattr(semidp.sensitivity, "_table_space", _refuse_to_build)
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    if argv[0] == "sens":
        assert err.startswith("semidp: error:") and "more than TABLE_SPACE_CAP = 5,000,000" in err
    else:
        shape = "16x16" if argv[0] == "experiment" else "15x16"
        assert err.startswith(f"semidp: error: the hull sampler refuses contingency_margins({shape}): ")


def test_gaussian_experiment_past_the_cap_answers_without_the_array(capsys, monkeypatch):
    # the projected Gaussian reads the 16 x 16 table's closed form; its draws
    # are the double-centred normal draws of the semi stream
    monkeypatch.setattr(semidp.sensitivity, "_table_space", _refuse_to_build)
    code, out, err = run(capsys, ["experiment", "gaussian", "--k", "16", "--mu", "1",
                                  "--replicates", "2", "--seed", "5"])
    assert (code, err) == (0, "")
    seed = RngSeed(5)
    t = np.asarray(NoiseRng(seed.with_stream(1)).normal(scale=2.0, size=(2, 256))).reshape(2, 16, 16)
    t = t - t.mean(axis=2, keepdims=True)
    semi = np.linalg.norm((t - t.mean(axis=1, keepdims=True)).reshape(2, 256), axis=1)
    naive = NaiveGroupMechanism("gaussian", harness.TABLE_GROUP_SIZE, 1.0).noise_samples(
        256, NoiseRng(seed.with_stream(2)), 2)
    rows = json.loads(out)
    assert [(row["k"], row["method"]) for row in rows] == [(16, "semi"), (16, "naive")]
    assert rows[0]["mean_l2"] == pytest.approx(semi.mean(), rel=1e-12)
    assert rows[1]["mean_l2"] == pytest.approx(np.linalg.norm(naive, axis=1).mean(), rel=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ["sens", "--r", "15", "--c", "16"],
        ["sens", "--r", "4", "--c", "43", "--space", "dp"],
        ["mech", "--query", _CELLS_15X16, "--kind", "gaussian", "--mu", "1", "--r", "15"],
    ],
)
def test_table_spaces_past_the_cap_are_answered_without_the_array(capsys, monkeypatch, argv):
    monkeypatch.setattr(semidp.sensitivity, "_table_space", _refuse_to_build)
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    payload = json.loads(out)
    if argv[0] == "sens":
        r, c = int(argv[2]), int(argv[4])
        d = r * c
        assert payload["num_vectors"] == (d * (d - 1) + 1 if "dp" in argv else d * (r - 1) * (c - 1) // 2 + 1)
    else:
        table = np.array([float(v) for v in payload["noise"]]).reshape(15, 16)
        assert np.abs(table.sum(axis=0)).max() < 1e-12 and np.abs(table.sum(axis=1)).max() < 1e-12
        assert payload["meta"]["span_dim"] == 14 * 15


def _built_space_outputs(kind, r, c, seed):
    """The stdout of ``mech --kind gaussian``, ``experiment gaussian`` (when
    r == c) and ``sens`` JSON, each computed from the built table space."""
    space = (semidp.contingency_s_semi if kind == "semi" else semidp.contingency_s_dp)(r, c)
    sens = {"provenance": space.provenance, "ambient_dim": space.ambient_dim,
            "num_vectors": len(space.array), "span_dim": semidp.span_basis(space).s,
            "delta_1": semidp.lp_sensitivity(space, 1), "delta_2": semidp.lp_sensitivity(space, 2),
            "delta_inf": semidp.lp_sensitivity(space, float("inf"))}
    outputs = {("sens", "--r", str(r), "--c", str(c), "--space", kind): json.dumps(sens, sort_keys=True)}
    if kind == "semi":
        query = np.arange(r * c, dtype=float)
        argv = ("mech", "--query", ",".join(map(repr, query.tolist())), "--kind", "gaussian",
                "--mu", "0.7", "--r", str(r), "--c", str(c), "--seed", str(seed))
        outputs[argv] = semidp.gaussian_semi(query, space, 0.7, RngSeed(seed)).to_json()
    if kind == "semi" and r == c:
        cfg = harness.ExperimentConfig(k=r, model="I", mu=0.7, replicates=7, seed=RngSeed(seed))
        semi = gaussian_noise_samples(space, 0.7, NoiseRng(cfg.seed.with_stream(1)), 7)
        naive = NaiveGroupMechanism("gaussian", harness.TABLE_GROUP_SIZE, 0.7).noise_samples(
            r * c, NoiseRng(cfg.seed.with_stream(2)), 7)
        rows = [harness._row(cfg, "semi", 0.7, np.linalg.norm(semi, axis=1)),
                harness._row(cfg, "naive", 0.7, np.linalg.norm(naive, axis=1))]
        argv = ("experiment", "gaussian", "--k", str(r), "--mu", "0.7", "--replicates", "7",
                "--seed", str(seed))
        outputs[argv] = json.dumps(rows, sort_keys=True)
    return outputs


def test_table_gaussian_and_sens_json_equal_the_built_space_without_building_it(capsys, monkeypatch):
    shapes = [("semi", r, c) for r, c in ((2, 2), (2, 5), (3, 3), (4, 3), (5, 5), (10, 10))]
    shapes += [("dp", r, c) for r, c in ((1, 1), (1, 4), (3, 3), (4, 5))]
    want = {}
    for seed, (kind, r, c) in enumerate(shapes):
        want.update(_built_space_outputs(kind, r, c, seed))
    semidp.sensitivity._table_space.cache_clear()
    monkeypatch.setattr(semidp.sensitivity, "_table_space", _refuse_to_build)
    assert {argv[0] for argv in want} == {"sens", "mech", "experiment"}
    for argv, stdout in want.items():
        assert run(capsys, list(argv)) == (0, stdout + "\n", ""), argv


def _peak_rss_kib(argv):
    """(exit code, stdout, peak RSS in KiB) of one CLI request in a fresh interpreter."""
    code = ("import contextlib, io, resource, semidp.cli\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            f"    code = semidp.cli.cli_dispatch({argv!r})\n"
            "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
            "print(out.getvalue(), end='')")
    env = {**os.environ, "PYTHONPATH": str(Path(semidp.__file__).parents[1])}
    lines = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True).stdout.split("\n", 1)
    exit_code, kib = map(int, lines[0].split())
    return exit_code, lines[1], kib


def test_table_gaussian_and_sens_json_take_memory_independent_of_the_vector_count():
    # the 1000 x 1000 semi space has 5 x 10^11 vectors, and the 100 x 100 one
    # 4.9 x 10^7; each request answers within 10 MB of the peak of sens on 2 x 2
    _, _, base = _peak_rss_kib(["sens", "--r", "2", "--c", "2"])
    code, out, sens_kib = _peak_rss_kib(["sens", "--r", "1000", "--c", "1000"])
    assert code == 0 and json.loads(out)["num_vectors"] == 499_000_500_001
    cells = ",".join(["1"] * 10_000)
    code, out, mech_kib = _peak_rss_kib(["mech", "--query", cells, "--kind", "gaussian", "--mu", "1",
                                         "--r", "100", "--seed", "3"])
    assert code == 0 and len(json.loads(out)["noise"]) == 10_000
    assert sens_kib - base <= 10 * 1024 and mech_kib - base <= 10 * 1024


def test_knorm_on_the_root_polytope_builds_no_space_at_any_shape(capsys, monkeypatch):
    # 2 x c and r x 2 tables draw from the root polytope of their record: the
    # same bytes as from the built space, and past the cap in O(rc) memory
    want = {}
    for r, c in ((2, 5), (7, 2)):
        query = np.arange(r * c, dtype=float)
        argv = ("mech", "--query", ",".join(map(repr, query.tolist())), "--kind", "knorm",
                "--eps", "0.6", "--r", str(r), "--c", str(c), "--seed", "4")
        space = semidp.contingency_s_semi(r, c)
        want[argv] = semidp.knorm_optimal(query, space, 0.6, RngSeed(4)).to_json()
    monkeypatch.setattr(semidp.sensitivity, "_table_space", _refuse_to_build)
    for argv, stdout in want.items():
        assert run(capsys, list(argv)) == (0, stdout + "\n", ""), argv
    _, _, base = _peak_rss_kib(["mech", "--query", "1,2,3,4,5,6", "--kind", "knorm", "--eps", "1",
                                "--r", "2", "--c", "3", "--seed", "1"])
    code, out, kib = _peak_rss_kib(["mech", "--query", ",".join(["1"] * 400), "--kind", "knorm",
                                    "--eps", "1", "--r", "2", "--c", "200", "--seed", "1"])
    assert code == 0 and json.loads(out)["meta"]["span_dim"] == 199
    assert kib - base <= 10 * 1024


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
    draw reads the 3x3 hull's facet and cone tables in one open, a 4x4
    ``gauge_norm`` the 4x4 hull's in one more, and neither loads scipy."""
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
            "from semidp.sensitivity import contingency_s_semi, gauge_norm, hull_cones\n"
            "space = contingency_s_semi(4, 4)\n"
            "gauge = gauge_norm(space, space.array[-1])\n"
            "print(scipy_modules(), hull_cones(space) is not None, len(opened), gauge)")
    env = {**os.environ, "PYTHONPATH": str(Path(semidp.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n[] 0\n[] 0 1\n[] True 2 1.0\n"


def _dispatch_on_one_parser(argv):
    """(exit code, stdout, stderr) of a dispatch that gives the whole argv to
    ``parser.parse_args``, then the unread-flag check and the runner: the
    bytes ``cli_dispatch`` must give, whether it parses argv directly or not."""
    parser, _ = cli._build_parser()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parser.parse_args(argv)
            unread = cli._unread_flag(args)
            if unread is not None:
                parser.error(unread)
            cli._RUNNERS[args.command](args)
            code = 0
        except SystemExit as exc:
            code = int(exc.code or 0)
        except (ValueError, RuntimeError, OSError) as exc:
            print(f"semidp: error: {exc}", file=sys.stderr)
            code = 1
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["-h"],
        ["mech", "--query", "5,3,2,4", "--kind", "knorm", "--eps", "1", "--bogus", "x"],
        ["mech", "--help"],
        ["sens", "--r", "x", "--c", "3"],
        ["mech", "--query", "5,3,2,4", "--kind", "knorm", "--eps", "1", "--mu", "1"],
        ["sens", "--r", "2", "--c", "3", "extra", "--", "more"],
    ["experiment"],
        # argv that the direct parse must leave to argparse, or read as argparse does
        ["mech", "--query", "5,3,2,4", "--kind", "l1", "--eps=0.5"],
        ["cnd", "--f", "gdp:1", "--que", "0.25"],
        ["cnd", "--f", "gdp:1", "--cdf", "-1e-5"],
        ["cnd", "--f", "gdp:1", "--cdf", "-.5"],
        ["test", "--table", "5,3,2,4", "--f", "-"],
        ["test", "--table", "5, 3, 2, 4", "--f", "gdp:1"],
        ["cnd", "--f", "gdp:1", "--cdf", "-1 "],
        ["mech", "--query", "5,3,2,4", "--kind", "l2", "--eps", "1", "--seed", "3", "--seed", "4"],
        ["sens", "--r", "2", "--c"],
        ["mech", "--query", "5,3,2,4", "--kind", "l3", "--eps", "1"],
        ["sens", "--r", "2.5", "--c", "2"],
    ],
)
def test_usage_errors_and_help_match_one_parser_over_the_whole_argv(capsys, argv):
    assert run(capsys, argv) == _dispatch_on_one_parser(argv)


def _readme_examples():
    """The argv of each ``semidp ...`` line in README's "Command line" block."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line.partition("#")[0])[1:] for line in block.splitlines() if line.strip()]


#: ``experiment`` argv the direct parse answers: ``which`` first, then pairs
EXPERIMENT_DIRECT = [
    ["experiment", "knorm"],
    ["experiment", "gaussian", "--mu", "-1", "--k", "3"],
    ["experiment", "gaussian", "--mu", "1", "--mu", "2", "--model", "II"],
]

#: ``experiment`` argv left to argparse: ``which`` placed after an option,
#: missing, repeated, respelled or replaced by an option string, and bad values
EXPERIMENT_DEFERRED = [
    ["experiment"],
    ["experiment", "--k", "2", "knorm"],
    ["experiment", "--k", "2", "knorm", "--eps", "1"],
    ["experiment", "--eps", "1"],
    ["experiment", "knorm", "gaussian", "--eps", "1"],
    ["experiment", "knorm", "--eps", "1", "gaussian"],
    ["experiment", "knorm", "--eps", "1", "knorm"],
    ["experiment", "KNORM", "--eps", "1"],
    ["experiment", "kn", "--eps", "1"],
    ["experiment", "-1", "--eps", "1"],
    ["experiment", "--", "knorm", "--eps", "1"],
    ["experiment", "knorm", "--", "--eps", "1"],
    ["experiment", "gaussian", "--mu", "1", "--model", "III"],
    ["experiment", "knorm", "--eps", "1", "--replicates", "2.5"],
]


def _argv_corpus():
    """Every README example, and each of them with one value replaced, one
    flag respelled, one pair repeated or the last token dropped, and the
    ``experiment`` variants."""
    values = ["-1", "-.5", "-1e-5", "-", "--", "", " 1", "1 ", "2.5", "nan", "inf", "1e400",
              "x", "csv", "dp", "knorm", "gdp:1", "--r", "-h", "--help", "--seed", "-5 "]
    corpus = []
    for argv in _readme_examples():
        corpus += [argv, argv[:-1], [*argv, *argv[1:3]], [*argv, "--out"]]
        for i in range(1, len(argv)):
            if argv[i].startswith("--"):
                corpus += [argv[:i] + [argv[i][:3]] + argv[i + 1:],
                           argv[:i] + [argv[i].upper()] + argv[i + 1:]]
                if i + 1 < len(argv):
                    corpus.append(argv[:i] + [f"{argv[i]}={argv[i + 1]}"] + argv[i + 2:])
            corpus += [argv[:i] + [value] + argv[i + 1:] for value in values]
    return corpus + EXPERIMENT_DIRECT + EXPERIMENT_DEFERRED


def test_direct_parse_defers_or_equals_argparse(capsys):
    parser, _ = cli._build_parser()
    answered = 0
    for argv in _argv_corpus():
        direct = cli._parse_direct(argv)
        try:
            want = vars(parser.parse_args(argv))
        except SystemExit:
            want = None
        # reprs, so that nan equals nan and 1 differs from 1.0
        assert direct is None or repr(vars(direct)) == repr(want), argv
        answered += direct is not None
    capsys.readouterr()
    assert answered > 100
    for argv in _readme_examples():
        assert cli._parse_direct(argv) is not None, argv
    for argv in EXPERIMENT_DIRECT:
        assert cli._parse_direct(argv) is not None, argv
    for argv in EXPERIMENT_DEFERRED:
        assert cli._parse_direct(argv) is None, argv


def test_readme_examples_exit_0_without_argparse(capsys, monkeypatch):
    """The well-formed requests the benchmark sends take the direct parse."""
    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a well-formed request")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    examples = _readme_examples()
    assert sorted({argv[0] for argv in examples}) == [
        "account", "census", "cnd", "experiment", "mech", "sens", "test"]
    for argv in examples:
        assert run(capsys, argv)[0] == 0, argv


def test_sens_reads_its_span_dimension_in_closed_form(capsys, monkeypatch):
    for r, c, space in ((2, 3, "semi"), (4, 3, "semi"), (1, 4, "dp"), (3, 3, "dp")):
        code, out, _ = run(capsys, ["sens", "--r", str(r), "--c", str(c), "--space", space])
        built = (semidp.contingency_s_semi if space == "semi" else semidp.contingency_s_dp)(r, c)
        assert code == 0 and json.loads(out)["span_dim"] == semidp.span_basis(built).s

    def refuse(*args):
        raise AssertionError("sens built a span basis")

    monkeypatch.setattr(semidp.sensitivity, "span_basis", refuse)
    monkeypatch.setattr(semidp.sensitivity, "_span_basis_cached", refuse)
    try:
        code, out, _ = run(capsys, ["sens", "--r", "15", "--c", "15"])
    finally:
        semidp.sensitivity._table_space.cache_clear()
    assert code == 0 and json.loads(out)["span_dim"] == 196


@pytest.mark.parametrize("r,c", [(5, 5), (3, 6), (6, 3)])
def test_knorm_refuses_semi_tables_where_the_box_is_hopeless(capsys, monkeypatch, r, c):
    # tables with neither a cone table nor the root polytope's hull are
    # refused by name, before a uniform is drawn or a geometry built
    def refuse(*args, **kwargs):
        raise AssertionError("a uniform was drawn or a geometry built")

    monkeypatch.setattr(semidp.sensitivity, "_span_basis_cached", refuse)
    monkeypatch.setattr(semidp.rng.NoiseRng, "uniform_open", refuse)
    cells = ",".join(["1"] * (r * c))
    code, out, err = run(capsys, ["mech", "--query", cells, "--kind", "knorm", "--eps", "1",
                                  "--r", str(r), "--c", str(c)])
    assert code == 1 and out == ""
    assert err.startswith(f"semidp: error: the hull sampler refuses contingency_margins({r}x{c}): ")


def test_knorm_draws_exactly_on_every_table_it_takes(capsys):
    shapes = [(r, c) for r in range(2, 5) for c in range(2, 5)] + [(3, 5), (5, 3)]
    shapes += [(2, c) for c in range(5, 31)] + [(r, 2) for r in range(5, 31)]
    for r, c in shapes:
        cells = ",".join(["1"] * (r * c))
        code, out, _ = run(capsys, ["mech", "--query", cells, "--kind", "knorm", "--eps", "1",
                                    "--r", str(r), "--c", str(c)])
        assert code == 0, (r, c)
        meta = json.loads(out)["meta"]
        assert meta["rejections"] == 0 and meta["span_dim"] == (r - 1) * (c - 1)


def test_table_mechanisms_take_the_row_count_from_the_column_count(capsys):
    cells = ",".join(map(str, range(10)))
    for kind, flag in (("knorm", "--eps"), ("gaussian", "--mu")):
        code, out, err = run(capsys, ["mech", "--query", cells, "--kind", kind, flag, "1", "--c", "5"])
        assert (code, err) == (0, "")
        noise = [float(x) for x in json.loads(out)["noise"]]
        assert json.loads(out)["meta"]["span_dim"] == 4
        assert max(abs(a + b) for a, b in zip(noise[:5], noise[5:])) < 1e-12  # column sums stay


@pytest.mark.parametrize("config, message", [
    ([1, 2], "--config must hold a JSON object, not a list"),
    ({"k": 2.5}, "k must be an integer, got 2.5"),
    ({"k": 1}, "k must be >= 2, got 1"),
    ({"replicates": 2.5}, "replicates must be an integer, got 2.5"),
    ({"replicates": 0}, "replicates must be >= 1, got 0"),
    ({"kk": 3}, "--config does not read 'kk'; it reads k, model, mu, eps, replicates"),
    ({"mu": "1"}, "mu must be a finite number, got '1'"),
])
def test_experiment_config_errors_exit_1(tmp_path, capsys, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, ["experiment", "gaussian", "--mu", "1", "--replicates", "3",
                                  "--config", str(path)])
    assert (code, out, err) == (1, "", f"semidp: error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["experiment", "gaussian", "--k", "15", "--mu", "1", "--replicates", "4445"],
    ["experiment", "knorm", "--k", "2", "--eps", "1", "--replicates", "250001"],
])
def test_experiment_draws_past_the_cap_are_refused_before_a_draw(capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("a noise generator was built")

    monkeypatch.setattr(harness, "NoiseRng", refuse)
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("semidp: error:") and f"DRAW_CAP = {harness.DRAW_CAP:,}" in err
    assert harness.DRAW_CAP == semidp.cnd.SAMPLE_CAP
    harness.ExperimentConfig(k=10, model="I", replicates=harness.DRAW_CAP // 100)  # at the cap
