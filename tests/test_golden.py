"""Seeded CLI outputs pinned to recorded values.

Each case runs one subcommand with a fixed seed and compares the numbers it
prints with values recorded from an earlier build: a change that alters a
noise draw, a fixed point or a test statistic fails here. Floats compare to
a relative tolerance of 1e-12, which absorbs BLAS summation order between
hosts (the gaussian and knorm draws go through matrix products); counts
compare exactly. The ``sens --format csv`` cases pin a space's rows and
their canonical order exactly.
"""

import json

import pytest

from semidp.cli import cli_dispatch

Q9 = "5,3,2,4,1,6,0,2,7"

#: name -> (argv, recorded values)
GOLDEN = {
    "cnd_eps": (
        ["cnd", "--f", "eps:1,0.01", "--sample", "3", "--seed", "2"],
        {
            "c": 0.26625200715629516,
            "samples": [-0.02371035483409226, -0.37652738686066495, 1.2415424094798344],
        },
    ),
    "cnd_gdp": (
        ["cnd", "--f", "gdp:1", "--sample", "3", "--seed", "1"],
        {
            "c": 0.3085375387259869,
            "samples": [-0.5130699962610368, 1.0321989746139755, -1.0109090757632475],
        },
    ),
    "experiment_gaussian": (
        ["experiment", "gaussian", "--k", "3", "--mu", "1", "--replicates", "30",
         "--seed", "3", "--format", "json"],
        {
            "semi": [3.3422096836982766, 0.19420933227500245],
            "naive": [11.63241122577797, 0.5190754810064936],
        },
    ),
    "experiment_knorm": (
        ["experiment", "knorm", "--k", "2", "--eps", "0.5", "--replicates", "30",
         "--seed", "7", "--format", "json"],
        {
            "knorm": [3.985860148686607, 0.7576706951839098],
            "naive_l1": [30.771190955948224, 3.7586204491604533],
            "naive_l2": [35.51041702641128, 3.5532273355253414],
            "naive_linf": [37.23883565682051, 3.003727838529315],
        },
    ),
    "mech_gaussian": (
        ["mech", "--query", Q9, "--kind", "gaussian", "--mu", "1", "--seed", "11"],
        {
            "noise": [
                -2.502493410031683, 0.06733628482260373, 2.4351571252090793,
                0.9363996453901564, 0.04154003573902909, -0.9779396811291852,
                1.5660937646415265, -0.10887632056163254, -1.4572174440798937,
            ],
        },
    ),
    "mech_knorm": (
        ["mech", "--query", "5,3,2,4,1,6", "--kind", "knorm", "--eps", "0.8", "--r",
         "2", "--c", "3", "--seed", "12"],
        {
            "noise": [
                0.24389392033675725, 1.9036875595244487, -2.1475814798612056,
                -0.24389392033675725, -1.9036875595244487, 2.1475814798612056,
            ],
            "radius": 3.5899784794707394,
            "rejections": 1,
        },
    ),
    "mech_l1": (
        ["mech", "--query", Q9, "--kind", "l1", "--eps", "0.5", "--seed", "13"],
        {
            "noise": [
                9.383541888020742, -2.59144833327882, -1.7369656029355527,
                1.2954986258032732, -3.0385070198791664, 14.850921944913795,
                7.942123603579136, 1.4253253806921666, 1.6046785555685614,
            ],
        },
    ),
    "mech_l2": (
        ["mech", "--query", Q9, "--kind", "l2", "--eps", "0.5", "--seed", "14"],
        {
            "noise": [
                6.6900505936783725, 7.034749141945019, 1.4175945330628243,
                -2.86071683526466, -9.172516715132991, 9.238317112945179,
                -6.994491727711058, 10.421780895183604, -8.45151538815354,
            ],
        },
    ),
    "mech_linf": (
        ["mech", "--query", Q9, "--kind", "linf", "--eps", "0.5", "--seed", "15"],
        {
            "noise": [
                7.095576476304755, 4.510851057717324, 7.948478802186868,
                -0.15387517850356092, 5.154089178789545, 10.067279993286029,
                -5.336129475348567, -0.43039510388549485, -2.57532891565882,
            ],
        },
    ),
    "mech_naive_gaussian": (
        ["mech", "--query", Q9, "--kind", "naive-gaussian", "--mu", "1", "--seed", "16"],
        {
            "noise": [
                -0.049659273219212124, -1.2779429974180796, -6.413825448059045,
                3.3341142360368177, 2.0994742971569327, -1.2359965782724633,
                1.4237836436378573, 0.8222692675432299, -7.497236338698032,
            ],
        },
    ),
    "mech_naive_l1": (
        ["mech", "--query", Q9, "--kind", "naive-l1", "--eps", "0.5", "--seed", "17"],
        {
            "noise": [
                -5.589248032018168, -2.125514749593406, -7.817163790165564,
                -9.808679634132401, -10.791224170373201, -1.936737328765783,
                3.1249388695515927, -21.180546533031247, 1.127582427013805,
            ],
        },
    ),
    "mech_naive_l2": (
        ["mech", "--query", Q9, "--kind", "naive-l2", "--eps", "0.5", "--seed", "18"],
        {
            "noise": [
                15.933023537411316, 2.25066621212831, -16.058991715967867,
                -1.9966040247686243, 6.137828514119668, 13.823193863197687,
                16.045811516383772, -3.647612400540723, -19.234932757901827,
            ],
        },
    ),
    "mech_naive_linf": (
        ["mech", "--query", Q9, "--kind", "naive-linf", "--eps", "0.5", "--seed", "19"],
        {
            "noise": [
                -10.689252288863091, 17.461206373516788, -1.3911712112283252,
                -17.28755310659575, -13.545940720479258, 2.254096341312597,
                19.982319640099693, -1.767965957316235, 9.801335458882578,
            ],
        },
    ),
    "test": (
        ["test", "--table", "5,3,2,4", "--f", "gdp:1", "--seed", "1"],
        {
            "U": 4.486930003738963,
            "p_value": 0.3635661713459643,
        },
    ),
}


#: name -> (argv, recorded CSV rows): the rows of a space in their canonical order
GOLDEN_CSV = {
    "sens_3x3_semi": (
        ["sens", "--r", "3", "--c", "3", "--space", "semi", "--format", "csv"],
        [
            "-1,0,1,0,0,0,1,0,-1", "-1,0,1,1,0,-1,0,0,0", "-1,1,0,0,0,0,1,-1,0",
            "-1,1,0,1,-1,0,0,0,0", "0,-1,1,0,0,0,0,1,-1", "0,-1,1,0,1,-1,0,0,0",
            "0,0,0,-1,0,1,1,0,-1", "0,0,0,-1,1,0,1,-1,0", "0,0,0,0,-1,1,0,1,-1",
            "0,0,0,0,0,0,0,0,0", "0,0,0,0,1,-1,0,-1,1", "0,0,0,1,-1,0,-1,1,0",
            "0,0,0,1,0,-1,-1,0,1", "0,1,-1,0,-1,1,0,0,0", "0,1,-1,0,0,0,0,-1,1",
            "1,-1,0,-1,1,0,0,0,0", "1,-1,0,0,0,0,-1,1,0", "1,0,-1,-1,0,1,0,0,0",
            "1,0,-1,0,0,0,-1,0,1",
        ],
    ),
    "sens_2x3_dp": (
        ["sens", "--r", "2", "--c", "3", "--space", "dp", "--format", "csv"],
        [
            "-1,0,0,0,0,1", "-1,0,0,0,1,0", "-1,0,0,1,0,0", "-1,0,1,0,0,0", "-1,1,0,0,0,0",
            "0,-1,0,0,0,1", "0,-1,0,0,1,0", "0,-1,0,1,0,0", "0,-1,1,0,0,0", "0,0,-1,0,0,1",
            "0,0,-1,0,1,0", "0,0,-1,1,0,0", "0,0,0,-1,0,1", "0,0,0,-1,1,0", "0,0,0,0,-1,1",
            "0,0,0,0,0,0", "0,0,0,0,1,-1", "0,0,0,1,-1,0", "0,0,0,1,0,-1", "0,0,1,-1,0,0",
            "0,0,1,0,-1,0", "0,0,1,0,0,-1", "0,1,-1,0,0,0", "0,1,0,-1,0,0", "0,1,0,0,-1,0",
            "0,1,0,0,0,-1", "1,-1,0,0,0,0", "1,0,-1,0,0,0", "1,0,0,-1,0,0", "1,0,0,0,-1,0",
            "1,0,0,0,0,-1",
        ],
    ),
}


def _extract(name: str, payload) -> dict:
    if name.startswith("mech"):
        meta = payload["meta"]
        out = {"noise": [float(v) for v in payload["noise"]]}
        if meta["mechanism"] == "knorm_optimal":
            out["radius"] = float(meta["radius"])
            out["rejections"] = meta["rejections"]
        return out
    if name.startswith("experiment"):
        return {row["method"]: [row["mean_l2"], row["se"]] for row in payload}
    if name.startswith("cnd"):
        return {"c": payload["c"], "samples": [float(v) for v in payload["samples"]]}
    return {"U": payload["U"], "p_value": payload["p_value"]}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seeded_output_matches_recorded_values(capsys, name):
    argv, expected = GOLDEN[name]
    assert cli_dispatch(argv) == 0
    got = _extract(name, json.loads(capsys.readouterr().out))
    assert got.keys() == expected.keys()
    for key, value in expected.items():
        if key == "rejections":
            assert got[key] == value
        else:
            assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0), key


@pytest.mark.parametrize("name", sorted(GOLDEN_CSV))
def test_sens_csv_matches_recorded_rows(capsys, name):
    argv, rows = GOLDEN_CSV[name]
    assert cli_dispatch(argv) == 0
    assert capsys.readouterr().out.splitlines() == rows
