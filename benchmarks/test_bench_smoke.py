"""Smoke-size runs of the benchmark: every metric is printed with its unit."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402

END_TO_END = {"wall_s": "s", "req_p50_ms": "ms", "req_p90_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == ["release", "private_test", "accounting"]


@pytest.mark.parametrize("workload", ["release", "private_test", "accounting"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace):
    lines, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    expected = LAYER_METRICS if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(re.fullmatch(rf"{re.escape(name)}\s+\S+ {re.escape(unit)}", line)
                   for line in lines), name
    summary = next(line for line in lines if line.startswith("attempted "))
    attempted, failed, frac = re.fullmatch(
        r"attempted (\d+)  failed (\d+)  fail_frac (\S+)", summary).groups()
    assert int(attempted) == result["attempted"] >= 1
    assert int(failed) == result["failed"]
    assert float(frac) == pytest.approx(result["failed"] / result["attempted"], rel=1e-5)


def test_any_failure_but_the_known_one_makes_the_run_wrong():
    mech = {"op": "cli", "argv": ["mech", "--query", "1,2,3", "--kind", "l1", "--eps", "1"]}
    test = {"op": "cli", "argv": ["test", "--table", "1,2,3,4", "--f", "gdp:1"]}
    raised = (0.001, -1, "", "ValueError: injected")
    known = (0.001, 1, "", "semidp: error: p_value must lie in [0, 1]\n")

    failed, problems, _ = checks.evaluate("release", [mech], [[raised], [raised]])
    assert failed == 2 and problems
    failed, problems, reasons = checks.evaluate("private_test", [test], [[known], [known]])
    assert failed == 2 and not problems and sum(reasons.values()) == 2
    _, problems, _ = checks.evaluate("private_test", [test], [[raised], [raised]])
    assert problems
    _, problems, _ = checks.evaluate("accounting", [test], [[known], [known]])
    assert problems
