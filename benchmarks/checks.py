"""Output checks for benchmark requests, run outside the timed interval.

Each check tests a law the output must satisfy rather than its bytes, so a
deliberate change to a noise stream does not break the benchmark. A check
returns None when the output is right and a short reason when it is not.
"""

from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np

import semidp
from semidp.inference import Table2x2, nchg_distribution

MARGIN_TOL = 1e-9
SIZE_TOL = 1e-8
QUANTILE_TOL = 1e-9

#: The one failure a workload may show without the run being wrong: on
#: private_test, ``private_pvalue`` rejects p = 1 + 6e-15 when the noisy
#: statistic lies below the support (the pmf sums to just over 1). It is
#: counted in ``failed`` like any other failure.
KNOWN_FAILURES = {("private_test", "test"): "semidp: error: p_value must lie in [0, 1]"}


def _flag(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _tradeoff(text: str):
    kind, _, params = text.partition(":")
    if kind == "gdp":
        return semidp.gaussian_dp(float(params))
    parts = [float(p) for p in params.split(",")]
    return semidp.exact_dp(parts[0], parts[1] if len(parts) > 1 else 0.0)


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def check_mech(argv: list[str], payload: dict) -> str | None:
    query = np.array([float(v) for v in _flag(argv, "--query").split(",")])
    value = np.array([float(v) for v in payload["value"]])
    noise = np.array([float(v) for v in payload["noise"]])
    if value.shape != query.shape or not _finite(value):
        return "released value has the wrong shape or is not finite"
    if np.max(np.abs(value - query - noise)) > MARGIN_TOL * max(1.0, np.max(np.abs(value))):
        return "released value is not query + noise"
    kind = _flag(argv, "--kind")
    if kind in ("gaussian", "knorm"):
        r = int(_flag(argv, "--r", 0)) or int(round(math.sqrt(len(query))))
        diff = (value - query).reshape(r, -1)
        if max(np.abs(diff.sum(axis=0)).max(), np.abs(diff.sum(axis=1)).max()) > MARGIN_TOL:
            return "released table does not keep the row and column sums"
    if kind == "knorm":
        meta = payload["meta"]
        if not float(meta["radius"]) > 0 or not int(meta["rejections"]) >= 0:
            return "knorm meta has a non-positive radius or negative rejections"
    return None


def check_experiment(argv: list[str], rows: list) -> str | None:
    if not rows:
        return "experiment returned no rows"
    for row in rows:
        if not (_finite([row["mean_l2"], row["se"]]) and row["mean_l2"] > 0 and row["se"] >= 0):
            return f"experiment row {row['method']} is not finite with mean_l2 > 0"
    return None


def check_sens(argv: list[str], payload: dict) -> str | None:
    r, c = int(_flag(argv, "--r")), int(_flag(argv, "--c"))
    if _flag(argv, "--space", "semi") == "semi":
        want = {"span_dim": (r - 1) * (c - 1), "delta_1": 4.0, "delta_2": 2.0, "delta_inf": 1.0}
    else:
        want = {"span_dim": r * c - 1, "delta_1": 2.0, "delta_2": math.sqrt(2.0), "delta_inf": 1.0}
    for key, expected in want.items():
        if abs(payload[key] - expected) > 1e-12:
            return f"sens {key} = {payload[key]}, expected {expected}"
    return None


def check_test(argv: list[str], payload: dict) -> str | None:
    phi, alpha, m = payload["phi_star"], float(_flag(argv, "--alpha")), payload["m"]
    if not 0.0 <= phi <= 1.0 or not 0.0 <= payload["p_value"] <= 1.0:
        return "phi_star or p_value outside [0, 1]"
    spec = semidp.make_cnd(_tradeoff(_flag(argv, "--f")))
    table = Table2x2(*(int(v) for v in _flag(argv, "--table").split(",")))
    xs, pmf = nchg_distribution(table.margins(), 1.0)
    size = float(pmf @ semidp.cnd_cdf(spec, xs - m))
    if abs(size - alpha) > SIZE_TOL:
        return f"test size {size!r} differs from alpha {alpha} by more than {SIZE_TOL}"
    if not _finite([payload["U"], m]):
        return "noisy statistic or threshold is not finite"
    return None


def check_cnd(argv: list[str], payload: dict) -> str | None:
    if not 0.0 <= payload["c"] < 0.5:
        return "fixed point c outside [0, 1/2)"
    if "samples" in payload and not _finite([float(v) for v in payload["samples"]]):
        return "cnd samples are not finite"
    if "cdf" in payload and not 0.0 <= payload["cdf"] <= 1.0:
        return "cnd cdf outside [0, 1]"
    if "quantile" in payload:
        if not _finite([payload["quantile"]]):
            return "cnd quantile is not finite"
        spec = semidp.make_cnd(_tradeoff(_flag(argv, "--f")))
        if abs(semidp.cnd_cdf(spec, payload["quantile"]) - payload["u"]) > QUANTILE_TOL:
            return "cdf(quantile(u)) differs from u"
    return None


CLI_CHECKS = {
    "mech": check_mech,
    "experiment": check_experiment,
    "sens": check_sens,
    "test": check_test,
    "cnd": check_cnd,
}


def check_accounting(request: dict, result: dict) -> str | None:
    levels = request["levels"]
    if result["states"] != request["states"]:
        return f"|S| = {result['states']}, closed form gives {request['states']}"
    if result["a_t"] > semidp.semi_adjacent_bound(len(levels)):
        return f"a(t) = {result['a_t']} exceeds the bound p + 1"
    cube = np.array(result["vectors"], dtype=np.int64).reshape(-1, *levels)
    for f in range(len(levels)):
        axes = tuple(a + 1 for a in range(len(levels)) if a != f)
        if np.any(cube.sum(axis=axes) != 0):
            return f"a difference vector changes the margin of feature {f}"
    if result["span_dim"] > cube[0].size or not _finite(result["lp"]):
        return "span dimension or lp sensitivities are out of range"
    if result["pairs"] is not None and result["pairs"] > result["states"] * (result["states"] - 1) // 2:
        return "more indistinguishable pairs than dataset pairs"
    return None


def check(request: dict, stdout: str) -> str | None:
    """Reason the output of a successful request is wrong, or None."""
    try:
        payload = json.loads(stdout)
        if request["op"] == "accounting":
            return check_accounting(request, payload)
        return CLI_CHECKS[request["argv"][0]](request["argv"], payload)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"output could not be checked: {exc!r}"


def evaluate(workload: str, requests: list[dict], passes: list[list]) -> tuple[int, list[str], Counter]:
    """Failed count over all passes, correctness problems, and failure reasons.

    ``passes`` holds one ``(latency, exit code, stdout, stderr)`` record per
    request per pass. The first pass is checked law by law; later passes
    must repeat its output byte for byte, and then share its verdict. A
    request that exits non-zero or raises is a failure, and any failure but
    the workload's known one makes the run wrong.
    """
    failed, problems, reasons = 0, [], Counter()
    for index, request in enumerate(requests):
        _, code, out, err = passes[0][index]
        why = check(request, out) if code == 0 else None
        reason = why or (err.strip().splitlines() or [f"exit {code}"])[-1]
        if why:
            problems.append(f"request {index}: {why}")
        elif code != 0 and reason != KNOWN_FAILURES.get((workload, request.get("argv", [""])[0])):
            problems.append(f"request {index}: unexpected failure: {reason}")
        for records in passes:
            if records[index][1:3] != (code, out):
                problems.append(f"request {index}: output differs between passes")
            if code != 0 or why:
                failed += 1
                reasons[reason] += 1
    return failed, problems, reasons
