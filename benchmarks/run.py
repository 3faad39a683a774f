#!/usr/bin/env python3
"""Closed-loop benchmark of semidp: one client, one request at a time.

Usage, from the repository root:

    python3 benchmarks/run.py --workload release --seed 1 --seconds 32 --trace 0

Workloads (see workloads.py for the request mixes):

* ``release``: ``mech``/``experiment``/``sens`` requests on tables; the hull
  sampler and its simplex LPs, span projection and space construction.
* ``private_test``: ``test`` requests on 2x2 tables and ``cnd`` requests;
  canonical noise CDF/quantile, tradeoff evaluation, threshold solve.
* ``accounting``: conforming-set enumeration, a(t), brute-force
  sensitivity spaces and indistinguishable pairs on small dataspaces.

Every request calls a public entry point in this process:
``semidp.cli.cli_dispatch(argv)`` with stdout captured, or the
``dataspace``/``sensitivity`` functions. The seeded request list runs as a
pass with all semidp caches cleared first; passes repeat while another one
fits in ``--seconds``, and at least two run. On a shared host, CPU
throughput can drift by tens of percent for seconds at a time, and drift
only ever slows a request, so each request's latency is its fastest over
the passes (a pass takes 1.5-3 s, so 4-12 passes spread each request's
tries over the run). ``wall_s`` is the pass time at those latencies: the
sum over the request list of each request's fastest latency. Outputs are
checked against mathematical laws after the timed passes, and every pass
must repeat the first pass's output byte for byte.

Host speed on a shared machine also drifts for minutes at a time (the
fastest time of a fixed loop moved by 1.6x within twenty minutes on a
2-vCPU box), which no statistic inside one run can remove. So a fixed probe
of pure-Python and array work, which calls nothing in semidp, runs after
every request, outside the request's latency, and is timed the way a
request is: its fastest time in each request slot over the passes, then
the median over slots. Every reported time is scaled by ``PROBE_MS`` over
that probe time, that is, given at the speed of a host on which the probe
takes ``PROBE_MS``. Set-up time is scaled likewise, each repeat by a
pure-Python probe timed in the fresh interpreter around its import (see
import_time.py). On that box, pass times varied by 11-16% (coefficient of
variation) over seven minutes, and pass times over the probe's by 5-6%;
the probe's parts were chosen from five candidates for that fit. The
unscaled times and the probe time are printed too.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the same
request list three times, recording spans around each wrapped public
function in the middle pass only; it reports the per-layer metrics, with
the tracing overhead against the two untraced passes, and writes the spans
to ``.bench_out/``. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# single-threaded BLAS; set before numpy is first imported
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads  # numpy only; semidp is imported from the checkout in main()
from import_time import dict_probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Set-up is repeated this many times and its median reported.
SETUP_REPEATS = 11

#: Fewest passes in a run, so the cross-pass determinism check always applies.
MIN_PASSES = 2

#: The probes' times on the host the reported times are scaled to, and the
#: number of probes timed after each request (the fastest one counts).
PROBE_MS = 0.7
SETUP_PROBE_MS = 0.17
PROBES_PER_REQUEST = 2
PROBE_ARRAY = np.random.default_rng(0).random(1 << 18)
PROBE_OUT = np.empty_like(PROBE_ARRAY)

END_TO_END = {
    "wall_s": "s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import semidp from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import semidp
        import semidp.cli
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import semidp from {SRC}: {exc}")
    if not Path(semidp.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"benchmark: semidp was imported from {semidp.__file__}, not {SRC}")
    return semidp


def measure_setup(workload: str, seed: int, seconds: float):
    """Median set-up time over SETUP_REPEATS repeats.

    A repeat is ``import semidp.cli`` in a fresh interpreter plus input
    generation here. Each repeat is scaled by SETUP_PROBE_MS over the mean
    of the fresh interpreter's probe times just before and after its import.
    Returns (scaled set-up s, unscaled set-up s, requests, input digest).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    scaled, unscaled, digests = [], [], set()
    for _ in range(SETUP_REPEATS):
        child = subprocess.run([sys.executable, str(BENCH / "import_time.py")], env=env, cwd=ROOT,
                               capture_output=True, text=True, check=True, timeout=120)
        took, before, after = (float(v) for v in child.stdout.split())
        start = perf_counter()
        requests = workloads.generate(workload, seed, seconds)
        total = took + perf_counter() - start
        digests.add(workloads.digest(requests))
        unscaled.append(total)
        scaled.append(total * SETUP_PROBE_MS / (500.0 * (before + after)))
    if len(digests) != 1:
        sys.exit("benchmark: input generation is not deterministic")
    return statistics.median(scaled), statistics.median(unscaled), requests, digests.pop()


def run_accounting(request: dict) -> dict:
    ds, sens = semidp.dataspace, semidp.sensitivity
    levels = tuple(request["levels"])
    rows = tuple(tuple(r) for r in request["rows"])
    space = ds.DataspaceSpec(n=len(rows), levels=levels)
    margins = ds.OneWayMargins(tuple(range(len(levels))))
    t = ds.invariant_eval(margins, rows, space)
    conforming = ds.conforming_set(space, margins, t)
    a_t = ds.semi_adjacent_parameter(space, margins, t)
    s_space = sens.brute_force_sensitivity_space(space, conforming, sens.cell_count_query(space), a_t)
    basis = sens.span_basis(s_space)
    lp = [sens.lp_sensitivity(s_space, p) for p in (1, 2, math.inf)]
    pairs = (len(ds.indistinguishable_pairs(conforming, a_t))
             if len(conforming) <= workloads.PAIRS_LIMIT else None)
    return {"states": len(conforming), "a_t": a_t, "vectors": [list(v) for v in s_space.vectors],
            "span_dim": basis.s, "lp": lp, "pairs": pairs}


def execute(request: dict) -> tuple[int, str, str]:
    """Issue one request; returns (exit code, stdout, stderr). -1 means it raised."""
    out, err = io.StringIO(), io.StringIO()
    try:
        if request["op"] == "cli":
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = semidp.cli.cli_dispatch(list(request["argv"]))
        else:
            code = 0
            out.write(json.dumps(run_accounting(request), sort_keys=True))
    except Exception as exc:  # a request that raises is a failure, never a crash of the run
        return -1, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def clear_caches() -> None:
    """Empty every functools cache in semidp, so a pass pays its own cache fills."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "semidp" or name.startswith("semidp.")):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def probe() -> float:
    """Fixed work that calls nothing in semidp: dict, set and sort work in
    pure Python, and one pass over a 2 MB array, which the per-core caches
    do not hold."""
    np.multiply(PROBE_ARRAY, 1.0001, out=PROBE_OUT)
    values = sorted({(i * 7919) % 1000 for i in range(2000)})
    return float(PROBE_OUT.sum()) + dict_probe() + values[-1]


def timed(fn) -> float:
    start = perf_counter()
    fn()
    return perf_counter() - start


def run_pass(requests: list[dict], tracer=None):
    """One closed-loop pass.

    Returns (wall seconds, [(latency s, code, stdout, stderr)], [probe s]),
    with the fastest of PROBES_PER_REQUEST probes timed after each request.
    """
    clear_caches()
    records, probes = [], []
    start = perf_counter()
    for i, request in enumerate(requests):
        t = perf_counter()
        result = tracer.run_request(i, execute, request) if tracer else execute(request)
        latency = perf_counter() - t
        probes.append(min(timed(probe) for _ in range(PROBES_PER_REQUEST)))
        records.append((latency, *result))
    return perf_counter() - start, records, probes


def fastest(samples: list[list[float]]) -> list[float]:
    """Per slot, the fastest of the passes' samples."""
    return [min(column) for column in zip(*samples)]


def run_context(seed: int) -> dict:
    import numpy
    import scipy
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "semidp").glob("*.py")))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": int(BLAS_THREADS), "seed": seed, "src_semidp_lines": src_lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    global semidp, checks, spans
    os.environ.pop("SEMIDP_SEED", None)  # it would override every request's --seed
    semidp = import_program()
    import checks
    import spans
    seed = args.seed % 2**63

    setup_s, setup_unscaled_s, requests, input_digest = measure_setup(
        args.workload, seed, args.seconds)
    if args.trace:
        # the traced pass sits between two untraced ones, so a steady drift in
        # machine speed cancels out of the overhead estimate, and each pass's
        # request time is taken over its median probe time for faster drift
        runs = [run_pass(requests)]
        tracer = spans.Tracer()
        tracer.install()
        try:
            runs.append(run_pass(requests, tracer))
        finally:
            tracer.uninstall()
        runs.append(run_pass(requests))
        passes = [records for _, records, _ in runs]
        before, traced, after = (math.fsum(r[0] for r in records) / statistics.median(probe_s)
                                 for _, records, probe_s in runs)
        overhead_frac = 2 * traced / (before + after) - 1
    else:
        passes, probes, walls = [], [], []
        started = perf_counter()
        while len(walls) < MIN_PASSES or perf_counter() - started + walls[-1] <= args.seconds:
            wall, records, probe_s = run_pass(requests)
            if passes:  # share pass 0's copy of a repeated output, so memory does not grow with passes
                records = [(latency, code, passes[0][i][2] if out == passes[0][i][2] else out, err)
                           for i, (latency, code, out, err) in enumerate(records)]
            passes.append(records)
            probes.append(probe_s)
            walls.append(wall)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, problems, reasons = checks.evaluate(args.workload, requests, passes)
    attempted = len(requests) * len(passes)

    if args.trace:
        out_path = ROOT / ".bench_out" / f"spans_{args.workload}_seed{seed}.npz"
        tracer.save(out_path)
        values = tracer.layer_metrics(overhead_frac)
        units = spans.LAYER_METRICS
    else:
        latencies_ms = [s * 1e3 for s in fastest([[r[0] for r in records] for records in passes])]
        probe_ms = statistics.median(fastest(probes)) * 1e3
        raw = {
            "wall_s": math.fsum(latencies_ms) / 1e3,
            "req_p50_ms": statistics.median(latencies_ms),
            "req_p90_ms": statistics.quantiles(latencies_ms, n=10, method="inclusive")[-1],
        }
        values = {name: value * PROBE_MS / probe_ms for name, value in raw.items()}
        raw["setup_s"], values["setup_s"] = setup_unscaled_s, setup_s
        values["peak_rss_mb"] = peak_rss_mb
        units = END_TO_END

    print(f"workload {args.workload}  seed {seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  passes {len(passes)}  requests/pass {len(requests)}")
    print(f"inputs sha256 {input_digest}")
    print("context " + json.dumps(run_context(seed), sort_keys=True))
    print(f"attempted {attempted}  failed {failed}  fail_frac {failed / attempted:.6g}")
    for reason, count in reasons.most_common():
        print(f"  failure x{count}: {reason}")
    for problem in problems[:20]:
        print(f"  WRONG: {problem}")
    if not args.trace:
        print(f"probe_ms {probe_ms:.6f}  unscaled " + "  ".join(
            f"{name} {value:.6f}" for name, value in raw.items()))
    for name, unit in units.items():
        print(f"{name:45s} {values[name]:>16.6f} {unit}")
    if args.trace:
        print(f"spans written to {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
