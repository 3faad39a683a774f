"""In-memory span tracing around semidp's public functions.

Tracing wraps the functions callers actually import: every module
attribute in the ``semidp`` package that refers to a wrapped function is
replaced for the traced pass and restored afterwards, so the program's
files never change. Each call records a span (name, start, end, parent
span, request id) in flat arrays; per-layer metrics are derived from those
arrays once the pass is over.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from workloads import conforming_count

#: Span name -> the functions it wraps, as (module, attribute path).
SPANS = {
    "cli.dispatch": [("semidp.cli", "cli_dispatch")],
    "harness.experiment": [
        ("semidp.harness", "run_gaussian_experiment"),
        ("semidp.harness", "run_knorm_experiment"),
    ],
    "mechanisms.knorm": [("semidp.mechanisms", "knorm_noise_samples")],
    "mechanisms.gaussian": [("semidp.mechanisms", "gaussian_noise_samples")],
    "mechanisms.lp": [("semidp.mechanisms", "lp_noise_samples")],
    "sensitivity.space_build": [
        ("semidp.sensitivity", "contingency_s_semi"),
        ("semidp.sensitivity", "contingency_s_dp"),
    ],
    "sensitivity.span_basis": [("semidp.sensitivity", "span_basis")],
    "sensitivity.hull_membership": [("semidp.sensitivity", "hull_membership")],
    "sensitivity.brute_force": [("semidp.sensitivity", "brute_force_sensitivity_space")],
    "simplex.solve_lp": [("semidp.simplex", "solve_lp")],
    "rng.draw": [
        ("semidp.rng", f"NoiseRng.{method}")
        for method in ("uniform_open", "uniform", "normal", "laplace", "gamma", "multinomial")
    ],
    "cnd.cdf": [("semidp.cnd", "cnd_cdf")],
    "cnd.quantile": [("semidp.cnd", "cnd_quantile")],
    "cnd.sample": [("semidp.cnd", "cnd_sample")],
    "cnd.solve_c": [("semidp.cnd", "solve_c")],
    "tradeoff.eval": [("semidp.tradeoff", "eval_tradeoff")],
    "inference.threshold": [("semidp.inference", "solve_threshold_m")],
    "inference.nchg": [("semidp.inference", "nchg_distribution")],
    "inference.pvalue": [("semidp.inference", "private_pvalue")],
    "dataspace.conforming_set": [("semidp.dataspace", "conforming_set")],
    "dataspace.a_t": [("semidp.dataspace", "semi_adjacent_parameter")],
    "dataspace.pairs": [("semidp.dataspace", "indistinguishable_pairs")],
}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _a_t_pairs(args, kwargs, result):
    space, t = _arg(args, kwargs, 0, "space"), _arg(args, kwargs, 2, "t")
    return {"pairs": conforming_count(space.n, t) ** 2}


#: Work counters recorded at a span boundary: (args, kwargs, result) -> {counter: amount}.
COUNTERS = {
    "mechanisms.knorm": lambda a, k, r: {
        "draws": _arg(a, k, 3, "size"), "rejections": sum(r[3])},
    "cnd.cdf": lambda a, k, r: {"points": int(np.size(_arg(a, k, 1, "x")))},
    "tradeoff.eval": lambda a, k, r: {"points": int(np.size(_arg(a, k, 1, "alpha")))},
    "dataspace.conforming_set": lambda a, k, r: {"states": len(r)},
    "dataspace.a_t": _a_t_pairs,
    "sensitivity.brute_force": lambda a, k, r: {
        "pairs": len(_arg(a, k, 1, "subset")) ** 2},
}

#: Per-layer metric name -> unit, in the order BENCHMARK.json lists them.
LAYER_METRICS = {
    "simplex.solve_lp.calls": "count",
    "simplex.solve_lp.busy_s": "s",
    "sensitivity.hull_membership.calls": "count",
    "sensitivity.hull_membership.self_s": "s",
    "mechanisms.knorm.draws": "count",
    "mechanisms.knorm.rejections": "count",
    "mechanisms.knorm.accept_ratio": "ratio",
    "mechanisms.knorm.busy_s": "s",
    "sensitivity.space_build.busy_s": "s",
    "sensitivity.span_basis.calls": "count",
    "sensitivity.span_basis.busy_s": "s",
    "mechanisms.gaussian.busy_s": "s",
    "rng.draw.calls": "count",
    "rng.draw.busy_s": "s",
    "mechanisms.lp.busy_s": "s",
    "harness.experiment.calls": "count",
    "harness.experiment.self_s": "s",
    "cnd.cdf.calls": "count",
    "cnd.cdf.points": "count",
    "cnd.cdf.busy_s": "s",
    "tradeoff.eval.calls": "count",
    "tradeoff.eval.points": "count",
    "tradeoff.eval.busy_s": "s",
    "inference.threshold.busy_s": "s",
    "inference.threshold.cdf_calls_per_solve": "calls/solve",
    "inference.nchg.busy_s": "s",
    "cnd.quantile.calls": "count",
    "cnd.quantile.busy_s": "s",
    "cnd.sample.busy_s": "s",
    "cnd.solve_c.busy_s": "s",
    "inference.pvalue.busy_s": "s",
    "dataspace.conforming_set.busy_s": "s",
    "dataspace.conforming_set.states": "count",
    "dataspace.a_t.busy_s": "s",
    "dataspace.a_t.pairs": "count",
    "dataspace.a_t.dense_bytes": "B",
    "sensitivity.brute_force.busy_s": "s",
    "sensitivity.brute_force.pairs": "count",
    "dataspace.pairs.busy_s": "s",
    "cli.dispatch.self_s": "s",
    "trace.overhead_frac": "ratio",
}

REQUEST = "request"


class Tracer:
    """Span recorder; ``install`` swaps the wrappers in, ``uninstall`` undoes it."""

    def __init__(self) -> None:
        self.names = [REQUEST] + list(SPANS)
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.outer = array("b")  # 1 when no enclosing span has the same name
        self.counts: dict[str, float] = defaultdict(float)
        self.current_request = -1
        self._stack = [-1]
        self._active = [0] * len(self.names)
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        nid = self.names.index(name)
        counter = COUNTERS.get(name)
        start, end, names, parent, request, outer = (
            self.start, self.end, self.name, self.parent, self.request, self.outer)
        stack, active, counts = self._stack, self._active, self.counts

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parent.append(stack[-1])
            request.append(self.current_request)
            is_outer = active[nid] == 0
            outer.append(is_outer)
            active[nid] += 1
            stack.append(idx)
            end.append(0.0)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
                active[nid] -= 1
            if counter is not None and is_outer:
                for key, amount in counter(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += amount
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "semidp" or key.startswith("semidp."))]
        for name, targets in SPANS.items():
            for module_name, path in targets:
                owner = sys.modules[module_name]
                *outer_path, attr = path.split(".")
                for part in outer_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapper = self.wrap(name, original)
                self._replace(owner, attr, wrapper)
                if not outer_path:  # re-exports and `from x import f` copies
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self._replace(module, key, wrapper)

    def _replace(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def run_request(self, request_id: int, fn, *args):
        """Call fn(*args) inside the request's root span."""
        self.current_request = request_id
        return self.wrap(REQUEST, fn)(*args)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "request": np.frombuffer(self.request, dtype=np.int32),
            "outer": np.frombuffer(self.outer, dtype=np.int8),
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics over every span recorded so far.

        ``calls`` and ``busy_s`` count entries into a span name from outside
        it (nested same-name spans are not counted twice); ``self_s`` is a
        span's duration minus its direct children's.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        outer = a["outer"].astype(bool)
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            mine = a["name"] == nid
            entries = mine & outer
            out[f"{name}.calls"] = int(entries.sum())
            out[f"{name}.busy_s"] = float(dur[entries].sum())
            out[f"{name}.self_s"] = float(self_time[mine].sum())
        for key, value in self.counts.items():
            out[key] = value
        draws = self.counts.get("mechanisms.knorm.draws", 0)
        tries = draws + self.counts.get("mechanisms.knorm.rejections", 0)
        out["mechanisms.knorm.accept_ratio"] = draws / tries if tries else 0.0
        out["dataspace.a_t.dense_bytes"] = 4 * self.counts.get("dataspace.a_t.pairs", 0)
        solves = out["inference.threshold.calls"]
        cdf_in_solve = _with_ancestor(a, self.names.index("cnd.cdf"),
                                      self.names.index("inference.threshold"))
        out["inference.threshold.cdf_calls_per_solve"] = cdf_in_solve / solves if solves else 0.0
        out["trace.overhead_frac"] = overhead_frac
        return {key: out.get(key, 0) for key in LAYER_METRICS}


def _with_ancestor(a: dict[str, np.ndarray], nid: int, ancestor_nid: int) -> int:
    """Number of spans named ``nid`` that run inside a span named ``ancestor_nid``."""
    idx = np.nonzero(a["name"] == nid)[0]
    found = np.zeros(len(idx), dtype=bool)
    anc = a["parent"][idx]
    while True:
        live = (anc >= 0) & ~found
        if not live.any():
            return int(found.sum())
        found[live] = a["name"][anc[live]] == ancestor_nid
        anc = np.where(live, a["parent"][np.maximum(anc, 0)], -1)
