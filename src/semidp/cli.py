"""Command-line front end.

Subcommands: sens (sensitivity spaces), mech (one mechanism draw), cnd
(canonical noise evaluation and sampling), test (private odds-ratio test),
experiment (noise-cost comparisons), census (budget report), account
(parameter conversions). Exit codes: 0 success, 2 usage error, 1
computation error. SEMIDP_SEED overrides --seed when set.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from typing import NamedTuple

import numpy as np

from . import harness
from .cnd import cnd_cdf, cnd_quantile, cnd_sample, make_cnd
from .inference import Table2x2, private_pvalue, umpu_test
from .mechanisms import (
    KIND_NORM,
    TABLE_SINGLE_MOVE_SENSITIVITY,
    NaiveGroupMechanism,
    gaussian_semi,
    knorm_optimal,
    lp_mechanism,
)
from .rng import RngSeed
from .sensitivity import (
    contingency_s_dp,
    contingency_s_semi,
    sensitivity_space_to_csv,
    table_geometry,
)
from .tradeoff import (
    compose_self,
    exact_dp,
    gaussian_dp,
    gdp_to_approx_dp,
    zcdp_group,
    zcdp_to_approx_dp,
)


def _parse_tradeoff(text: str):
    """gdp:MU or eps:EPS[,DELTA]."""
    kind, _, params = text.partition(":")
    if not params:
        raise ValueError(f"cannot parse tradeoff spec {text!r}; use gdp:MU or eps:EPS[,DELTA]")
    if kind == "gdp":
        return gaussian_dp(float(params))
    if kind == "eps":
        parts = params.split(",")
        if len(parts) > 2:
            raise ValueError(f"cannot parse tradeoff spec {text!r}; use gdp:MU or eps:EPS[,DELTA]")
        return exact_dp(float(parts[0]), float(parts[1]) if len(parts) > 1 else 0.0)
    raise ValueError(f"unknown tradeoff family {kind!r}; use gdp: or eps:")


def _seed_from(args: argparse.Namespace) -> RngSeed:
    env = os.environ.get("SEMIDP_SEED")
    if env is not None:
        return RngSeed(int(env))
    return RngSeed(0 if args.seed is None else args.seed)


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


class _DirectTable(NamedTuple):
    """What ``_parse_direct`` reads of one subcommand's parser."""

    negative_number: re.Pattern  # the parser's own test for a value such as -1 or -.5
    positional: argparse.Action | None  # the one positional, which comes first, or None
    options: dict[str, argparse.Action]  # exact option string -> its action
    defaults: dict[str, object]  # dest -> default, a str default passed through the type
    required: frozenset[str]  # dests that must be given


@functools.cache  # parsing leaves the parsers unchanged, so one instance serves every call
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, _DirectTable]]:
    """The top parser, and the direct-parse table of each subcommand whose
    actions, but for help, are all single-value ``store`` actions: options,
    and at most one positional with choices (``experiment``'s ``which``)."""
    parser = argparse.ArgumentParser(prog="semidp")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, seed: bool = False, fmt: bool = False) -> None:
        # only subcommands that read --seed/--format take them; no --seed is None, read as 0
        if seed:
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        if fmt:
            p.add_argument("--format", choices=("csv", "json"), default="json")

    p = sub.add_parser("sens", help="sensitivity space of a table query")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--space", choices=("semi", "dp"), default="semi")
    common(p, fmt=True)

    p = sub.add_parser("mech", help="one mechanism draw")
    p.add_argument("--query", type=str, required=True, help="comma-separated cell values")
    p.add_argument(
        "--kind",
        choices=("gaussian", "knorm", "l1", "l2", "linf",
                 "naive-gaussian", "naive-l1", "naive-l2", "naive-linf"),
        required=True,
    )
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--c", type=int, default=None)
    p.add_argument("--group-size", type=int, default=None)
    common(p, seed=True)

    p = sub.add_parser("cnd", help="canonical noise distribution")
    p.add_argument("--f", type=str, required=True, help="gdp:MU or eps:EPS[,DELTA]")
    p.add_argument("--cdf", type=float, default=None)
    p.add_argument("--quantile", type=float, default=None)
    p.add_argument("--sample", type=int, default=None)
    common(p, seed=True)

    p = sub.add_parser("test", help="private odds-ratio test for a 2x2 table")
    p.add_argument("--table", type=str, required=True, help="x11,x12,x21,x22")
    p.add_argument("--f", type=str, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    common(p, seed=True)

    p = sub.add_parser("experiment", help="noise-cost comparison experiments")
    p.add_argument("which", choices=("gaussian", "knorm"))
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--model", choices=harness.MODELS, default="I")
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--replicates", type=int, default=30)
    p.add_argument("--config", type=str, default=None, help="JSON file with config overrides")
    common(p, seed=True, fmt=True)

    p = sub.add_parser("census", help="advertised vs effective budget report")
    p.add_argument("--rho-person", type=float, required=True)
    p.add_argument("--rho-housing", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    common(p)

    p = sub.add_parser("account", help="parameter conversions")
    p.add_argument("--zcdp", type=float, default=None)
    p.add_argument("--gdp", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--group", type=int, default=None)
    common(p)

    tables = {}
    for name, p in sub.choices.items():
        actions = [a for a in p._actions if not isinstance(a, argparse._HelpAction)]
        positionals = [a for a in actions if not a.option_strings]
        if (all(type(a) is argparse._StoreAction and a.nargs is None for a in actions)
                and len(positionals) <= 1 and all(a.choices for a in positionals)):
            tables[name] = _DirectTable(
                p._negative_number_matcher,
                positionals[0] if positionals else None,
                {flag: a for a in actions for flag in a.option_strings},
                {a.dest: (a.type or str)(a.default) if isinstance(a.default, str) else a.default
                 for a in actions},
                frozenset(a.dest for a in actions if a.required))
    return parser, tables


def _parse_direct(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace ``parser.parse_args(argv)`` returns, read straight from
    the subcommand's actions, or None when argv is not that simple.

    argv must be a tabled subcommand, then its positional if it takes one
    (not starting with ``-``), and then (exact option string, value) pairs;
    each value must convert by its action's type, lie in its choices and
    start with ``-`` only as a negative number. Every required option must
    be given, and a repeated option keeps its last value. Anything else
    (help, usage errors, abbreviations, ``--flag=value``, a positional that
    is missing, repeated or placed after an option) returns None and is
    left to argparse, the one source of help and error text.
    """
    table = _build_parser()[1].get(argv[0]) if argv else None
    if table is None:
        return None
    steps, given = [], argv[1:]
    if table.positional is not None:
        if not given or given[0][:1] == "-":
            return None
        steps.append((table.positional, given[0]))
        given = given[1:]
    if len(given) % 2:
        return None
    steps += [(table.options.get(flag), text) for flag, text in zip(given[::2], given[1::2])]
    values = {}
    for action, text in steps:
        if action is None or (text[:1] == "-" and not table.negative_number.match(text)):
            return None
        try:
            value = (action.type or str)(text)
        except (ValueError, TypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if not table.required <= values.keys():
        return None
    return argparse.Namespace(command=argv[0], **{**table.defaults, **values})


def _unread_flag(args: argparse.Namespace) -> str | None:
    """Why a flag that was given goes unread by the request, or None."""
    label, reads = "", {}
    if args.command == "mech":
        table, gaussian = args.kind in ("gaussian", "knorm"), args.kind.endswith("gaussian")
        label, reads = f"mech --kind {args.kind}", {
            "mu": gaussian, "eps": not gaussian, "r": table, "c": table,
            "group_size": args.kind.startswith("naive-")}
    elif args.command == "experiment":
        gaussian = args.which == "gaussian"
        label, reads = f"experiment {args.which}", {"mu": gaussian, "eps": not gaussian}
    elif args.command == "cnd":
        label, reads = "cnd without --sample", {"seed": args.sample is not None}
    for dest, read in reads.items():
        if not read and getattr(args, dest) is not None:
            return f"{label} does not read --{dest.replace('_', '-')}"
    return None


#: The ``TableGeometry`` fields ``semidp sens`` prints as JSON.
SENS_FIELDS = ("provenance", "ambient_dim", "num_vectors", "span_dim", "delta_1", "delta_2", "delta_inf")


def _run_sens(args: argparse.Namespace) -> None:
    if args.format == "csv":
        build = contingency_s_semi if args.space == "semi" else contingency_s_dp
        _emit(args, sensitivity_space_to_csv(build(args.r, args.c)))
        return
    geometry = table_geometry(args.space, args.r, args.c)
    _emit(args, json.dumps({key: getattr(geometry, key) for key in SENS_FIELDS}, sort_keys=True))


def _run_mech(args: argparse.Namespace) -> None:
    query = np.array([float(v) for v in args.query.split(",")])
    seed = _seed_from(args)
    if args.kind in ("gaussian", "knorm"):
        r, c = args.r, args.c
        if r is None:  # from --c when it is given, else the nearest square
            r = len(query) // c if c else int(round(math.sqrt(len(query))))
        if r < 2 or (c is not None and c < 2):
            raise ValueError("r and c must both be >= 2")
        c = len(query) // r if c is None else c
        if r * c != len(query):
            raise ValueError("query length must equal r*c for table mechanisms")
        geometry = table_geometry("semi", r, c)
        if args.kind == "gaussian":
            if args.mu is None:
                raise ValueError("--mu is required for the gaussian mechanism")
            out = gaussian_semi(query, geometry, args.mu, seed)
        else:
            if args.eps is None:
                raise ValueError("--eps is required for the knorm mechanism")
            out = knorm_optimal(query, geometry, args.eps, seed)
    elif args.kind.startswith("naive-"):
        kind = args.kind.removeprefix("naive-")
        param = args.mu if kind == "gaussian" else args.eps
        if param is None:
            raise ValueError("naive mechanisms need --mu (gaussian) or --eps (lp)")
        group_size = harness.TABLE_GROUP_SIZE if args.group_size is None else args.group_size
        out = NaiveGroupMechanism(kind, group_size, param)(query, seed)
    else:
        if args.eps is None:
            raise ValueError("--eps is required for lp mechanisms")
        p = KIND_NORM[args.kind]
        out = lp_mechanism(query, TABLE_SINGLE_MOVE_SENSITIVITY[p], args.eps, p, seed)
    _emit(args, out.to_json())


def _run_cnd(args: argparse.Namespace) -> None:
    spec = make_cnd(_parse_tradeoff(args.f))
    payload: dict = {"f_family": spec.tradeoff.family, "params": spec.tradeoff.params(), "c": spec.c}
    if args.cdf is not None:
        if not math.isfinite(args.cdf):
            raise ValueError(f"--cdf must be finite, got {args.cdf}")
        payload["x"] = args.cdf
        payload["cdf"] = float(cnd_cdf(spec, args.cdf))
    if args.quantile is not None:
        payload["u"] = args.quantile
        payload["quantile"] = float(cnd_quantile(spec, args.quantile))
    if args.sample is not None:
        draws = cnd_sample(spec, _seed_from(args), args.sample)
        payload["samples"] = list(map(repr, draws.tolist()))
    _emit(args, json.dumps(payload, sort_keys=True))


def _run_test(args: argparse.Namespace) -> None:
    cells = [int(v) for v in args.table.split(",")]
    if len(cells) != 4:
        raise ValueError("--table needs exactly four integers: x11,x12,x21,x22")
    table = Table2x2(*cells)
    f = _parse_tradeoff(args.f)
    spec = make_cnd(f)
    test = umpu_test(table, spec, args.alpha)
    pv = private_pvalue(table, spec, _seed_from(args))
    payload = {
        "phi_star": test.phi_star,
        "m": test.threshold,
        "U": pv.noisy_statistic,
        "p_value": pv.p_value,
        "alpha": args.alpha,
        "f_family": f.family,
        "params": f.params(),
    }
    _emit(args, json.dumps(payload, sort_keys=True))


def _run_experiment(args: argparse.Namespace) -> None:
    values = {"k": args.k, "model": args.model, "mu": args.mu, "eps": args.eps, "replicates": args.replicates}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
        if not isinstance(overrides, dict):
            raise ValueError(f"--config must hold a JSON object, not a {type(overrides).__name__}")
        unread = sorted(set(overrides) - set(values))
        if unread:
            raise ValueError(f"--config does not read {', '.join(map(repr, unread))}; "
                             f"it reads {', '.join(values)}")
        values.update(overrides)
    cfg = harness.ExperimentConfig(**values, seed=_seed_from(args))
    if args.which == "gaussian":
        rows = harness.run_gaussian_experiment(cfg)
    else:
        rows = harness.run_knorm_experiment(cfg)
    if args.format == "json":
        _emit(args, json.dumps(rows, sort_keys=True))
    else:
        _emit(args, harness.rows_to_csv(rows))


def _run_census(args: argparse.Namespace) -> None:
    budget = harness.CensusBudget(
        total_rho=args.rho_person + args.rho_housing,
        components=(("persons", args.rho_person), ("housing_units", args.rho_housing)),
        delta=args.delta,
    )
    _emit(args, json.dumps(harness.census_report(budget), sort_keys=True))


def _run_account(args: argparse.Namespace) -> None:
    payload: dict = {}
    if args.zcdp is not None:
        rho = args.zcdp
        if not 0 <= rho < math.inf:
            raise ValueError(f"--zcdp must be finite and >= 0, got {rho}")
        payload["zcdp"] = {"rho": rho}
        if args.group is not None:
            rho = zcdp_group(rho, args.group)
            payload["zcdp"]["group_size"] = args.group
            payload["zcdp"]["group_rho"] = rho
        if args.delta is not None:
            payload["zcdp"]["delta"] = args.delta
            payload["zcdp"]["epsilon"] = zcdp_to_approx_dp(rho, args.delta)
    if args.gdp is not None:
        f = gaussian_dp(args.gdp)
        payload["gdp"] = {"mu": args.gdp}
        if args.eps is not None:
            payload["gdp"]["epsilon"] = args.eps
            payload["gdp"]["delta"] = gdp_to_approx_dp(args.gdp, args.eps)
        if args.group is not None:
            payload["gdp"]["group_size"] = args.group
            payload["gdp"]["group_mu"] = compose_self(f, args.group).mu
    if not payload:
        raise ValueError("account needs --zcdp or --gdp")
    _emit(args, json.dumps(payload, sort_keys=True))


_RUNNERS = {
    "sens": _run_sens,
    "mech": _run_mech,
    "cnd": _run_cnd,
    "test": _run_test,
    "experiment": _run_experiment,
    "census": _run_census,
    "account": _run_account,
}


def cli_dispatch(argv: list[str]) -> int:
    parser = _build_parser()[0]
    args = _parse_direct(argv)
    try:
        if args is None:
            args = parser.parse_args(argv)
        unread = _unread_flag(args)
        if unread is not None:
            parser.error(unread)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        _RUNNERS[args.command](args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"semidp: error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
