"""Command-line front end.

Subcommands emit machine-readable tables (CSV per RFC 4180, or JSON) so the
results can feed plots and CI gates directly.  Exit codes: 0 success, 2 for
input or flag validation problems, 1 for computational failures; errors are
printed to standard error as ``ERROR <code>: <msg>`` lines.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys

import numpy as np

from .bdp import _check_levels, classify, load_spec, spec_to_dict
from .distribution import _as_dist, tail_asymptotics
from .errors import CycleMaxError
from .extremes import (
    compactness_diagnostic,
    default_norming_kind,
    norming_constants,
    partial_limit_envelope,
)
from .networks import load_network, norton_reduce
from .simulate import SimConfig, empirical_cdf, simulate_cycles, verify_as_convergence
from .verification import run_all

__all__ = ["main"]


def _clean(value):
    """JSON-safe copy: non-finite floats become null, enums their value."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (np.floating, np.integer)):
        return _clean(value.item())
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if hasattr(value, "value") and not isinstance(value, int):  # bools are ints
        return value.value
    return value


def _emit(args, header, rows, json_key):
    """Write rows as CSV (default) or JSON to --out or stdout."""
    fmt = getattr(args, "format", "csv")
    if fmt == "json":
        payload = json.dumps({json_key: [dict(zip(header, _clean(list(r)))) for r in rows]}, indent=2)
        _write_text(args, payload + "\n")
        return
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    _write_text(args, buf.getvalue())


def _emit_object(args, obj):
    _write_text(args, json.dumps(_clean(obj), indent=2) + "\n")


def _write_text(args, text):
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_k_list(raw: str) -> list[int]:
    try:
        ks = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"--k expects comma-separated integers, got {raw!r}") from None
    if not ks or any(k < 1 for k in ks):
        raise ValueError("--k values must be positive integers")
    return ks


def _cmd_classify(args) -> int:
    spec = load_spec(args.spec)
    cls = classify(spec)
    row = {
        "label": spec.label,
        "rho": spec.rho,
        "verdict": cls.verdict.value,
        "B_phi": cls.B_phi,
        "B_psi": cls.B_psi,
        "B_star": cls.B_star,
        "beta": cls.beta,
        "beta_lower": cls.beta_lower,
        "beta_upper": cls.beta_upper,
        "regularity_ok": cls.regularity_ok,
    }
    if args.format == "csv":
        _emit(args, list(row), [list(row.values())], "classification")
    else:
        _emit_object(args, row)
    return 0


def _cmd_cdf(args) -> int:
    spec = load_spec(args.spec)
    dist = _as_dist(spec)
    n = np.arange(1, _check_levels("--nmax", args.nmax if spec.cap is None else min(args.nmax, spec.cap)) + 1)
    columns = (n, dist.cdf(n), dist.conditional_cdf(n), dist.failure_rate(n), dist.blocking_prob(n))
    rows = list(zip(*(c.tolist() for c in columns)))
    _emit(args, ["n", "cdf", "conditional_cdf", "failure_rate", "blocking_prob"], rows, "cdf")
    return 0


def _cmd_tail(args) -> int:
    if args.format == "csv":
        raise ValueError("tail emits a JSON summary; csv is not supported here")
    spec = load_spec(args.spec)
    _emit_object(args, dataclasses.asdict(tail_asymptotics(spec, n_probe=args.nmax)))
    return 0


def _cmd_extremes(args) -> int:
    spec = load_spec(args.spec)
    if args.table == "norming":
        ks = _parse_k_list(args.k)
        kind = default_norming_kind(spec)
        constants = norming_constants(spec, kind, ks)
        _emit(args, ["k", "a_k", "b_k"], list(constants.rows()), "norming")
        return 0
    if args.table == "envelope":
        xs = [x / 2.0 for x in range(-4, 11)]
        rows = []
        for x in xs:
            lo, hi = partial_limit_envelope(spec, x)
            rows.append((x, lo, hi))
        _emit(args, ["x", "lower", "upper"], rows, "envelope")
        return 0
    if args.format == "csv":
        raise ValueError("the compactness report is a JSON document; csv is not supported")
    report = compactness_diagnostic(spec, delta=args.delta)
    _emit_object(args, report.to_dict())
    return 0


def _cmd_simulate(args) -> int:
    spec = load_spec(args.spec)
    if args.k:
        ks = _parse_k_list(args.k)
        cfg = SimConfig(seed=args.seed)
        rows = [
            (r.k, r.mean_ratio, r.median_ratio, r.q05, r.q95)
            for r in verify_as_convergence(spec, ks, reps=args.reps, cfg=cfg)
        ]
        _emit(args, ["k", "mean_ratio", "median_ratio", "q05", "q95"], rows, "convergence")
        return 0
    levels = np.arange(1, _check_levels("--nmax", args.nmax) + 1)
    cfg = SimConfig(seed=args.seed, cycles=args.reps)
    sample = simulate_cycles(spec, cfg)
    if sample.escaped:  # an escape lies above every level below the horizon, and past it is unknown
        levels = levels[levels < cfg.escape_horizon]
        sys.stderr.write(f"WARNING: {sample.escaped} of {sample.cycles} cycles escaped at {cfg.escape_horizon}\n")
    dist = _as_dist(spec)
    emp = empirical_cdf(sample.maxima, levels, sample.cycles)
    exact = dist.cdf(levels)
    rows = list(zip(levels.tolist(), emp.tolist(), exact.tolist(), np.abs(emp - exact).tolist()))
    _emit(args, ["n", "empirical_cdf", "exact_cdf", "abs_err"], rows, "simulate")
    return 0


def _cmd_network_reduce(args) -> int:
    net = load_network(args.infile)
    reduction = norton_reduce(net, n_max=_check_levels("--nmax", args.nmax))
    _emit_object(args, spec_to_dict(reduction.induced))
    return 0


def _cmd_verify(args) -> int:
    results = run_all(suite=args.suite, seed=args.seed)
    width = max(len(r.name) for r in results)
    blocking = 0
    for r in results:
        status = "PASS" if r.passed else ("XFAIL" if r.expected_failure else "FAIL")
        blocking += r.blocking
        sys.stdout.write(f"{status:5s} {r.name:{width}s} {r.seconds:8.2f}s  {r.detail}\n")
    sys.stdout.write(
        f"{len(results) - blocking}/{len(results)} checks acceptable "
        f"({blocking} blocking failure{'s' if blocking != 1 else ''})\n"
    )
    return 1 if blocking else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclemax",
        description="Cycle maxima of birth-death chains: exact laws, extremes, networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--spec", required=True, help="birth-death spec JSON file")
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("classify", help="series classification and tail geometry")
    add_common(p)
    p.set_defaults(func=_cmd_classify, format="json")

    p = sub.add_parser("cdf", help="exact cycle-maximum distribution table")
    add_common(p)
    p.add_argument("--nmax", type=int, default=50, help="highest level in the table")
    p.set_defaults(func=_cmd_cdf)

    p = sub.add_parser("tail", help="tail regime and limit constants (JSON)")
    add_common(p)
    p.add_argument("--nmax", type=int, default=400, help="probe depth for limits")
    p.set_defaults(func=_cmd_tail, format="json")

    p = sub.add_parser("extremes", help="norming constants, envelope, or compactness")
    add_common(p)
    p.add_argument(
        "--table",
        choices=("norming", "envelope", "compactness"),
        default="norming",
    )
    p.add_argument("--k", default="1000,100000,10000000", help="comma-separated cycle counts")
    p.add_argument("--delta", type=float, default=2.0, help="compactness exponent")
    p.set_defaults(func=_cmd_extremes)

    p = sub.add_parser("simulate", help="Monte-Carlo cycle maxima vs the exact law")
    add_common(p)
    p.add_argument("--k", default="", help="cycle counts for the convergence table")
    p.add_argument("--reps", type=int, default=10_000, help="cycles, or replications with --k")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nmax", type=int, default=20, help="highest level in the table")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("network-reduce", help="reduce a network file to an induced spec")
    p.add_argument("--in", dest="infile", required=True, help="network JSON file")
    p.add_argument("--nmax", type=int, default=500, help="aggregate table length")
    p.add_argument("--out", help="write the induced spec here instead of stdout")
    p.set_defaults(func=_cmd_network_reduce, format="json")

    p = sub.add_parser("verify", help="run the acceptance checks and print a table")
    p.add_argument("--suite", choices=("fast", "full"), default="fast")
    p.add_argument("--seed", type=int, default=None, help="override the pinned seeds")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # input errors first: several CycleMaxError subclasses are ValueErrors
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        err, code = exc, 2
    except (CycleMaxError, ArithmeticError) as exc:
        err, code = exc, 1
    sys.stderr.write(f"ERROR {type(err).__name__}: {err}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
