"""Command-line front end: CSV in, machine-readable JSON out.

Exit codes: 0 success, 1 input or usage error, 2 separated data (fit is
refused unless --force), 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from .core import BinregError, extended_design, read_csv
from .links import LINKS, get_link
from .mle import FitOptions, fit
from .overlap import SEPARATED, cone_overlap, scalar_overlap
from .verify import (gen_balanced, gen_gaussian, gen_overlapping, gen_separated,
                     run_angle_suite, run_sign_suite, run_zero_suite)

SCHEMA = 1

SIGN_LINKS = ("logit", "probit", "cloglog")
CERTIFIED_LINKS = ("logit", "probit", "cloglog", "uniform")
# the links `verify --link certified` runs each theorem's suite on
_VERIFY_LINKS = {"sign": SIGN_LINKS, "zero": CERTIFIED_LINKS, "angle": CERTIFIED_LINKS}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # return a controlled exit code instead of 2
        raise _UsageError(message)


def _clean(value):
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        return None
    if isinstance(value, np.ndarray):
        return [_clean(float(v)) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return _clean(float(value))
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    return value


def _emit(payload: dict, plain: bool, json_out: Optional[str]) -> None:
    payload = _clean(payload)
    text = json.dumps(payload, sort_keys=True)
    if json_out:
        with open(json_out, "w") as fh:
            fh.write(text + "\n")
    if plain:
        for key in sorted(payload):
            print(f"{key}: {payload[key]}")
    else:
        print(text)


def _overlap_report(ds, method: str):
    # "auto" and "cone" are one decision: cone_overlap answers d = 1 itself
    # when its program fails; its report carries the design on to fit
    if method == "scalar":
        return scalar_overlap(ds)
    return cone_overlap(extended_design(ds), ds.y)


def _report_dict(report) -> dict:
    out = {
        "verdict": report.verdict,
        "method": report.method,
        "margin": report.margin,
        "direction_hint": report.direction_hint,
        "bounds": None,
        "certificate": None,
    }
    if report.bounds is not None:
        b = report.bounds
        out["bounds"] = {"L0": b.L0, "U0": b.U0, "L1": b.L1, "U1": b.U1}
    if report.certificate is not None:
        out["certificate"] = {
            "margin": report.margin,
            "residual": report.certificate.residual,
        }
    return out


def _cmd_fit(args) -> int:
    ds = read_csv(args.csv)
    link = get_link(args.link)
    report = _overlap_report(ds, "auto")
    payload = {"schema": SCHEMA, "command": "fit", "link": args.link,
               "overlap": _report_dict(report)}
    if report.verdict == SEPARATED and not args.force:
        payload["status"] = "Separated"
        payload["error"] = "data are separated; no finite maximizer (rerun with --force)"
        _emit(payload, args.plain, args.json_out)
        return 2
    options = FitOptions(tol=args.tol, max_iter=args.max_iter)
    fr = fit(ds, link, options, overlap=report)
    payload.update({
        "alpha": fr.params.alpha,
        "beta": list(fr.params.beta),
        "status": fr.status,
        "loglik": fr.loglik,
        "score_norm": fr.score_norm,
        "iterations": fr.iterations,
        "hessian_condition": fr.hessian_condition,
        "caveat": fr.caveat,
    })
    _emit(payload, args.plain, args.json_out)
    return 0


def _cmd_overlap(args) -> int:
    ds = read_csv(args.csv)
    report = _overlap_report(ds, args.method)
    payload = {"schema": SCHEMA, "command": "overlap"}
    payload.update(_report_dict(report))
    _emit(payload, args.plain, args.json_out)
    return 2 if report.verdict == SEPARATED else 0


def _cmd_verify(args) -> int:
    theorems = list(_VERIFY_LINKS) if args.theorem == "all" else [args.theorem]
    dims = tuple(int(v) if v.strip().isdecimal() else 0 for v in args.dims.split(","))
    # a suite of no trials checks nothing, d = 0 has no predictor, and the
    # suites draw n from max(6, d + 2) to 40, which is empty above d = 38
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if not all(1 <= d <= 38 for d in dims):
        raise ValueError(f"--dims takes integers from 1 to 38, got {args.dims}")
    results = []
    for theorem in theorems:
        names = _VERIFY_LINKS[theorem] if args.link == "certified" else (args.link,)
        for name in names:
            link = get_link(name)
            if theorem == "sign":
                results.append(run_sign_suite(link, args.trials, args.seed))
            elif theorem == "zero":
                results.append(run_zero_suite(link, args.trials, args.seed))
            else:
                results.extend(run_angle_suite(link, d, args.trials, args.seed) for d in dims)
    total_failures = sum(r.failures for r in results)
    payload = {
        "schema": SCHEMA,
        "command": "verify",
        "results": [
            {"theorem": r.theorem, "link": r.link, "d": r.d, "trials": r.trials,
             "passes": r.passes, "failures": r.failures, "skipped": r.skipped,
             "worst_slack": r.worst_slack}
            for r in results
        ],
        "total_failures": total_failures,
    }
    _emit(payload, args.plain, args.json_out)
    return 3 if total_failures > 0 else 0


def _cmd_simulate(args) -> int:
    if args.kind == "overlapping":
        ds = gen_overlapping(args.n, args.d, args.seed)
    elif args.kind == "separated":
        ds = gen_separated(args.n, args.d, args.seed)
    elif args.kind == "balanced":
        ds = gen_balanced(args.n, args.d, args.seed)
    else:
        mu0 = [float(v) for v in args.mu0.split(",")]
        mu1 = [float(v) for v in args.mu1.split(",")]
        ds = gen_gaussian(args.n, mu0, mu1, args.sigma, args.seed)
    lines = [",".join([f"x{j}" for j in range(ds.d)] + ["y"])]
    for i in range(ds.n):
        cells = [repr(float(v)) for v in ds.x[i]] + [str(int(ds.y[i]))]
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="binreg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--plain", action="store_true", help="key: value output instead of JSON")
        p.add_argument("--json-out", default=None, help="also write the JSON report to this path")

    p_fit = sub.add_parser("fit", help="fit an intercept-plus-slope model")
    p_fit.add_argument("--csv", required=True)
    p_fit.add_argument("--link", default="logit", choices=sorted(LINKS))
    p_fit.add_argument("--tol", type=float, default=1e-10)
    p_fit.add_argument("--max-iter", type=int, default=100)
    p_fit.add_argument("--force", action="store_true",
                       help="fit separated data anyway and report the divergence")
    common(p_fit)

    p_overlap = sub.add_parser("overlap", help="check the overlap condition")
    p_overlap.add_argument("--csv", required=True)
    p_overlap.add_argument("--method", default="auto", choices=["auto", "scalar", "cone"])
    common(p_overlap)

    p_verify = sub.add_parser("verify", help="run the estimator property suites")
    p_verify.add_argument("--theorem", default="all", choices=["sign", "zero", "angle", "all"])
    p_verify.add_argument("--link", default="certified")
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--dims", default="2,3")
    common(p_verify)

    p_sim = sub.add_parser("simulate", help="write a seeded synthetic dataset as CSV")
    p_sim.add_argument("--kind", default="overlapping",
                       choices=["overlapping", "separated", "balanced", "gaussian"])
    p_sim.add_argument("--n", type=int, default=40)
    p_sim.add_argument("--d", type=int, default=1)
    p_sim.add_argument("--seed", type=int, default=42)
    p_sim.add_argument("--mu0", default="0")
    p_sim.add_argument("--mu1", default="1")
    p_sim.add_argument("--sigma", type=float, default=1.0)
    p_sim.add_argument("--out", default=None)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    handlers = {"fit": _cmd_fit, "overlap": _cmd_overlap,
                "verify": _cmd_verify, "simulate": _cmd_simulate}
    try:
        return handlers[args.command](args)
    except (BinregError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
