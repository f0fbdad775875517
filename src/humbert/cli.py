"""Command-line surface: evaluate, verify, cross-check.

Machine-readable JSON lines go to stdout (one report per line, sorted by
target id); human-readable summaries go to stderr.  Exit code 0 means every
report passed, 1 means at least one fail, 2 means an error (bad arguments,
unknown target, domain violation).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog as _catalog
from . import identities as _identities
from .errors import HumbertError
from .profiles import load_config, profile_params, resolved_params
from .reports import sort_reports
from .scalars import SYMBOLS, as_scalar, check_count, check_tolerance, \
    to_float
from .series import BIVARIATE_KINDS, KINDS, FunctionRef, SINGLE_KINDS, \
    eval_double_series, eval_single_series

_KIND_BY_CLI = {name.lower(): name for name in KINDS}


def _emit(reports) -> int:
    reports = sort_reports(reports)
    for report in reports:
        print(report.to_json(), file=sys.stdout)
    n_pass = sum(r.status == "pass" for r in reports)
    n_fail = sum(r.status == "fail" for r in reports)
    n_err = sum(r.status == "error" for r in reports)
    print(
        f"{len(reports)} reports: {n_pass} pass, {n_fail} fail, {n_err} error",
        file=sys.stderr,
    )
    if n_err:
        return 2
    return 0 if n_fail == 0 else 1


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    for sym in SYMBOLS:
        parser.add_argument(f"--{sym}", type=str, default=None)


def _collect_params(args) -> dict:
    return {
        sym: as_scalar(getattr(args, sym))
        for sym in SYMBOLS
        if getattr(args, sym) is not None
    }


def cmd_eval(args) -> int:
    kind = _KIND_BY_CLI.get(args.kind.lower())
    if kind is None:
        print(f"unknown kind {args.kind!r}", file=sys.stderr)
        return 2
    check_tolerance(args.tol, "--tol")
    params = _collect_params(args)
    x = to_float(as_scalar(args.x), "x")
    if kind in BIVARIATE_KINDS:
        y = to_float(as_scalar(args.y), "y") if args.y is not None else 0.0
        ref = FunctionRef(kind, params)
        value, diag = eval_double_series(ref, x, y, tol=args.tol)
        payload = {
            "value": value,
            "diagonals": diag["diagonals"],
            "est_error": diag["est_error"],
        }
    else:
        if args.y is not None and to_float(as_scalar(args.y), "y") != 0.0:
            raise HumbertError(f"{kind} takes a single argument; drop --y")
        value, diag = eval_single_series(kind, params, x, tol=args.tol)
        payload = {
            "value": value,
            "terms": diag["terms"],
            "est_error": diag["est_error"],
        }
    print(json.dumps(payload), file=sys.stdout)
    return 0


def cmd_verify(args) -> int:
    if args.scope != "all" and args.id is None:
        print("an id is required unless scope is 'all'", file=sys.stderr)
        return 2
    check_count(args.n, "--n")
    config = load_config(args.config)
    params = profile_params(args.profile, config)
    if args.scope == "all":
        cat = _catalog.load_catalog()
        errata = _catalog.load_errata(config.get("errata"))
        reports = _catalog.verify_all(params, degree=args.n,
                                      catalog=cat, errata=errata)
        reports += _identities.verify_all_identities(params, degree=args.n)
    elif args.scope == "formula":
        reports = [_catalog.verify_formula(args.id, params, degree=args.n)]
    else:  # identity: argparse restricts the scope's choices
        reports = [_identities.verify_operator_identity(
            args.id, params, degree=args.n)]
    return _emit(reports)


def _parse_grid(text: str | None):
    if text is None:
        return None
    try:
        nx, ny = (int(part) for part in text.lower().split("x"))
        if nx < 1 or ny < 1:
            raise ValueError
    except ValueError:
        raise HumbertError(f"bad grid spec {text!r}; expected e.g. 3x3")
    import numpy as np

    xs = np.linspace(0.05, 0.35, nx)
    ys = np.linspace(0.05, 0.35, ny)
    return tuple((float(gx), float(gy)) for gx in xs for gy in ys)


def cmd_integral_check(args) -> int:
    from .quadrature import REP_IDS, cross_check

    rep_ids = REP_IDS if args.rep == "all" else (args.rep,)
    if args.tol is not None:
        check_tolerance(args.tol, "--tol")
    config = load_config(args.config)
    return _emit([
        cross_check(rep_id, resolved_params(args.profile, rep_id, config),
                    grid=_parse_grid(args.grid), tol=args.tol)
        for rep_id in rep_ids])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="humbert",
        description="Evaluate and verify the seven Humbert double "
        "hypergeometric functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one function at a point")
    p_eval.add_argument("kind", help="phi1, phi2, phi3, psi1, psi2, xi1, xi2, "
                        "gauss2f1, kummer1f1, bessel0f1")
    p_eval.add_argument("--x", required=True)
    p_eval.add_argument("--y", default=None)
    p_eval.add_argument("--tol", type=float, default=1e-12)
    _add_param_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser(
        "verify", help="exact verification of formulas and identities"
    )
    p_verify.add_argument("scope", choices=("formula", "identity", "all"))
    p_verify.add_argument("id", nargs="?", default=None)
    p_verify.add_argument("--profile", default="generic-A")
    p_verify.add_argument("--n", type=int, default=8)
    p_verify.add_argument("--config", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_int = sub.add_parser(
        "integral-check",
        help="cross-check integral representations against series values",
    )
    p_int.add_argument("rep", help="a representation id like 4.1, or 'all'")
    p_int.add_argument("--profile", default="generic-A")
    p_int.add_argument("--grid", default=None, help="e.g. 3x3")
    p_int.add_argument("--tol", type=float, default=None)
    p_int.add_argument("--config", default=None)
    p_int.set_defaults(func=cmd_integral_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (HumbertError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
