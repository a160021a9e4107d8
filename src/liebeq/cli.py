"""Command-line front end with deterministic JSON reports.

Subcommands map one-to-one onto library operations:

  constants        closed-form constants C, L, composition constant, FT coefficient
  verify-solution  residual certification of a named solution
  riesz            radial potential values (Tf)(r)
  identity         commutativity / orthogonality / composite-form checks
  corollary        the order-zero cross identity between the two solutions
  regularity       weighted norm, kernel growth, translation annihilation
  scan             decay / singularity scan of a named solution
  solve            bounded-domain solver on an interval

Exit codes: 0 when every verdict is positive (Verified / Convergent /
Computed), 1 on any Refuted, NonPositive, Failed or Inconclusive result
(the report's verdict is the first of these that some result has; a
NonConvergent quadrature, or a value beyond the float range such as the
constants at n = 52, lambda = 50.96, prints one error line instead of a
report), 2 on usage or configuration errors, and 3 when the only results are
NotApplicable (screen-rejected instances).

Reports are JSON with stable keys; floats serialize at full round-trip
precision (up to 17 significant digits).  With --no-timestamp the output
of identical invocations is byte-identical.  An optional key=value config
file supplies defaults; explicit flags win.  A subcommand takes only the
options it reads: --rel-tol (echoed as quadrature.rel_tol) on
verify-solution and riesz, --tolerance on verify-solution, identity and
corollary, and --exponent and --amplitude on riesz with --which power only.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time

import numpy as np

from .identities import (ZERO_TOLERANCE, check_commutativity, check_composite,
                         check_orthogonality, parse_form, solution_descriptor)
from .quadrature import NonConvergent
from .radial_riesz import RadialProfile, ScreenRejected, riesz_potential_radial
from .regularity import (Domain1D, _kernel_sample, decay_singularity_scan,
                         kernel_growth_check, translation_annihilation_check, weighted_norm)
from .solutions import check_tolerance, lieb_solution, singular_solution, verify_solution
from .solver import NonPositive, SolverConfig, picard_solve
from .specfun import (Params, ft_riesz_coefficient, lieb_constant_C, lieb_constant_L,
                      riesz_power_constant)

__all__ = ["main", "console_main", "load_report"]

_FAILURE_VERDICTS = ("Refuted", "NonPositive", "Failed", "Inconclusive")  # by precedence


class _UsageError(Exception):
    pass


def _profile_by_name(which: str, params: Params) -> RadialProfile:
    # the parser's choices, and _read_config's check of them, allow no other name
    return singular_solution(params) if which == "singular" else lieb_solution(params)


def _floats(csv: str) -> list:
    try:
        return [float(tok) for tok in csv.split(",") if tok.strip()]
    except ValueError as exc:
        raise _UsageError(f"cannot parse number list {csv!r}") from exc


def _parse_domain(text: str) -> Domain1D:
    kind, _, rest = text.partition(":")
    if kind not in ("interval", "ball"):
        raise _UsageError(f"unknown domain kind {kind!r} (interval:a,b or ball:n,R)")
    try:
        first, second = rest.split(",")
        numbers = (float(first) if kind == "interval" else int(first), float(second))
    except ValueError as exc:
        raise _UsageError(f"cannot parse domain {text!r}") from exc
    return getattr(Domain1D, kind)(*numbers)  # a ValueError names a bad domain


def _json_ready(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _json_ready({f.name: getattr(obj, f.name)
                            for f in dataclasses.fields(obj) if not f.name.startswith("_")})
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
    return obj


def load_report(path: str) -> dict:
    """Read a report back; values and verdicts round-trip exactly."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _overall_verdict(verdicts) -> str:
    verdicts = list(verdicts)
    for failing in _FAILURE_VERDICTS:
        if failing in verdicts:
            return failing
    if all(v == "NotApplicable" for v in verdicts):
        return "NotApplicable"
    if all(v in ("Computed", "Converged", "NotApplicable") for v in verdicts):
        return "Computed"
    return "Verified"


def _exit_code(overall: str) -> int:
    return {"Verified": 0, "Computed": 0, "NotApplicable": 3}.get(overall, 1)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (inputs, results, tolerances, err_estimates)

def _run_constants(args, params):
    k = riesz_power_constant(params.n, params.lam, params.n - 0.5 * params.lam)
    results = [
        {"name": "lieb_constant_C", "value": lieb_constant_C(params), "verdict": "Computed"},
        {"name": "lieb_constant_L", "value": lieb_constant_L(params), "verdict": "Computed"},
        {"name": "riesz_composition_constant", "value": k, "verdict": "Computed"},
        {"name": "ft_riesz_coefficient", "value": ft_riesz_coefficient(params.n, params.lam),
         "verdict": "Computed"},
    ]
    return {}, results, {}, []


def _run_verify_solution(args, params):
    f = _profile_by_name(args.which, params)
    radii = _floats(args.radii)
    report = verify_solution(f, params, radii, args.tolerance, args.rel_tol)
    result = _json_ready(report)
    result["name"] = f"verify-{args.which}"
    return ({"which": args.which, "radii": radii},
            [result],
            {"tolerance": args.tolerance},
            list(report.err_estimates))


def _run_riesz(args, params):
    check_tolerance(args.rel_tol)
    power = {}
    if args.which == "power":
        if args.exponent is None:
            raise _UsageError("--which power requires --exponent")
        power = {"exponent": args.exponent,
                 "amplitude": 1.0 if args.amplitude is None else args.amplitude}
        f = RadialProfile.power_singular(power["amplitude"], power["exponent"])
    else:
        given = [f"--{name}" for name in ("exponent", "amplitude")
                 if getattr(args, name) is not None]
        if given:
            raise _UsageError(f"--which {args.which} takes no {' or '.join(given)}")
        f = _profile_by_name(args.which, params)
    radii = _floats(args.r)
    if not radii:
        raise _UsageError("need at least one sample radius")
    results, errs = [], []
    for r in radii:
        try:
            value, err = riesz_potential_radial(f, params, r, args.rel_tol)
            outcome = {"verdict": "Computed"}
        except ScreenRejected as exc:  # this radius only; the others still run
            value = err = math.nan
            outcome = {"verdict": "NotApplicable", "message": str(exc)}
        results.append({"name": f"potential(r={r!r})", "r": r, "value": value,
                        "err_estimate": err, **outcome})
        errs.append(err)
    return {"which": args.which, "r": radii, **power}, results, {}, errs


def _identity_result(report) -> dict:
    return {**_json_ready(report), "name": report.identity_id}


def _run_identity(args, params):
    fdesc = solution_descriptor(_profile_by_name(args.f, params), params, args.f)
    gdesc = solution_descriptor(_profile_by_name(args.g, params), params, args.g)
    if args.kind == "commutativity":
        reports = [check_commutativity(fdesc, gdesc, args.alpha, args.beta, params,
                                       tolerance=args.tolerance)]
    elif args.kind == "orthogonality":
        reports = [check_orthogonality(fdesc, args.alpha, args.beta, params,
                                       tolerance=args.tolerance)]
    else:  # composite; the parser's choices allow no other kind
        lam_form = parse_form(args.form_lambda, params.n)
        omega_form = parse_form(args.form_omega, params.n)
        reports = check_composite(fdesc, gdesc, lam_form, omega_form, params,
                                  tolerance=args.tolerance)
    inputs = {"kind": args.kind, "f": args.f, "g": args.g,
              "alpha": args.alpha, "beta": args.beta,
              "form_lambda": args.form_lambda, "form_omega": args.form_omega}
    errs = [max(r.err_lhs, r.err_rhs) for r in reports]
    return (inputs, [_identity_result(r) for r in reports],
            {"tolerance": args.tolerance, "zero_tolerance": ZERO_TOLERANCE}, errs)


def _run_corollary(args, params):
    fdesc = solution_descriptor(singular_solution(params), params, "singular")
    gdesc = solution_descriptor(lieb_solution(params), params, "lieb")
    report = check_commutativity(fdesc, gdesc, 0, 0, params, tolerance=args.tolerance)
    return ({"f": "singular", "g": "lieb", "alpha": 0, "beta": 0},
            [_identity_result(report)],
            {"tolerance": args.tolerance},
            [max(report.err_lhs, report.err_rhs)])


def _run_regularity(args, params):
    results, errs = [], []
    if args.check == "norm":
        u = _profile_by_name(args.which, params)
        G = _parse_domain(args.domain)
        if G.n != params.n:  # the weights and nu < n read G.n, the profile params.n
            raise _UsageError(f"domain {args.domain!r} has dimension {G.n}, "
                              f"but --n is {params.n}")
        res = weighted_norm(u, args.m, args.nu, G)
        out = _json_ready(res)
        out["name"] = f"weighted-norm-{args.which}"
        out["verdict"] = "Computed"
        results.append(out)
    elif args.check == "kernel-growth":
        rep = kernel_growth_check(params, args.m)
        out = _json_ready(rep)
        out["name"] = "kernel-growth"
        out["verdict"] = "Verified" if rep.max_deviation <= 1e-10 else "Refuted"
        results.append(out)
    else:  # translation; the parser's choices allow no other check
        xs, gaps, _ = _kernel_sample()
        worst = translation_annihilation_check(params, list(zip(xs, xs - gaps)))
        results.append({"name": "translation-annihilation", "max_abs": worst,
                        "verdict": "Verified" if worst <= 1e-8 else "Refuted"})
    return ({"check": args.check}, results, {}, errs)


def _run_scan(args, params):
    f = _profile_by_name(args.which, params)
    threshold = args.threshold if args.threshold is not None \
        else 1e3 * float(f.value(1.0))
    rep = decay_singularity_scan(f, args.r_outer, threshold)
    out = _json_ready(rep)
    out["name"] = f"scan-{args.which}"
    out["verdict"] = "Verified" if rep.decay_verified else "Refuted"
    return ({"which": args.which, "r_outer": args.r_outer, "threshold": threshold},
            [out], {}, [])


def _run_solve(args, params):
    G = Domain1D.interval(args.a, args.b)
    config = SolverConfig(domain=G, grid_size=args.grid_size, stop_tol=args.stop_tol)
    inputs = {"a": args.a, "b": args.b, "grid_size": args.grid_size,
              "stop_tol": args.stop_tol}
    try:
        solution, trace = picard_solve(config, params)
    except NonPositive as exc:
        results = [{"name": "solve", "verdict": "NonPositive",
                    "message": str(exc),
                    "residuals": list(getattr(exc.trace, "residuals", []) or [])}]
        return inputs, results, {"stop_tol": args.stop_tol}, []
    results = [{
        "name": "solve",
        "verdict": "Converged" if trace.converged else "Failed",
        "iterations": trace.iterations,
        "final_residual": trace.residuals[-1],
        "x": list(solution.x),
        "values": list(solution.values),
    }]
    return inputs, results, {"stop_tol": args.stop_tol}, []


# ---------------------------------------------------------------------------
# argument plumbing

def _add_common(sub):
    sub.add_argument("--n", type=int, default=1, help="space dimension")
    sub.add_argument("--lambda", dest="lam", type=float, default=0.5,
                     help="kernel exponent in (0, n)")
    sub.add_argument("--out", default=None, help="write the JSON report here")
    sub.add_argument("--no-timestamp", action="store_true")
    sub.add_argument("--config", default=None, help="key=value defaults file")


def _build_parser():
    """The argument parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="liebeq",
        description="Verification toolkit for the weakly singular convolution equation")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("constants", help="closed-form constants")
    _add_common(sub)

    sub = subs.add_parser("verify-solution", help="certify a named solution")
    _add_common(sub)
    sub.add_argument("--rel-tol", type=float, default=1e-9)
    sub.add_argument("--tolerance", type=float, default=1e-6)
    sub.add_argument("--which", choices=("singular", "lieb"), default="singular")
    sub.add_argument("--radii", default="0.5,1,2,5")

    sub = subs.add_parser("riesz", help="evaluate the radial potential")
    _add_common(sub)
    sub.add_argument("--rel-tol", type=float, default=1e-9)
    sub.add_argument("--which", choices=("singular", "lieb", "power"), default="singular")
    sub.add_argument("--exponent", type=float, default=None)
    sub.add_argument("--amplitude", type=float, default=None)
    sub.add_argument("--r", default="1.0")

    sub = subs.add_parser("identity", help="integral identity checks")
    _add_common(sub)
    sub.add_argument("--tolerance", type=float, default=1e-6)
    sub.add_argument("--kind", choices=("commutativity", "orthogonality", "composite"),
                     default="commutativity")
    sub.add_argument("--f", choices=("singular", "lieb"), default="lieb")
    sub.add_argument("--g", choices=("singular", "lieb"), default="lieb")
    sub.add_argument("--alpha", type=int, default=0)
    sub.add_argument("--beta", type=int, default=0)
    sub.add_argument("--form-lambda", default="d1")
    sub.add_argument("--form-omega", default="d1")

    sub = subs.add_parser("corollary", help="order-zero cross identity")
    _add_common(sub)
    sub.add_argument("--tolerance", type=float, default=1e-6)

    sub = subs.add_parser("regularity", help="weighted norms and kernel checks")
    _add_common(sub)
    sub.add_argument("--check", choices=("norm", "kernel-growth", "translation"),
                     default="kernel-growth")
    sub.add_argument("--which", choices=("singular", "lieb"), default="lieb")
    sub.add_argument("--m", type=int, default=2)
    sub.add_argument("--nu", type=float, default=0.5)
    sub.add_argument("--domain", default="ball:1,1")

    sub = subs.add_parser("scan", help="decay / singularity scan")
    _add_common(sub)
    sub.add_argument("--which", choices=("singular", "lieb"), default="singular")
    sub.add_argument("--r-outer", type=float, default=1e3)
    sub.add_argument("--threshold", type=float, default=None)

    sub = subs.add_parser("solve", help="bounded-domain solver")
    _add_common(sub)
    sub.add_argument("--a", type=float, default=-1.0)
    sub.add_argument("--b", type=float, default=1.0)
    sub.add_argument("--grid-size", type=int, default=201)
    sub.add_argument("--stop-tol", type=float, default=1e-8)

    return parser, subs.choices


def _read_config(path: str, options: dict) -> dict:
    """Config-file values by option dest.

    options maps each dest of the subcommand's parser to its action; a key
    must name one of them, and its value is converted by that option's own
    type.
    """
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise _UsageError(f"bad config line {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key == "lambda":  # reserved word; the parser dest is lam
                key = "lam"
            action = options.get(key)
            if action is None or key in ("help", "config"):
                raise _UsageError(f"unknown config key {key!r} for this subcommand")
            value = value.strip()
            if action.nargs == 0:  # on/off flag
                value = value.lower() in ("1", "true", "yes")
            elif action.type is not None:
                try:
                    value = action.type(value)
                except ValueError as exc:
                    raise _UsageError(f"bad value {value!r} for config key {key!r}") from exc
            if action.choices is not None and value not in action.choices:
                raise _UsageError(f"bad value {value!r} for config key {key!r}")
            values[key] = value
    return values


_HANDLERS = {
    "constants": _run_constants,
    "verify-solution": _run_verify_solution,
    "riesz": _run_riesz,
    "identity": _run_identity,
    "corollary": _run_corollary,
    "regularity": _run_regularity,
    "scan": _run_scan,
    "solve": _run_solve,
}


def main(argv=None) -> int:
    """Entry point; returns the exit code (0/1/2/3 as documented above)."""
    parser, subparsers = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.config:
            # config values become the parser's defaults, so explicit flags win
            sub = subparsers[args.subcommand]
            sub.set_defaults(**_read_config(args.config, {a.dest: a for a in sub._actions}))
            args = parser.parse_args(argv)
        params = Params(args.n, args.lam)
        inputs, results, tolerances, errs = _HANDLERS[args.subcommand](args, params)
    except (_UsageError, ValueError, OSError) as exc:
        print(f"liebeq: error: {exc}", file=sys.stderr)
        return 2
    except NonConvergent as exc:  # a failed result, not a usage error
        print(f"liebeq: error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:  # so is a value beyond the float range
        print(f"liebeq: error: a value overflows the float range: {exc}", file=sys.stderr)
        return 1

    overall = _overall_verdict(r.get("verdict", "Computed") for r in results)
    payload = {
        "subcommand": args.subcommand,
        "params": {"n": params.n, "lambda": params.lam, "p": params.p},
        "inputs": _json_ready(inputs),
        "results": _json_ready(results),
        "verdict": overall,
        "tolerances": _json_ready(tolerances),
        "quadrature": {"err_estimates": _json_ready(errs)},
    }
    if "rel_tol" in args:
        payload["quadrature"]["rel_tol"] = args.rel_tol
    if not args.no_timestamp:
        payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return _exit_code(overall)


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
