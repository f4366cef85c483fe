"""Command-line front end: expansion, verification, coefficient tables, numeric checks.

Exit codes: 0 all requested checks passed; 1 at least one verification
failed (reports are still emitted); 2 usage or builder error; 141 (128 +
SIGPIPE, as for a process the signal ends) when the reader closed the output
early, as ``head`` does, with nothing on stderr.  Identical
invocations produce byte-identical output (numeric checks are seeded), so
both text and JSON forms are suitable for golden-file testing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional

from . import numeric
from .arith import KERNELS, divisor_sum, partition_p
from .catalog import (AS_STATED, catalog as catalog_entries, lookup, report_to_dict,
                      report_to_text, verify_ids)
from .cyclo import Rat, render_rational
from .series import FracSeries
from .theta import char, eta_q, eta_quotient, theta_const, theta_const_product


def _parse_rational(text: str) -> Rat:
    """An int, or a Fraction (importing ``fractions`` only then) for "1/5" or "0.2"."""
    try:
        return int(text)
    except ValueError:
        from fractions import Fraction
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _parse_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {n}")
    return n


def _parse_tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not (tol > 0 and math.isfinite(tol)):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return tol


def _parse_char(text: str) -> tuple[Rat, Rat]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"characteristic must be 'eps,eps_prime', got {text!r}")
    return _parse_rational(parts[0]), _parse_rational(parts[1])


def _parse_eta_spec(text: str) -> list[tuple[Rat, int]]:
    # pairs "mult:exp" separated by ","; a multiplier may be a fraction such as 1/5
    out = []
    for item in text.split(","):
        if not item:
            continue
        try:
            mult_s, exp_s = item.split(":")
            out.append((_parse_rational(mult_s), int(exp_s)))
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise argparse.ArgumentTypeError(
                f"bad eta-quotient spec item {item!r}; expected 'mult:exp'") from exc
    if not out:
        raise argparse.ArgumentTypeError("empty eta-quotient spec")
    return out


def series_to_dict(f: FracSeries) -> dict:
    return {
        "cpow": f.cpow,
        "phase": render_rational(f.phase.num, f.phase.den),
        "qpow": render_rational(*f._qpow),
        "scale": f.scale,
        "order": None if f._order is None else render_rational(*f._order),
        "coeffs": {str(k): [render_rational(x, f.den) for x in f.tail[k]]
                   for k in sorted(f.tail)},
    }


def _emit(payload, fmt: str, out) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, ensure_ascii=False), file=out)


def _cmd_list(args, out) -> int:
    entries = catalog_entries()
    if args.format == "json":
        _emit([{"id": e.id, "location": e.location, "title": e.title,
                "variants": list(e.variants),
                "min_order": e.min_meaningful_order} for e in entries],
              "json", out)
    else:
        for e in entries:
            v = ",".join(e.variants)
            print(f"{e.id:6s} {e.location:36s} variants={v:21s} {e.title}", file=out)
        print(f"{len(entries)} entries; numeric checks: "
              + " ".join(numeric.numeric_check_ids()), file=out)
    return 0


def _cmd_expand(args, out) -> int:
    order = args.order
    if args.deriv and args.object != "theta":
        raise ValueError("expand --deriv applies only to --object theta")
    if args.object == "theta":
        if args.char is None:
            raise ValueError("expand --object theta requires --char eps,eps'")
        f = theta_const(char(*args.char), args.deriv, order)
        desc = {"object": "theta", "char": [str(c) for c in args.char],
                "deriv": args.deriv}
    elif args.object == "theta-product":
        if args.char is None:
            raise ValueError("expand --object theta-product requires --char eps,eps'")
        f = theta_const_product(char(*args.char), order)
        desc = {"object": "theta-product", "char": [str(c) for c in args.char]}
    elif args.object == "eta":
        f = eta_q(args.mult, order, args.offset)
        desc = {"object": "eta", "mult": str(args.mult), "offset": str(args.offset)}
    elif args.object == "eta-quotient":
        if args.spec is None:
            raise ValueError("expand --object eta-quotient requires --spec")
        f = eta_quotient(args.spec, order)
        desc = {"object": "eta-quotient",
                "spec": [[str(m), e] for m, e in args.spec]}
    else:
        raise ValueError(f"unknown object {args.object!r}")
    if args.format == "json":
        desc["series"] = series_to_dict(f)
        _emit(desc, "json", out)
    else:
        print(f.render(), file=out)
    return 0


def _numeric_result_as_report_dict(res: numeric.NumericCheckResult) -> dict:
    mismatch = None
    if not res.passed:
        mismatch = {"exponent": None, "lhs": None, "rhs": None,
                    "label": "residual",
                    "reason": f"residual {res.value:.3e} >= tolerance {res.tolerance:.1e}"}
    return {
        "id": res.id,
        "location": f"numeric: {res.description}",
        "variant": "numeric",
        "passed": res.passed,
        "order": None,
        "first_mismatch": mismatch,
    }


def _cmd_verify(args, out) -> int:
    reports = []
    failed = False
    run_all = args.all or not args.id
    known = [e.id for e in catalog_entries()]
    ids = known if run_all else args.id
    # an unknown id ends the run: the ids before it are verified and reported
    n = next((i for i, entry_id in enumerate(ids) if entry_id not in known), len(ids))
    for r in verify_ids(ids[:n], args.order, args.variant):
        reports.append(report_to_dict(r))
        failed |= not r.passed
        if args.format == "text":
            print(report_to_text(r), file=out)
    if n < len(ids):
        lookup(ids[n])  # raises the usage error
    if run_all and not args.exact_only:
        cfg = numeric.NumericConfig(rng_seed=args.seed)
        for check_id in numeric.numeric_check_ids():
            res = numeric.run_numeric_check(check_id, cfg=cfg)
            reports.append(_numeric_result_as_report_dict(res))
            failed |= not res.passed
            if args.format == "text":
                status = "pass" if res.passed else "FAIL"
                print(f"{res.id:6s} [numeric   ] {status}  residual={res.value:.3e} "
                      f"tol={res.tolerance:.1e} seed={res.seed}", file=out)
    _emit(reports, args.format, out)
    return 1 if failed else 0


def _cmd_coeffs(args, out) -> int:
    rows = [(n, divisor_sum(args.kernel, n)) for n in range(1, args.upto + 1)]
    if args.format == "json":
        _emit({"kernel": args.kernel,
               "values": {str(n): render_rational(v) for n, v in rows}}, "json", out)
    else:
        for n, v in rows:
            print(f"{n} {render_rational(v)}", file=out)
    return 0


def _cmd_partitions(args, out) -> int:
    rows = [(n, partition_p(n)) for n in range(args.upto + 1)]
    if args.format == "json":
        _emit({"values": {str(n): str(v) for n, v in rows}}, "json", out)
    else:
        for n, v in rows:
            print(f"{n} {v}", file=out)
    return 0


def _cmd_numeric_check(args, out) -> int:
    ids = args.id or numeric.numeric_check_ids()
    cfg = numeric.NumericConfig(rng_seed=args.seed)
    failed = False
    results = []
    for check_id in ids:
        res = numeric.run_numeric_check(check_id, samples=args.samples, cfg=cfg,
                                        tolerance=args.tol)
        failed |= not res.passed
        results.append({
            "id": res.id, "description": res.description,
            "residual": f"{res.value:.6e}", "tolerance": f"{res.tolerance:.1e}",
            "passed": res.passed, "seed": res.seed, "samples": res.samples,
        })
        if args.format == "text":
            status = "pass" if res.passed else "FAIL"
            print(f"{res.id:4s} {status}  residual={res.value:.3e} "
                  f"tol={res.tolerance:.1e} samples={res.samples} seed={res.seed}  "
                  f"{res.description}", file=out)
    _emit(results, args.format, out)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="theta5",
        description="Exact q-series engine over Q(zeta_5): expansion, identity "
                    "verification, coefficient tables, numeric checks.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_format(sp):
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("list", help="list the identity catalog")
    add_format(sp)
    sp.set_defaults(fn=_cmd_list)

    sp = sub.add_parser("expand", help="expand a theta constant, eta, or eta quotient")
    sp.add_argument("--object", required=True,
                    choices=("theta", "theta-product", "eta", "eta-quotient"))
    sp.add_argument("--char", type=_parse_char, help="characteristic 'eps,eps_prime'")
    sp.add_argument("--deriv", type=int, default=0, help="z-derivative order (theta only)")
    sp.add_argument("--mult", type=_parse_rational, default=1,
                    help="eta multiplier m in eta(m*tau)")
    sp.add_argument("--offset", type=_parse_rational, default=0,
                    help="eta offset s in eta(m*tau + s)")
    sp.add_argument("--spec", type=_parse_eta_spec,
                    help="eta-quotient spec 'mult:exp,mult:exp' (e.g. '5:5,1:-1')")
    sp.add_argument("--order", type=_parse_rational, default=20)
    add_format(sp)
    sp.set_defaults(fn=_cmd_expand)

    sp = sub.add_parser("verify", help="verify catalog identities")
    sp.add_argument("--id", nargs="+", help="identity ids (default: --all)")
    sp.add_argument("--all", action="store_true", help="verify the whole catalog")
    sp.add_argument("--order", type=_parse_rational, default=20,
                    help="q-orders to compare (clamped up to each entry's minimum)")
    sp.add_argument("--variant", choices=(AS_STATED, "corrected"), default=AS_STATED)
    sp.add_argument("--exact-only", action="store_true",
                    help="with --all, skip the numeric checks")
    sp.add_argument("--seed", type=int, default=numeric.DEFAULT_CONFIG.rng_seed)
    add_format(sp)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("coeffs", help="divisor-sum kernel tables")
    sp.add_argument("--kernel", required=True, choices=KERNELS)
    sp.add_argument("--upto", type=_parse_count, required=True)
    add_format(sp)
    sp.set_defaults(fn=_cmd_coeffs)

    sp = sub.add_parser("partitions", help="partition numbers p(0..N)")
    sp.add_argument("--upto", type=_parse_count, required=True)
    add_format(sp)
    sp.set_defaults(fn=_cmd_partitions)

    sp = sub.add_parser("numeric-check", help="seeded floating-point checks")
    sp.add_argument("--id", nargs="+", help="check ids (N1..N6; default all)")
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--seed", type=int, default=numeric.DEFAULT_CONFIG.rng_seed)
    sp.add_argument("--tol", type=_parse_tolerance, default=None)
    add_format(sp)
    sp.set_defaults(fn=_cmd_numeric_check)

    return p


def run(argv: Optional[list[str]] = None, out=None) -> int:
    """Parse and execute; returns the exit code (0 ok, 1 failed checks, 2 errors)."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args, out)
    except (KeyError, ValueError, ArithmeticError) as exc:
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout once more at exit; send that flush nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
