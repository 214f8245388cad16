"""Command-line front end: catalog dumps, verification suites, CSV exports.

`verify` runs the check registry of focklab.checks.  Reports are
deterministic given the flags: every check is exact or fixed-grid, with no
sampling and no seed.  Checks are emitted as a flat list sorted by id under
{"schema_version": 1, ...}, and the JSON is written whatever the outcome.
Exit code 0 means every check passed, 1 that at least one failed or raised
(status "error"), 2 a usage error or a selection that matches no check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction

from focklab import checks, kernel, sl2
from focklab.jordan import build_case, default_catalog
from focklab.report import CheckReport


def _parse_q(text: str) -> tuple[Fraction, ...]:
    """--q: comma-separated rationals such as "1,1/2"; anything else is a usage error."""
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"invalid --q {text!r}: {exc}") from None


def _grid_size(text: str) -> int:
    """--grid: an integer of at least 2, the two ends of the log-u grid."""
    try:
        grid = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid --grid {text!r}") from None
    if grid < 2:
        raise argparse.ArgumentTypeError(f"--grid must be at least 2, got {grid}")
    return grid


def _case_from_args(args) -> "object":
    kw = {}
    if getattr(args, "p", None) is not None:
        kw["p"] = args.p
    if getattr(args, "p1", None) is not None:
        kw["p1"] = args.p1
    if getattr(args, "p2", None) is not None:
        kw["p2"] = args.p2
    variant = getattr(args, "variant", "") or ""
    if not variant and getattr(args, "d", None) is not None:
        variant = {1: "a", 2: "b", 4: "c", 8: "d"}[args.d]
    if variant:
        kw["variant"] = variant
    return build_case(args.case, **kw)


def run_suites(names: list[str], opts: dict, jobs: int = 1) -> list[CheckReport]:
    """Reports of the named suites, selected by opts["case"] and opts["q"], sorted by id."""
    if jobs > 1 and len(names) > 1:
        import multiprocessing as mp

        with mp.Pool(min(jobs, len(names))) as pool:
            results = pool.starmap(checks.run_suite, [(n, opts) for n in names])
    else:
        results = [checks.run_suite(n, opts) for n in names]
    return sorted((c for group in results for c in group), key=lambda c: c.id)


# -- commands -------------------------------------------------------------------


def cmd_catalog(args) -> int:
    if args.case:
        cases = [_case_from_args(args)]
    else:
        cases = default_catalog()
    payload = {"schema_version": 1, "cases": [c.to_dict() for c in cases]}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_verify(args) -> int:
    names = list(checks.SUITES) if args.suite == "all" else [args.suite]
    opts = {
        "precision": args.precision,
        "trunc": args.trunc,
        "m_max": args.m_max,
        "case": args.case or None,
        "q": args.q,
    }
    reports = run_suites(names, opts, jobs=args.jobs)
    n_fail = sum(1 for c in reports if c.status == "fail")
    n_error = sum(1 for c in reports if c.status == "error")
    for c in reports:
        print(f"[{c.status.upper():4s}] {c.id}" + (f"  {c.details}" if c.details else ""))
    print(f"{len(reports)} checks: {len(reports) - n_fail - n_error} ok, "
          f"{n_fail} failed, {n_error} errors")
    if args.json:
        payload = {
            "schema_version": 1,
            "suites": names,
            "checks": [c.to_dict() for c in reports],
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if not reports:
        q_text = ",".join(map(str, args.q)) if args.q else "-"
        print(f"no check of {args.suite} matches --case {args.case or '-'} --q {q_text}",
              file=sys.stderr)
        return 2
    return 1 if n_fail or n_error else 0


@contextmanager
def _no_int_digit_limit():
    """Lift Python's int<->str digit limit (4300 by default) for the block.

    Exact c_m outgrow it near m = 800; the previous limit is restored on exit.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # Python < 3.10.7: no limit
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def cmd_export(args) -> int:
    case = _case_from_args(args)
    q = sl2.expand_q(case, args.q) if args.q else tuple(sl2.feasible_q_values(case, 1)[0])
    out = sys.stdout if not args.output else open(args.output, "w")
    try:
        if args.what in ("cm", "kernel-coeffs"):
            ks = kernel.c_sequence(case, q, m_max=args.m_max)
            with _no_int_digit_limit():
                if getattr(args, "format", "csv") == "json":
                    json.dump(
                        {
                            "schema_version": 1,
                            "case": case.label,
                            "q": [str(x) for x in q],
                            "kind": ks.kind,
                            "coeffs": [
                                {"m": m, "num": c.numerator, "den": c.denominator}
                                for m, c in enumerate(ks.coeffs)
                            ],
                        },
                        out, indent=2, sort_keys=True,
                    )
                    print(file=out)
                    return 0
                print("m,c_m_num,c_m_den", file=out)
                for m, c in enumerate(ks.coeffs):
                    print(f"{m},{c.numerator},{c.denominator}", file=out)
        elif args.what == "moments":
            params = kernel.meijer_params(case, q)
            a_red, b_red = params.reduced
            ev = kernel.MeijerEvaluator(b_red, a_red, precision=args.precision)
            print("m,trapezoid,closed_form,rel_err,err_bound", file=out)
            missed = []
            for m in range(args.m_max + 1):
                mu, err_bound = ev.moment(m)
                g = ev.moment_closed(m)
                print(f"{m},{mu:.15e},{g:.15e},{abs(mu - g) / abs(g):.3e},{err_bound:.3e}",
                      file=out)
                if abs(mu - g) > err_bound:
                    missed.append(m)
            if missed:
                print(f"moments m = {missed} miss their error bounds", file=sys.stderr)
                return 1
        elif args.what == "weight-profile":
            vals, brackets = kernel.sign_scan(
                case, q, grid=args.grid, precision=args.precision
            )
            print("u,G", file=out)
            for u, g in vals:
                print(f"{u:.12e},{g:.15e}", file=out)
            print(f"# sign-change brackets: {brackets}", file=out)
        else:
            print(f"unknown export target {args.what}", file=sys.stderr)
            return 2
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_admissible_q(args) -> int:
    cases = [_case_from_args(args)] if args.case else default_catalog()
    payload = {"schema_version": 1, "admissible": [sl2.solve_eta0(c).to_dict() for c in cases]}
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_meijer(args) -> int:
    case = _case_from_args(args)
    q = sl2.expand_q(case, args.q) if args.q else tuple(sl2.feasible_q_values(case, 1)[0])
    reports = list(kernel.moment_check(case, q, m_max=args.moments, precision=args.precision))
    for c in reports:
        print(f"[{c.status.upper():4s}] {c.id}  {c.details}")
    return 0 if all(c.status == "pass" for c in reports) else 1


def cmd_weight_scan(args) -> int:
    case = _case_from_args(args)
    q = sl2.expand_q(case, args.q) if args.q else tuple(sl2.feasible_q_values(case, 1)[0])
    rep = kernel.sign_scan_report(case, q, grid=args.grid, precision=args.precision)
    print(f"[{rep.status.upper():4s}] {rep.id}  {rep.residual}  {rep.details}")
    return 0 if rep.status == "pass" else 1


def build_parser() -> argparse.ArgumentParser:
    default_precision = int(os.environ.get("FOCKLAB_PRECISION", "12"))
    parser = argparse.ArgumentParser(
        prog="focklab",
        description="verification and computation engine for rank-4 Jordan Fock models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_case_flags(p):
        p.add_argument("--case", type=int, default=0)
        p.add_argument("--variant", default="")
        p.add_argument("--p", type=int)
        p.add_argument("--p1", type=int)
        p.add_argument("--p2", type=int)
        p.add_argument("--d", type=int, choices=(1, 2, 4, 8))
        p.add_argument("--q", type=_parse_q)
        p.add_argument("--precision", type=int, default=default_precision)

    p_cat = sub.add_parser("catalog", help="dump case data as JSON")
    add_case_flags(p_cat)
    p_cat.add_argument("--json", default="")
    p_cat.set_defaults(fn=cmd_catalog)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=sorted(checks.SUITES) + ["all"])
    add_case_flags(p_ver)
    p_ver.add_argument("--trunc", type=int, default=6)
    p_ver.add_argument("--m-max", dest="m_max", type=int, default=5)
    p_ver.add_argument("--json", default="")
    p_ver.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p_ver.set_defaults(fn=cmd_verify)

    p_exp = sub.add_parser("export", help="emit plot-ready CSV")
    p_exp.add_argument("what", choices=["cm", "kernel-coeffs", "moments", "weight-profile"])
    add_case_flags(p_exp)
    p_exp.add_argument("-m", "--m-max", dest="m_max", type=int, default=20)
    p_exp.add_argument("--grid", type=_grid_size, default=200)
    p_exp.add_argument("--format", choices=["csv", "json"], default="csv")
    p_exp.add_argument("-o", "--output", default="")
    p_exp.set_defaults(fn=cmd_export)

    p_kc = sub.add_parser("kernel-coeffs", help="kernel coefficient stream (alias of export cm)")
    add_case_flags(p_kc)
    p_kc.add_argument("-m", "--m-max", dest="m_max", type=int, default=50)
    p_kc.add_argument("--format", choices=["csv", "json"], default="csv")
    p_kc.add_argument("-o", "--output", default="")
    p_kc.set_defaults(fn=cmd_export, what="cm")

    p_adm = sub.add_parser("admissible-q", help="solve the eta0 system per case")
    add_case_flags(p_adm)
    p_adm.set_defaults(fn=cmd_admissible_q)

    p_mei = sub.add_parser("meijer", help="Meijer moment checks for one case")
    add_case_flags(p_mei)
    p_mei.add_argument("--moments", type=int, default=5)
    p_mei.set_defaults(fn=cmd_meijer)

    p_ws = sub.add_parser("weight-scan", help="locate sign changes of the G-weight")
    add_case_flags(p_ws)
    p_ws.add_argument("--grid", type=_grid_size, default=240)
    p_ws.set_defaults(fn=cmd_weight_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if getattr(args, "case", 0) == 0 and args.command in (
        "export", "kernel-coeffs", "meijer", "weight-scan"
    ):
        print("--case is required for this command", file=sys.stderr)
        return 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
