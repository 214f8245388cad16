"""Command-line front end: catalog dumps, verification suites, CSV exports.

`verify` runs the check registry of focklab.checks, selected by suite,
--case and --q.  Reports are deterministic given the selection: every check
is exact or fixed-grid, with no sampling and no seed.  Checks are emitted
as a flat list sorted by id under {"schema_version": 1, ...}, and the JSON
is written whatever the outcome.
Exit code 0 means every check passed, 1 that at least one failed or raised
(status "error"), 2 a usage error or a selection that matches no check.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from contextlib import contextmanager
from fractions import Fraction

# No focklab code calls BLAS: the float layer's one contraction is an einsum
# without optimize (kernel._contour_sum).  Yet when numpy loads, OpenBLAS
# starts one busy-waiting worker thread per extra core, in every process that
# loads it, `verify --jobs` workers included.  So a process that imports the
# CLI holds OpenBLAS to one thread; forked workers inherit the setting, and a
# value already in the environment is kept.  It takes effect only before the
# first numpy import, which every focklab module defers to first use.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from focklab import checks, kernel, sl2  # noqa: E402
from focklab.jordan import CaseDescriptor, build_case, default_catalog
from focklab.report import CheckReport


def _parse_q(text: str) -> tuple[Fraction, ...]:
    """--q: comma-separated rationals such as "1,1/2"; anything else is a usage error."""
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"invalid --q {text!r}: {exc}") from None


def _int_at_least(flag: str, low: int):
    """An argparse type for `flag`: an integer of at least `low`, else a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {flag} {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{flag} must be at least {low}, got {value}")
        return value

    return parse


class UsageError(Exception):
    """A bad case, q or flag on the command line: exit 2, its message on stderr."""


class _Parser(argparse.ArgumentParser):
    """An argument error is one stderr line and exit 2, like every usage error.

    No abbreviations: `meijer --prec 13` would otherwise be read as `--precision 13`.
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _case_from_args(args) -> CaseDescriptor:
    try:
        return build_case(args.case, p=args.p, p1=args.p1, p2=args.p2, variant=args.variant)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _cases(args) -> list[CaseDescriptor]:
    """The case --case names, or every catalog case when it is absent."""
    if args.case is not None:
        return [_case_from_args(args)]
    if (args.p, args.p1, args.p2) != (None, None, None) or args.variant:
        raise UsageError("--p, --p1, --p2 and --variant need --case")
    return default_catalog()


def _case_and_q(args) -> tuple[CaseDescriptor, tuple[Fraction, ...]]:
    """The case and full q vector a command runs on: --q, else the first feasible q."""
    case = _case_from_args(args)
    if args.q:
        try:
            return case, sl2.expand_q(case, args.q)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    feasible = sl2.feasible_q_values(case, 1)
    if not feasible:
        raise UsageError(f"case {case.label} has no admissible q (see admissible-q)")
    return case, feasible[0]


def run_suites(names: list[str], opts: dict, jobs: int = 1) -> list[CheckReport]:
    """Reports of the named suites, selected by opts["case"] and opts["q"], sorted by id.

    Every other key of opts is ignored.
    """
    calls = [(n, opts.get("case"), opts.get("q")) for n in names]
    if jobs > 1 and len(names) > 1:
        import multiprocessing as mp

        with mp.Pool(min(jobs, len(names))) as pool:
            results = pool.starmap(checks.run_suite, calls)
    else:
        results = [checks.run_suite(*call) for call in calls]
    return sorted((c for group in results for c in group), key=lambda c: c.id)


# -- commands -------------------------------------------------------------------


def cmd_catalog(args) -> int:
    payload = {"schema_version": 1, "cases": [c.to_dict() for c in _cases(args)]}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_verify(args) -> int:
    names = list(checks.SUITES) if args.suite == "all" else [args.suite]
    reports = run_suites(names, {"case": args.case, "q": args.q}, jobs=args.jobs)
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
        case_text = "-" if args.case is None else args.case
        print(f"no check of {args.suite} matches --case {case_text} --q {q_text}",
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
    """Write one export of the case and q to -o, or to stdout."""
    case, q = _case_and_q(args)
    if not args.output:
        return args.write(args, case, q, sys.stdout)
    with open(args.output, "w") as out:
        return args.write(args, case, q, out)


def _write_kernel_coeffs(args, case, q, out) -> int:
    coeffs = kernel.c_sequence(case, q, m_max=args.m_max)
    with _no_int_digit_limit():
        if args.format == "json":
            json.dump(
                {
                    "schema_version": 1,
                    "case": case.label,
                    "q": [str(x) for x in q],
                    "kind": kernel.spectral_params(case, q).kind,
                    "coeffs": [
                        {"m": m, "num": c.numerator, "den": c.denominator}
                        for m, c in enumerate(coeffs)
                    ],
                },
                out, indent=2, sort_keys=True,
            )
            print(file=out)
            return 0
        print("m,c_m_num,c_m_den", file=out)
        for m, c in enumerate(coeffs):
            print(f"{m},{c.numerator},{c.denominator}", file=out)
    return 0


def _write_moments(args, case, q, out) -> int:
    ev = kernel.meijer_evaluator(case, q, args.precision)
    print("m,trapezoid,closed_form,rel_err,err_bound", file=out)
    missed = []
    for m in range(args.m_max + 1):
        mu, err_bound = ev.moment(m)
        g = ev.symbol.at(m + 1, args.precision)
        print(f"{m},{mu:.15e},{g:.15e},{abs(mu - g) / abs(g):.3e},{err_bound:.3e}", file=out)
        if not (math.isfinite(err_bound) and abs(mu - g) <= err_bound):
            missed.append(m)
    if missed:
        print(f"moments m = {missed} miss their error bounds or have no finite one",
              file=sys.stderr)
        return 1
    return 0


def _write_weight_profile(args, case, q, out) -> int:
    vals, brackets = kernel.sign_scan(case, q, grid=args.grid, precision=args.precision)
    print("u,G", file=out)
    # one write per EVAL_CHUNK rows, which bounds the memory a block adds
    for start in range(0, len(vals), kernel.EVAL_CHUNK):
        block = vals[start:start + kernel.EVAL_CHUNK]
        out.write(("%.12e,%.15e\n" * len(block)) % tuple(itertools.chain.from_iterable(block)))
    print(f"# sign-change brackets: {brackets}", file=out)
    return 0


def cmd_admissible_q(args) -> int:
    payload = {"schema_version": 1,
               "admissible": [sl2.solve_eta0(c).to_dict() for c in _cases(args)]}
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_meijer(args) -> int:
    case, q = _case_and_q(args)
    reports = list(kernel.moment_check(case, q, m_max=args.m_max, precision=args.precision))
    for c in reports:
        print(f"[{c.status.upper():4s}] {c.id}  {c.details}")
    return 0 if all(c.status == "pass" for c in reports) else 1


def cmd_weight_scan(args) -> int:
    case, q = _case_and_q(args)
    rep = kernel.sign_scan_report(case, q, grid=args.grid, precision=args.precision)
    print(f"[{rep.status.upper():4s}] {rep.id}  {rep.residual}  {rep.details}")
    return 0 if rep.status == "pass" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="focklab",
        description="verification and computation engine for rank-4 Jordan Fock models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_case_flags(p, single=True):
        # a single-case command needs --case and takes its q; the others list every case
        p.add_argument("--case", type=int, required=single)
        p.add_argument("--variant", default="")
        p.add_argument("--p", type=int)
        p.add_argument("--p1", type=int)
        p.add_argument("--p2", type=int)
        if single:
            p.add_argument("--q", type=_parse_q)

    def add_precision_flag(p):
        p.add_argument("--precision", type=_int_at_least("--precision", 1), default=12)

    def add_m_flag(p, default):
        p.add_argument("-m", "--m-max", dest="m_max", type=_int_at_least("--m-max", 0),
                       default=default)

    def add_output_flags(p, formats):
        p.add_argument("--format", choices=formats, default="csv")
        p.add_argument("-o", "--output", default="")

    p_cat = sub.add_parser("catalog", help="dump case data as JSON")
    add_case_flags(p_cat, single=False)
    p_cat.add_argument("--json", default="")
    p_cat.set_defaults(fn=cmd_catalog)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=sorted(checks.SUITES) + ["all"])
    p_ver.add_argument("--case", type=int)
    p_ver.add_argument("--q", type=_parse_q)
    p_ver.add_argument("--json", default="")
    p_ver.add_argument("--jobs", type=_int_at_least("--jobs", 1), default=os.cpu_count() or 1)
    p_ver.set_defaults(fn=cmd_verify)

    # the exports write CSV only; --format csv stays accepted for scripts that pass it
    p_exp = sub.add_parser("export", help="emit plot-ready CSV")
    exports = p_exp.add_subparsers(dest="what", required=True)
    p_mom = exports.add_parser("moments", help="moments against their closed form")
    add_m_flag(p_mom, 20)
    p_prof = exports.add_parser("weight-profile", help="G(u) samples and sign-change brackets")
    p_prof.add_argument("--grid", type=_int_at_least("--grid", 2), default=200)
    for p, write in ((p_mom, _write_moments), (p_prof, _write_weight_profile)):
        add_case_flags(p)
        add_precision_flag(p)
        add_output_flags(p, ["csv"])
        p.set_defaults(fn=cmd_export, write=write)

    p_kc = sub.add_parser("kernel-coeffs", help="exact kernel coefficients c_m")
    add_case_flags(p_kc)
    add_m_flag(p_kc, 50)
    add_output_flags(p_kc, ["csv", "json"])
    p_kc.set_defaults(fn=cmd_export, write=_write_kernel_coeffs)

    p_adm = sub.add_parser("admissible-q", help="solve the eta0 system per case")
    add_case_flags(p_adm, single=False)
    p_adm.set_defaults(fn=cmd_admissible_q)

    p_mei = sub.add_parser("meijer", help="Meijer moment checks for one case")
    add_case_flags(p_mei)
    add_precision_flag(p_mei)
    add_m_flag(p_mei, 5)
    p_mei.set_defaults(fn=cmd_meijer)

    p_ws = sub.add_parser("weight-scan", help="locate sign changes of the G-weight")
    add_case_flags(p_ws)
    add_precision_flag(p_ws)
    p_ws.add_argument("--grid", type=_int_at_least("--grid", 2), default=240)
    p_ws.set_defaults(fn=cmd_weight_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"focklab {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
