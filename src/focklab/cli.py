"""Command-line front end: catalog dumps, verification suites, CSV exports.

Reports are deterministic given flags and seed: checks are emitted as a flat
list sorted by id under {"schema_version": 1, ...}; exit code 0 means every
check passed, 1 means at least one failure, 2 a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction

from focklab import bernstein as bn
from focklab import fock, kernel, sl2, structure
from focklab.jordan import (
    build_case,
    default_catalog,
    full_mat,
    implementable,
    rank1,
    skew_mat,
    spin,
    sym_mat,
)
from focklab.report import CheckReport


def _parse_q(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(part.strip()) for part in text.split(","))


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


# -- verification suites (top-level functions so --jobs can fork them) --------


def suite_tables(opts: dict) -> list[CheckReport]:
    checks = kernel.roots_table_suite()
    checks += kernel.meijer_param_table_suite()
    for case in (build_case(1), build_case(2, p=2), build_case(2, p=3),
                 build_case(3), build_case(5),
                 build_case(9, variant="a"), build_case(9, variant="b"),
                 build_case(9, variant="c")):
        checks.append(kernel.q0_reduction_check(case))
    return checks


def suite_bernstein(opts: dict) -> list[CheckReport]:
    checks: list[CheckReport] = []
    seed = opts.get("seed", 20240)
    symbolic = [rank1(k) for k in (1, 2, 3, 4)]
    symbolic += [spin(p, 1) for p in (2, 3, 4, 5)]
    symbolic += [spin(3, 2)]
    symbolic += [sym_mat(2), sym_mat(3), full_mat(2), full_mat(3), skew_mat(4)]
    for f in symbolic:
        checks.extend(bn.verify_bernstein_identity(f, alphas=(1, 2, 3)).alpha_reports)
    for f in (sym_mat(4), full_mat(4), skew_mat(8)):
        checks.extend(
            bn.verify_bernstein_identity(f, alphas=(1, 2), mode="points", seed=seed).alpha_reports
        )
    # exact root-multiset factorization per case
    for case in default_catalog():
        ok = bn.roots_factorization_ok(case)
        b = bn.case_b_poly(case)
        lead_ok = b.leading == case.bernstein_lead
        vanish_ok = b.eval(0) == 0 and b.degree == 4
        checks.append(
            CheckReport(
                id=f"bernstein.roots.{case.label}", case_id=case.label,
                status="pass" if (ok and lead_ok and vanish_ok) else "fail",
                details=f"lead={b.leading} expected A={case.bernstein_lead}",
            )
        )
    # a-ratio identity across the feasible test matrix
    for case in _feasible_matrix():
        for q in sl2.feasible_q_values(case, 2):
            checks.append(bn.a_ratio_report(case, q, m_max=10))
    return checks


def _feasible_matrix():
    cases = [build_case(1), build_case(2, p=2), build_case(2, p=3), build_case(3),
             build_case(4), build_case(5), build_case(6, p=3), build_case(7, p=2),
             build_case(7, p=4), build_case(8, p1=2, p2=2), build_case(8, p1=4, p2=2)]
    cases += [build_case(9, variant=v) for v in "abc"]
    cases += [build_case(10, variant=v) for v in "abcd"]
    return cases


def _filter_cases(cases, opts: dict):
    wanted = opts.get("case")
    if not wanted:
        return cases
    return [c for c in cases if c.case_id == wanted]


def suite_sl2(opts: dict) -> list[CheckReport]:
    checks: list[CheckReport] = []
    strict = opts.get("strict_integrality", True)
    for case in _filter_cases(_feasible_matrix() + [build_case(11)], opts):
        adm = sl2.solve_eta0(case)
        expected_feasible = case.case_id != 11
        ok = adm.feasible == expected_feasible
        detail = "infeasible confirmed" if not adm.feasible else adm.constraint
        if strict and adm.feasible and not adm.strict_feasible:
            detail += "; half-integer lattice only (order-2 cover)"
        checks.append(
            CheckReport(
                id=f"sl2.eta0.{case.label}", case_id=case.label,
                status="pass" if ok else "fail", details=detail,
            )
        )
        if case.case_id == 11:
            rep, residual = sl2.pm_identity_check(case, (0, 0), forced=True)
            checks.append(
                CheckReport(
                    id="sl2.pm.11.forced", case_id="11", q=["0", "0"],
                    status="pass" if not residual.is_zero() else "fail",
                    details="necessity: forced q gives nonzero residual",
                )
            )
            continue
        for q in sl2.feasible_q_values(case, 2):
            rep, _ = sl2.pm_identity_check(case, q)
            checks.append(rep)
    if opts.get("case"):
        return checks
    # Lemma 3.5: solved forms and a necessity counterexample
    for partition, gammas, b in (
        ((1, 1, 1, 1), ((), (), (), ()), 1),
        ((4,), ((Fraction(-1, 4), Fraction(-1, 2), Fraction(-3, 4)),), Fraction(5, 4)),
        ((2, 2), ((Fraction(-1, 2),), (Fraction(-1, 2),)), 2),
        ((2, 1, 1), ((Fraction(1, 3),), (), ()), Fraction(7, 2)),
    ):
        alpha, beta, c = sl2.lemma35_solved_form(partition, gammas, b)
        rep, _ = sl2.lemma35_check(partition, gammas, [b] * len(partition), alpha, beta, c)
        checks.append(rep)
    alpha, beta, c = sl2.lemma35_solved_form((2, 2), ((Fraction(-1, 2),), (Fraction(-1, 2),)), 1)
    rep, residual = sl2.lemma35_check(
        (2, 2), ((Fraction(-1, 2),), (Fraction(-1, 2),)), [1, 2], alpha, beta, c
    )
    checks.append(
        CheckReport(
            id="sl2.lemma35.2-2.unequal-b", status="pass" if not residual.is_zero() else "fail",
            details="necessity: unequal b must break the identity",
        )
    )
    return checks


def suite_operators(opts: dict) -> list[CheckReport]:
    checks: list[CheckReport] = []
    trunc = opts.get("trunc", 6)
    comm_matrix = [
        (build_case(1), (0,)), (build_case(1), (4,)),
        (build_case(3), (0, 0)), (build_case(3), (2, 2)),
        (build_case(5), (0, 0, 0, 0)), (build_case(5), (1, 1, 1, 1)),
        (build_case(5), (2, 2, 2, 2)),
    ]
    wanted = opts.get("case")
    if wanted:
        comm_matrix = [(c, q) for c, q in comm_matrix if c.case_id == wanted]
        if not comm_matrix and wanted in (1, 3, 4, 5):
            case = build_case(wanted)
            q = opts.get("q") or sl2.feasible_q_values(case, 1)[0]
            comm_matrix = [(case, tuple(q))]
    for case, q in comm_matrix:
        checks.append(fock.commutator_check(case, q, m_trunc=trunc))
        checks.append(fock.sigma_involution_check(case, q, m_trunc=3))
    if wanted:
        return checks
    # corrected case-(4) solution closes the algebra; forced case (11) must not
    checks.append(fock.commutator_check(build_case(4), (1, 0, 0), m_trunc=4))
    neg = fock.commutator_check(build_case(11), (0, 0), m_trunc=4, kappa="1/A", forced=True)
    checks.append(
        CheckReport(
            id="fock.comm.11.forced", case_id="11", q=["0", "0"],
            status="pass" if neg.status == "fail" else "fail",
            details="negative control: forced q must break the commutator",
        )
    )
    for case, q in ((build_case(1), (0,)), (build_case(1), (4,)),
                    (build_case(3), (0, 0)), (build_case(5), (0, 0, 0, 0))):
        checks.append(fock.cyclicity_check(case, q, m_trunc=4))
    checks.append(fock.reproducing_check(q=0))
    return checks


def suite_meijer(opts: dict) -> list[CheckReport]:
    precision = opts.get("precision", 12)
    m_max = opts.get("m_max", 5)
    checks: list[CheckReport] = []
    matrix = [
        (build_case(1), (0,)), (build_case(1), (4,)),
        (build_case(5), (0, 0, 0, 0)), (build_case(5), (1, 1, 1, 1)),
        (build_case(9, variant="a"), (0,)), (build_case(9, variant="a"), (1,)),
    ]
    for case, q in matrix:
        checks.extend(kernel.moment_check(case, q, m_max=m_max, precision=precision))
    checks.append(kernel.sign_scan_report(build_case(1), (0,)))
    # kernel coefficient consistency and positivity across the matrix
    for case in _feasible_matrix():
        for q in sl2.feasible_q_values(case, 2):
            try:
                ks = kernel.c_sequence(case, q, m_max=50)
                positive = all(c > 0 for c in ks.coeffs)
                u0 = kernel.kernel_eval(case, q, 0.0)
                ok = positive and u0 == 1.0
                checks.append(
                    CheckReport(
                        id=f"kernel.cm.{case.label}.{'_'.join(str(x) for x in q)}",
                        case_id=case.label, q=[str(x) for x in q],
                        status="pass" if ok else "fail",
                        details=f"kind={ks.kind}; c_m>0 for m<=50; series(0)=1",
                    )
                )
            except kernel.DegenerateSeriesError as exc:
                checks.append(
                    CheckReport(
                        id=f"kernel.cm.{case.label}.{'_'.join(str(x) for x in q)}",
                        case_id=case.label, status="skip", details=str(exc),
                    )
                )
    return checks


def suite_bergman(opts: dict) -> list[CheckReport]:
    precision = opts.get("precision", 12)
    phis = [
        [(1, {0: 1.0})],                      # w^4
        [(1, {4: 1.0})],                      # z^4 w^4
        [(0, {0: 1.0}), (1, {0: 0.5, 2: 1.0}), (2, {3: 1.0})],
    ]
    return [kernel.bergman_norm_case1(0, phi, precision=precision) for phi in phis]


def structure_rows():
    """The classification-table rows whose dim k + dim W = dim g is checked."""
    rows = [build_case(1)]
    rows += [build_case(2, p=p) for p in (2, 3, 4)]
    rows += [build_case(3), build_case(4), build_case(5)]
    rows += [build_case(6, p=3)]
    rows += [build_case(7, p=2), build_case(7, p=4)]
    rows += [build_case(8, p1=2, p2=2), build_case(8, p1=4, p2=2)]
    rows += [build_case(9, variant=v) for v in "abc"]
    rows += [build_case(10, variant=v) for v in "abc"]
    rows += [build_case(11)]
    return rows


def suite_structure(opts: dict) -> list[CheckReport]:
    return [structure.check_g_dimension(case) for case in structure_rows()
            if implementable(case)]


SUITES = {
    "tables": suite_tables,
    "bernstein": suite_bernstein,
    "sl2": suite_sl2,
    "operators": suite_operators,
    "meijer": suite_meijer,
    "bergman": suite_bergman,
    "structure": suite_structure,
}


def run_suites(names: list[str], opts: dict, jobs: int = 1) -> list[CheckReport]:
    if jobs > 1 and len(names) > 1:
        import multiprocessing as mp

        with mp.Pool(min(jobs, len(names))) as pool:
            results = pool.starmap(_run_one, [(n, opts) for n in names])
        checks = [c for group in results for c in group]
    else:
        checks = []
        for n in names:
            checks.extend(SUITES[n](opts))
    return sorted(checks, key=lambda c: c.id)


def _run_one(name: str, opts: dict) -> list[CheckReport]:
    return SUITES[name](opts)


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
    suite = "operators" if args.suite == "sl2-operators" else args.suite
    names = list(SUITES) if suite == "all" else [suite]
    opts = {
        "seed": args.seed,
        "precision": args.precision,
        "trunc": args.trunc,
        "m_max": args.m_max,
        "strict_integrality": args.strict_integrality,
        "case": args.case or None,
        "q": _parse_q(args.q) if args.q else None,
    }
    checks = run_suites(names, opts, jobs=args.jobs)
    n_fail = sum(1 for c in checks if c.status == "fail")
    for c in checks:
        print(f"[{c.status.upper():4s}] {c.id}" + (f"  {c.details}" if c.details else ""))
    print(f"{len(checks)} checks: {len(checks) - n_fail} ok, {n_fail} failed")
    if args.json:
        payload = {
            "schema_version": 1,
            "suites": names,
            "seed": args.seed,
            "checks": [c.to_dict() for c in checks],
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 1 if n_fail else 0


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
    q = sl2.expand_q(case, _parse_q(args.q)) if args.q else tuple(
        sl2.feasible_q_values(case, 1)[0]
    )
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
            print("m,quadrature,closed_form,rel_err", file=out)
            for m in range(args.m_max + 1):
                mu, _ = ev.moment(m)
                g = ev.moment_closed(m)
                print(f"{m},{mu:.15e},{g:.15e},{abs(mu - g) / abs(g):.3e}", file=out)
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
    q = sl2.expand_q(case, _parse_q(args.q)) if args.q else tuple(sl2.feasible_q_values(case, 1)[0])
    checks = kernel.moment_check(case, q, m_max=args.moments, precision=args.precision)
    for c in checks:
        print(f"[{c.status.upper():4s}] {c.id}  {c.details}")
    return 1 if any(c.status == "fail" for c in checks) else 0


def cmd_weight_scan(args) -> int:
    case = _case_from_args(args)
    q = sl2.expand_q(case, _parse_q(args.q)) if args.q else tuple(sl2.feasible_q_values(case, 1)[0])
    rep = kernel.sign_scan_report(case, q, grid=args.grid, precision=args.precision)
    print(f"[{rep.status.upper():4s}] {rep.id}  {rep.residual}  {rep.details}")
    return 0 if rep.ok else 1


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
        p.add_argument("--q", default="")
        p.add_argument("--precision", type=int, default=default_precision)
        p.add_argument("--seed", type=int, default=7)

    p_cat = sub.add_parser("catalog", help="dump case data as JSON")
    add_case_flags(p_cat)
    p_cat.add_argument("--json", default="")
    p_cat.set_defaults(fn=cmd_catalog)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=sorted(SUITES) + ["all", "sl2-operators"])
    add_case_flags(p_ver)
    p_ver.add_argument("--trunc", type=int, default=6)
    p_ver.add_argument("--m-max", dest="m_max", type=int, default=5)
    p_ver.add_argument("--json", default="")
    p_ver.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p_ver.add_argument(
        "--strict-integrality", dest="strict_integrality",
        action=argparse.BooleanOptionalAction, default=True,
    )
    p_ver.set_defaults(fn=cmd_verify)

    p_exp = sub.add_parser("export", help="emit plot-ready CSV")
    p_exp.add_argument("what", choices=["cm", "kernel-coeffs", "moments", "weight-profile"])
    add_case_flags(p_exp)
    p_exp.add_argument("-m", "--m-max", dest="m_max", type=int, default=20)
    p_exp.add_argument("--grid", type=int, default=200)
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
    p_ws.add_argument("--grid", type=int, default=240)
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
