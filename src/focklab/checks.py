"""The check matrix, written once, and the one runner that executes it.

The named tables below say which cases, q vectors, factor families and test
functions each suite covers.  `registry()` flattens them into entries
(suite, case, q, run); `run_suite` selects entries and runs them.  Both
`focklab verify` and the acceptance tests read these tables.

Selection works the same way for every suite: first by suite, then by case
number (`--case`, matched against `case_id`), then by q (`--q`: the full
vector or the free component q1 alone).  An entry that is not about one case
(the root and Meijer tables, the Bernstein families, Lemma 3.5) has no case
and no q, so a `--case` or `--q` filter never selects it.  A check that
raises becomes one `error` report and the run goes on.

The registry is built on first use, not at import: the feasible q values
are solved per case and cost more than the rest of `import focklab.cli`.
"""

from __future__ import annotations

import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from focklab import bernstein as bn
from focklab import fock, kernel, sl2, structure
from focklab.jordan import (
    CaseDescriptor,
    build_case,
    default_catalog,
    full_mat,
    rank1,
    skew_mat,
    spin,
    sym_mat,
)
from focklab.report import CheckReport, Stopwatch, q_strings

SUITES = ("tables", "bernstein", "sl2", "operators", "meijer", "bergman", "structure")

# -- the matrix -----------------------------------------------------------------

# cases (1)-(10) with one instance per parametrized family; each is checked
# at its first two feasible q vectors (see feasible_pairs)
FEASIBLE_CASES = (
    build_case(1), build_case(2, p=2), build_case(2, p=3), build_case(3),
    build_case(4), build_case(5), build_case(6, p=3), build_case(7, p=2),
    build_case(7, p=4), build_case(8, p1=2, p2=2), build_case(8, p1=4, p2=2),
    *(build_case(9, variant=v) for v in "abc"),
    *(build_case(10, variant=v) for v in "abcd"),
)
INFEASIBLE_CASE = build_case(11)  # z1^3 z2: no admissible q
FORCED_Q = (0, 0)  # case (11) with the first factor's eta0 forced on it

# classification-table rows whose dim k + dim W = dim g is checked
STRUCTURE_ROWS = (
    build_case(1), *(build_case(2, p=p) for p in (2, 3, 4)),
    build_case(3), build_case(4), build_case(5), build_case(6, p=3),
    build_case(7, p=2), build_case(7, p=4),
    build_case(8, p1=2, p2=2), build_case(8, p1=4, p2=2),
    *(build_case(9, variant=v) for v in "abc"),
    *(build_case(10, variant=v) for v in "abc"),
    build_case(11),
)

# cases whose q = 0 Bernstein reduction Btilde(a) = B(a - eta0) is checked
TABLES_Q0_CASES = (
    build_case(1), build_case(2, p=2), build_case(2, p=3), build_case(3),
    build_case(5), *(build_case(9, variant=v) for v in "abc"),
)

# Bernstein identity families: expanded symbolically at alpha = 1, 2, 3, or
# evaluated exactly at seeded points at alpha = 1, 2
BERNSTEIN_SYMBOLIC = (
    *(rank1(k) for k in (1, 2, 3, 4)), *(spin(p, 1) for p in (2, 3, 4, 5)),
    spin(3, 2), sym_mat(2), sym_mat(3), full_mat(2), full_mat(3), skew_mat(4),
)
BERNSTEIN_POINTS = (sym_mat(4), full_mat(4), skew_mat(8))

# (case, q) of the operator-level sl2 relations and sigma^2 on truncated blocks
COMMUTATOR_MATRIX = (
    (build_case(1), (0,)), (build_case(1), (4,)),
    (build_case(3), (0, 0)), (build_case(3), (2, 2)),
    (build_case(5), (0, 0, 0, 0)), (build_case(5), (1, 1, 1, 1)),
    (build_case(5), (2, 2, 2, 2)),
)
CASE4_Q = (1, 0, 0)  # the corrected half-integer case-(4) solution

# (case, q) whose lowest piece must generate every interior block
CYCLICITY_MATRIX = (
    (build_case(1), (0,)), (build_case(1), (4,)),
    (build_case(3), (0, 0)), (build_case(5), (0, 0, 0, 0)),
)

# (case, q) of the Meijer moment checks
MOMENT_MATRIX = (
    (build_case(1), (0,)), (build_case(1), (4,)),
    (build_case(5), (0, 0, 0, 0)), (build_case(5), (1, 1, 1, 1)),
    (build_case(9, variant="a"), (0,)), (build_case(9, variant="a"), (1,)),
)

# case (1), q = 0: graded pieces (m, {j: coefficient}) of the Bergman cross-check
BERGMAN_PHIS = (
    ((1, {0: 1.0}),),                                   # w^4
    ((1, {4: 1.0}),),                                   # z^4 w^4
    ((0, {0: 1.0}), (1, {0: 0.5, 2: 1.0}), (2, {3: 1.0})),
)

# Lemma 3.5 solved forms: (partition, gammas per part, common b)
LEMMA35_FORMS = (
    ((1, 1, 1, 1), ((), (), (), ()), 1),
    ((4,), ((Fraction(-1, 4), Fraction(-1, 2), Fraction(-3, 4)),), Fraction(5, 4)),
    ((2, 2), ((Fraction(-1, 2),), (Fraction(-1, 2),)), 2),
    ((2, 1, 1), ((Fraction(1, 3),), (), ()), Fraction(7, 2)),
)


@lru_cache(maxsize=None)
def feasible_pairs() -> tuple[tuple[CaseDescriptor, tuple[Fraction, ...]], ...]:
    """(case, q) for every FEASIBLE_CASES entry and its first two feasible q."""
    return tuple((case, q) for case in FEASIBLE_CASES
                 for q in sl2.feasible_q_values(case, 2))


# -- the registry ---------------------------------------------------------------


@dataclass(frozen=True)
class Entry:
    """One registered check; `run(opts)` returns its reports."""

    suite: str
    name: str  # id stem of its reports; an error report is named after it
    case: CaseDescriptor | None
    q: tuple[Fraction, ...] | None
    run: Callable[[dict], list[CheckReport]]

    def error_report(self, exc: Exception, elapsed_ms: int) -> CheckReport:
        parts = [self.name]
        if self.case is not None:
            parts.append(self.case.label)
        if self.q is not None:
            parts.append("_".join(q_strings(self.q)))
        return CheckReport(
            id=".".join(parts),
            case_id=self.case.label if self.case is not None else "",
            q=q_strings(self.q) if self.q is not None else [],
            status="error", details=f"{type(exc).__name__}: {exc}",
            elapsed_ms=elapsed_ms,
        )


def _eta0(case: CaseDescriptor) -> list[CheckReport]:
    adm = sl2.solve_eta0(case)
    ok = adm.feasible == (case.case_id != 11)
    detail = "infeasible confirmed" if not adm.feasible else adm.constraint
    if adm.feasible and not adm.strict_feasible:
        detail += "; half-integer lattice only (order-2 cover)"
    return [CheckReport(id=f"sl2.eta0.{case.label}", case_id=case.label,
                        status="pass" if ok else "fail", details=detail)]


def _pm_forced() -> list[CheckReport]:
    _, residual = sl2.pm_identity_check(INFEASIBLE_CASE, FORCED_Q, forced=True)
    return [CheckReport(
        id="sl2.pm.11.forced", case_id="11", q=q_strings(FORCED_Q),
        status="pass" if not residual.is_zero() else "fail",
        details="necessity: forced q gives nonzero residual",
    )]


def _lemma35_unequal_b() -> list[CheckReport]:
    partition, gammas, _ = LEMMA35_FORMS[2]  # (2, 2), solved at b = 1, run at b = (1, 2)
    alpha, beta, c = sl2.lemma35_solved_form(partition, gammas, 1)
    _, residual = sl2.lemma35_check(partition, gammas, [1, 2], alpha, beta, c)
    return [CheckReport(
        id="sl2.lemma35.2-2.unequal-b", status="pass" if not residual.is_zero() else "fail",
        details="necessity: unequal b must break the identity",
    )]


def _lemma35(partition, gammas, b) -> list[CheckReport]:
    alpha, beta, c = sl2.lemma35_solved_form(partition, gammas, b)
    return [sl2.lemma35_check(partition, gammas, [b] * len(partition), alpha, beta, c)[0]]


def _comm_forced() -> list[CheckReport]:
    neg = fock.commutator_check(INFEASIBLE_CASE, FORCED_Q, m_trunc=4, kappa="1/A", forced=True)
    return [CheckReport(
        id="fock.comm.11.forced", case_id="11", q=q_strings(FORCED_Q),
        status="pass" if neg.status == "fail" else "fail",
        details="negative control: forced q must break the commutator",
    )]


def _bernstein_roots(case: CaseDescriptor) -> list[CheckReport]:
    b = bn.case_b_poly(case)
    ok = (bn.roots_factorization_ok(case) and b.leading == case.bernstein_lead
          and b.eval(0) == 0 and b.degree == 4)
    return [CheckReport(
        id=f"bernstein.roots.{case.label}", case_id=case.label,
        status="pass" if ok else "fail",
        details=f"lead={b.leading} expected A={case.bernstein_lead}",
    )]


def _kernel_cm(case: CaseDescriptor, q) -> list[CheckReport]:
    ks = kernel.c_sequence(case, q, m_max=50)
    ok = all(c > 0 for c in ks.coeffs) and kernel.kernel_eval(case, q, 0.0) == 1.0
    qs = q_strings(q)
    return [CheckReport(
        id=f"kernel.cm.{case.label}.{'_'.join(qs)}", case_id=case.label, q=qs,
        status="pass" if ok else "fail",
        details=f"kind={ks.kind}; c_m>0 for m<=50; series(0)=1",
    )]


@lru_cache(maxsize=None)
def registry() -> tuple[Entry, ...]:
    """Every check of every suite, in report order within a suite."""
    entries: list[Entry] = []

    def add(suite, name, run, case=None, q=None):
        q = None if q is None else tuple(Fraction(x) for x in q)
        entries.append(Entry(suite, name, case, q, run))

    add("tables", "kernel.roots", lambda o: kernel.roots_table_suite())
    add("tables", "meijer.params", lambda o: kernel.meijer_param_table_suite())
    for case in TABLES_Q0_CASES:
        add("tables", "kernel.q0reduction", lambda o, c=case: [kernel.q0_reduction_check(c)],
            case, (0,) * case.s)

    for f in BERNSTEIN_SYMBOLIC:
        add("bernstein", f"bernstein.identity.{f.family.value}{f.size}.k{f.mult}",
            lambda o, f=f: bn.verify_bernstein_identity(f, alphas=(1, 2, 3)).alpha_reports)
    for f in BERNSTEIN_POINTS:
        add("bernstein", f"bernstein.identity.{f.family.value}{f.size}.k{f.mult}",
            lambda o, f=f: bn.verify_bernstein_identity(
                f, alphas=(1, 2), mode="points", seed=o.get("seed", 20240)).alpha_reports)
    for case in default_catalog():
        add("bernstein", "bernstein.roots", lambda o, c=case: _bernstein_roots(c), case)
    for case, q in feasible_pairs():
        add("bernstein", "bernstein.aratio",
            lambda o, c=case, q=q: [bn.a_ratio_report(c, q, m_max=10)], case, q)

    for case in FEASIBLE_CASES + (INFEASIBLE_CASE,):
        add("sl2", "sl2.eta0", lambda o, c=case: _eta0(c), case)
    add("sl2", "sl2.pm.forced", lambda o: _pm_forced(), INFEASIBLE_CASE, FORCED_Q)
    for case, q in feasible_pairs():
        add("sl2", "sl2.pm", lambda o, c=case, q=q: [sl2.pm_identity_check(c, q)[0]], case, q)
    for form in LEMMA35_FORMS:
        add("sl2", "sl2.lemma35." + "-".join(map(str, form[0])), lambda o, f=form: _lemma35(*f))
    add("sl2", "sl2.lemma35.2-2.unequal-b", lambda o: _lemma35_unequal_b())

    for case, q in COMMUTATOR_MATRIX:
        add("operators", "fock.comm",
            lambda o, c=case, q=q: [fock.commutator_check(c, q, m_trunc=o.get("trunc", 6))],
            case, q)
        add("operators", "fock.sigma2",
            lambda o, c=case, q=q: [fock.sigma_involution_check(c, q, m_trunc=3)], case, q)
    add("operators", "fock.comm",
        lambda o: [fock.commutator_check(build_case(4), CASE4_Q, m_trunc=4)],
        build_case(4), CASE4_Q)
    add("operators", "fock.comm.forced", lambda o: _comm_forced(), INFEASIBLE_CASE, FORCED_Q)
    for case, q in CYCLICITY_MATRIX:
        add("operators", "fock.cyclic",
            lambda o, c=case, q=q: [fock.cyclicity_check(c, q, m_trunc=4)], case, q)
    add("operators", "fock.norm", lambda o: [fock.reproducing_check(q=0)], build_case(1), (0,))

    for case, q in MOMENT_MATRIX:
        add("meijer", "meijer.moments",
            lambda o, c=case, q=q: kernel.moment_check(
                c, q, m_max=o.get("m_max", 5), precision=o.get("precision", 12)),
            case, q)
    add("meijer", "weight.sign", lambda o: [kernel.sign_scan_report(build_case(1), (0,))],
        build_case(1), (0,))
    for case, q in feasible_pairs():
        add("meijer", "kernel.cm", lambda o, c=case, q=q: _kernel_cm(c, q), case, q)

    for phi in BERGMAN_PHIS:
        add("bergman", "bergman.case1",
            lambda o, phi=phi: [kernel.bergman_norm_case1(0, phi, precision=o.get("precision", 12))],
            build_case(1), (0,))

    for case in STRUCTURE_ROWS:
        add("structure", "structure.dim", lambda o, c=case: [structure.check_g_dimension(c)], case)
    return tuple(entries)


# -- the runner -------------------------------------------------------------------


def _q_matches(entry_q: tuple[Fraction, ...], want: tuple[Fraction, ...]) -> bool:
    # a single component is the free parameter q1, which fixes the rest
    return entry_q == want or (len(want) == 1 and entry_q[:1] == want)


def select(suites, case_id: int | None = None, q=None) -> list[Entry]:
    """Entries of `suites`, then of case number `case_id`, then of q."""
    want = None if not q else tuple(Fraction(x) for x in q)
    return [
        e for e in registry()
        if e.suite in suites
        and (not case_id or (e.case is not None and e.case.case_id == case_id))
        and (want is None or (e.q is not None and _q_matches(e.q, want)))
    ]


def run_entry(entry: Entry, opts: dict) -> list[CheckReport]:
    """The entry's reports, or one `error` report (traceback on stderr) if it raises."""
    sw = Stopwatch()
    try:
        return entry.run(opts)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return [entry.error_report(exc, sw.ms())]


def run_suite(name: str, opts: dict) -> list[CheckReport]:
    """Run every entry of suite `name` selected by opts["case"] and opts["q"]."""
    return [rep for e in select((name,), opts.get("case"), opts.get("q"))
            for rep in run_entry(e, opts)]
