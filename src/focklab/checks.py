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
raises becomes one `error` report, after the reports it yielded before
raising, and the run goes on.

Every entry's `run()` takes nothing and returns an iterable of reports: the
matrix fixes every setting, the moment count (MOMENT_M_MAX) included, and
the analytic checks run at the library's default precision of 12 digits.
A check that emits several (a table, the Bernstein alphas of one family,
the Meijer moments of one (case, q)) yields them one at a time.
`run_entry` is the only place that reads the clock: each report's
`elapsed_ms` is the time since the previous report of its entry, or since
the entry started, so every report carries its own work and a suite's
reports add up to its run time.

The registry is built on first use, not at import, so a command that runs
no suite builds none.  Its feasible q values take about 5 ms to solve
(2-vCPU machine, Python 3.11), a small share of the 70-90 ms that
`import focklab.cli` takes.
"""

from __future__ import annotations

import math
import sys
import time
import traceback
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable

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
from focklab.report import CheckReport, check_report, q_strings

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
FORCED_Q = (0, 0)  # case (11) at a q that only its first factor's eta0 fits

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

# Bernstein identity families (factor, alphas), each checked by full symbolic
# expansion; the largest three stop at alpha = 2, where Skew(8)'s Pf^2 already
# has 5,250 terms
BERNSTEIN_FAMILIES = (
    *((f, (1, 2, 3)) for f in (
        *(rank1(k) for k in (1, 2, 3, 4)), *(spin(p, 1) for p in (2, 3, 4, 5)),
        spin(3, 2), sym_mat(2), sym_mat(3), full_mat(2), full_mat(3), skew_mat(4),
    )),
    *((f, (1, 2)) for f in (sym_mat(4), full_mat(4), skew_mat(8))),
)

# (case, q) of the operator-level sl2 relations (every block m >= 1) and of
# sigma^2 = (-1)^{sum N_i} with sigma sigma^{-1} = 1 (every block m >= 0)
COMMUTATOR_MATRIX = (
    (build_case(1), (0,)), (build_case(1), (4,)),
    (build_case(3), (0, 0)), (build_case(3), (2, 2)),
    (build_case(5), (0, 0, 0, 0)), (build_case(5), (1, 1, 1, 1)),
    (build_case(5), (2, 2, 2, 2)),
)
CASE4_Q = (1, 0, 0)  # the corrected half-integer case-(4) solution

# (case, q) whose Fock module is proved irreducible on every block m >= 0
CYCLICITY_MATRIX = (
    (build_case(1), (0,)), (build_case(1), (4,)),
    (build_case(3), (0, 0)), (build_case(5), (0, 0, 0, 0)),
)

# (case, q) of the Meijer moment checks, each at moments m = 0..MOMENT_M_MAX
MOMENT_MATRIX = (
    (build_case(1), (0,)), (build_case(1), (4,)),
    (build_case(5), (0, 0, 0, 0)), (build_case(5), (1, 1, 1, 1)),
    (build_case(9, variant="a"), (0,)), (build_case(9, variant="a"), (1,)),
)
MOMENT_M_MAX = 5

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
    """One registered check; `run()` returns or yields its reports."""

    suite: str
    name: str  # id stem of its reports, or <stem>.forced for a forced control
    case: CaseDescriptor | None
    q: tuple[Fraction, ...] | None
    run: Callable[[], Iterable[CheckReport]]
    forced_stem: str = ""  # on a control forced onto case (11): its report is <stem>.11.forced

    def error_report(self, exc: Exception) -> CheckReport:
        """The `error` report of the entry's raising run, under its reports' id."""
        rep = (_forced_report(self.forced_stem) if self.forced_stem
               else check_report(self.name, self.case, self.q))
        return replace(rep, status="error", details=f"{type(exc).__name__}: {exc}")


def _forced_report(stem: str, **kw) -> CheckReport:
    """A negative control's report on case (11) at FORCED_Q: <stem>.11.forced."""
    return check_report(stem, INFEASIBLE_CASE, FORCED_Q, ".forced", q_in_id=False, **kw)


def _eta0(case: CaseDescriptor) -> list[CheckReport]:
    """Feasibility as the catalog says, and on each minimal q the solver's eta0
    and q relations against eta0_of, which reads the grading constraint itself."""
    adm = sl2.solve_eta0(case)
    (slope, icpt), expected = adm.eta0_affine, case.case_id != 11
    wrong = [] if adm.feasible == expected else [
        f"feasible={adm.feasible}, catalog expects {expected}"]
    for q in adm.minimal_q:
        try:
            eta0 = sl2.eta0_of(case, q)
        except ValueError as exc:
            eta0 = exc
        if (eta0 != slope * q[0] + icpt or len(adm.q_relations) != len(q)
                or any(qi != a * q[0] + b for qi, (a, b) in zip(q, adm.q_relations))):
            wrong.append(f"q=({', '.join(q_strings(q))}): eta0_of gives {eta0}")
    detail = "infeasible confirmed" if not adm.feasible else adm.constraint
    if adm.feasible and not adm.strict_feasible:
        detail += "; half-integer lattice only (order-2 cover)"
    if adm.minimal_q:
        detail += (f"; eta0 and q relations checked against eta0_of on "
                   f"{len(adm.minimal_q)} minimal q")
    return [check_report("sl2.eta0", case, failure="; ".join(wrong), details=detail)]


def _lemma35(partition, gammas, b, bs=None) -> CheckReport:
    """Lemma 3.5's solved form for a common b, run at bs (b on every part by default)."""
    alpha, beta, c = sl2.lemma35_solved_form(partition, gammas, b)
    return sl2.lemma35_check(partition, gammas, bs or [b] * len(partition), alpha, beta, c)


def _must_fail(stem: str, relation: str, rep: CheckReport, forced=False) -> list[CheckReport]:
    """The negative control on `rep`, a check of a relation that must not hold.

    It is named <stem>, or <stem>.11.forced when rep checks case (11) at
    FORCED_Q.  It passes only when rep fails, and then quotes rep's residual;
    when rep passes it fails, with a residual that names the relation that held.
    """
    broken = rep.status == "fail"
    return [(_forced_report if forced else check_report)(
        stem, failure=None if broken else f"{relation} held",
        residual=rep.residual if broken else None,
        details=f"negative control: {relation} must fail"
                + (f"; {rep.details}" if rep.details else ""))]


def _bernstein_roots(case: CaseDescriptor) -> list[CheckReport]:
    # the root multiset holds 0 and has sum k_i r_i = 4 members, so B = A prod
    # (a - root) also fixes B's lead A, B(0) = 0 and degree 4
    lead = bn.case_b_poly(case).terms.get((4,), 0)
    ok = bn.roots_factorization_ok(case)
    return [check_report("bernstein.roots", case, failure=None if ok else "B != A prod (a - root)",
                         details=f"lead={lead} expected A={case.bernstein_lead}")]


def _kernel_cm(case: CaseDescriptor, q) -> list[CheckReport]:
    # c_0 = 1 and from m_pos on every factor m + x of the step is positive, so
    # the first step <= 0 below m_pos, at m, names the first c_{m+1} <= 0
    sp = kernel.spectral_params(case, q)
    upper, lower = sp.c_step
    m_pos = max([0] + [math.floor(-x) + 1 for x in upper + lower])
    broken = next((f"c_{m + 1} <= 0" for m in range(m_pos)
                   if kernel.pochhammer_ratio(upper, lower, m) <= 0), None)
    return [check_report("kernel.cm", case, q, failure=broken,
                         details=f"kind={sp.kind}; c_m>0 for all m")]


@lru_cache(maxsize=None)
def registry() -> tuple[Entry, ...]:
    """Every check of every suite, in report order within a suite."""
    entries: list[Entry] = []

    def add(suite, name, run, case=None, q=None):
        q = None if q is None else tuple(Fraction(x) for x in q)
        entries.append(Entry(suite, name, case, q, run))

    def add_forced(suite, stem, relation, check):
        # the negative control on check(INFEASIBLE_CASE, FORCED_Q), a relation that must fail
        entries.append(Entry(suite, stem + ".forced", INFEASIBLE_CASE, FORCED_Q,
                             lambda: _must_fail(stem, relation, check(), forced=True),
                             forced_stem=stem))

    add("tables", "kernel.roots", lambda: kernel.roots_table_suite())
    add("tables", "meijer.params", lambda: kernel.meijer_param_table_suite())
    for case in TABLES_Q0_CASES:
        add("tables", "kernel.q0reduction", lambda c=case: [kernel.q0_reduction_check(c)],
            case, (0,) * case.s)

    for f, alphas in BERNSTEIN_FAMILIES:
        add("bernstein", bn.identity_stem(f),
            lambda f=f, a=alphas: bn.verify_bernstein_identity(f, alphas=a))
    for case in default_catalog():
        add("bernstein", "bernstein.roots", lambda c=case: _bernstein_roots(c), case)
    for case, q in feasible_pairs():
        add("bernstein", "bernstein.aratio",
            lambda c=case, q=q: [bn.a_ratio_report(c, q)], case, q)

    for case in FEASIBLE_CASES + (INFEASIBLE_CASE,):
        add("sl2", "sl2.eta0", lambda c=case: _eta0(c), case)
    add_forced("sl2", "sl2.pm", "the p_m identity on case (11), q = (0, 0)",
               lambda: sl2.pm_identity_check(INFEASIBLE_CASE, FORCED_Q))
    for case, q in feasible_pairs():
        add("sl2", "sl2.pm", lambda c=case, q=q: [sl2.pm_identity_check(c, q)], case, q)
    for form in LEMMA35_FORMS:
        add("sl2", "sl2.lemma35." + "-".join(map(str, form[0])), lambda f=form: [_lemma35(*f)])
    partition, gammas, _ = LEMMA35_FORMS[2]  # (2, 2), solved at b = 1, run at b = (1, 2)
    add("sl2", "sl2.lemma35.2-2.unequal-b", lambda: _must_fail(
        "sl2.lemma35.2-2.unequal-b", "the (2, 2) four-shift identity at b = (1, 2)",
        _lemma35(partition, gammas, 1, [1, 2])))

    for case, q in COMMUTATOR_MATRIX:
        add("operators", "fock.comm", lambda c=case, q=q: [fock.commutator_check(c, q)],
            case, q)
        add("operators", "fock.sigma2",
            lambda c=case, q=q: [fock.sigma_involution_check(c, q)], case, q)
    add("operators", "fock.comm", lambda: [fock.commutator_check(build_case(4), CASE4_Q)],
        build_case(4), CASE4_Q)
    add_forced("operators", "fock.comm", "the sl2 relations on case (11), q = (0, 0)",
               lambda: fock.commutator_check(INFEASIBLE_CASE, FORCED_Q))
    for case, q in CYCLICITY_MATRIX:
        add("operators", "fock.cyclic",
            lambda c=case, q=q: [fock.cyclicity_check(c, q)], case, q)
    add("operators", "fock.norm", lambda: [fock.reproducing_check(q=0)], build_case(1), (0,))

    for case, q in MOMENT_MATRIX:
        add("meijer", "meijer.moments",
            lambda c=case, q=q: kernel.moment_check(c, q, m_max=MOMENT_M_MAX), case, q)
    add("meijer", "weight.sign", lambda: [kernel.sign_scan_report(build_case(1), (0,))],
        build_case(1), (0,))
    for case, q in feasible_pairs():
        add("meijer", "kernel.cm", lambda c=case, q=q: _kernel_cm(c, q), case, q)

    for phi in BERGMAN_PHIS:
        add("bergman", "bergman.case1",
            lambda phi=phi: [kernel.bergman_norm_case1(0, phi)], build_case(1), (0,))

    for case in STRUCTURE_ROWS:
        add("structure", "structure.dim", lambda c=case: [structure.check_g_dimension(c)], case)
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
        and (case_id is None or (e.case is not None and e.case.case_id == case_id))
        and (want is None or (e.q is not None and _q_matches(e.q, want)))
    ]


def run_entry(entry: Entry) -> list[CheckReport]:
    """The entry's reports, each stamped with its own time.

    A report's elapsed_ms is the time since the previous report of this
    entry, or since the entry started for the first one.  If the entry
    raises, the reports it yielded are kept and one `error` report
    (traceback on stderr), timed from the last of them, is appended.
    """
    reports: list[CheckReport] = []
    last = time.perf_counter()

    def stamp(rep: CheckReport) -> None:
        nonlocal last
        now = time.perf_counter()
        rep.elapsed_ms = (now - last) * 1000
        last = now
        reports.append(rep)

    try:
        for rep in entry.run():
            stamp(rep)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        stamp(entry.error_report(exc))
    return reports


def run_suite(name: str, case_id: int | None = None, q=None) -> list[CheckReport]:
    """Run every entry of suite `name` selected by case number and q (see select)."""
    return [rep for e in select((name,), case_id, q) for rep in run_entry(e)]
