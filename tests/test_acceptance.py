"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here: exact (zero tolerance) for every symbolic check
and for the monomial norms (Beta integrals), 1e-10 relative for the Meijer
moments and for the Bergman cross-check, each also within its own
trapezoid error bound.
"""

import time
from fractions import Fraction as F

from focklab import bernstein as bn
from focklab import checks, fock, kernel, sl2, structure
from focklab.jordan import Family, build_case

MOMENT_RTOL = 1e-10
BERGMAN_RTOL = 1e-10


def _line(num: int, ok: bool, text: str):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} — {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_root_tables():
    t0 = time.monotonic()
    checks = list(kernel.roots_table_suite())
    elapsed = time.monotonic() - t0
    ok = all(c.status == "pass" for c in checks) and elapsed < 1.0
    _line(1, ok, f"{len(checks)} root-table rows exact in {elapsed * 1000:.0f} ms")


def test_criterion_02_meijer_parameter_table():
    checks = list(kernel.meijer_param_table_suite())
    ok = all(c.status == "pass" for c in checks)
    ok = ok and all("cancellation=yes" in c.details for c in checks)
    _line(2, ok, f"{len(checks)} Meijer rows exact, one alpha/beta cancellation each")


def test_criterion_03_bernstein_identities():
    reports = [r for f, alphas in checks.BERNSTEIN_FAMILIES
               for r in bn.verify_bernstein_identity(f, alphas=alphas)]
    ok = all(r.status == "pass" for r in reports)
    consts = sorted({r.details.removeprefix("C=") for r in reports})
    _line(3, ok, f"{len(checks.BERNSTEIN_FAMILIES)} family identities, zero residual "
                 f"at {len(reports)} alphas, constants {consts}")


# (case, q) pairs beyond the registry's feasible pairs, kept so that the p_m,
# a_m and c_m criteria cover a second admissible q further up each lattice
EXTRA_PM_PAIRS = [
    (build_case(4), (3, 1, 1)),
    (build_case(5), (2, 2, 2, 2)),
    (build_case(7, p=2), (2, 2, 2)),
    (build_case(8, p1=4, p2=2), (2, 3)),
    (build_case(9, variant="b"), (2,)),
    (build_case(10, variant="a"), (2, 3)),
    (build_case(10, variant="d"), (2, 10)),
]


def pm_pairs():
    return list(checks.feasible_pairs()) + EXTRA_PM_PAIRS


def test_criterion_04_sl2_symbol_identity():
    n = 0
    ok = True
    for case, q in pm_pairs():
        rep, residual = sl2.pm_identity_check(case, q)
        ok = ok and rep.status == "pass" and residual.is_zero()
        n += 1
    adm = sl2.solve_eta0(checks.INFEASIBLE_CASE)
    ok = ok and not adm.feasible
    for forced_q in ((0, 0), (3, 0), (6, 1)):
        _, residual = sl2.pm_identity_check(checks.INFEASIBLE_CASE, forced_q, forced=True)
        ok = ok and not residual.is_zero()
    _line(4, ok, f"p_m identity zero residual on {n} (case, q) pairs; case (11) infeasible with provably nonzero residual")


def test_criterion_05_operator_commutators():
    t0 = time.monotonic()
    ok = True
    for case, q in checks.COMMUTATOR_MATRIX:
        rep = fock.commutator_check(case, q, m_trunc=6)
        ok = ok and rep.status == "pass" and "kappa=1/A" in rep.details
    # calibration: the other convention must fail on case (1), where A = 256
    bad = fock.commutator_check(build_case(1), (0,), m_trunc=6, kappa="A")
    ok = ok and bad.status == "fail"
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    _line(5, ok, f"sl2 relations exact on {len(checks.COMMUTATOR_MATRIX)} truncations (M=6), kappa=1/A calibrated, {elapsed:.1f} s")


def test_criterion_06_a_m_consistency():
    ok = True
    n = 0
    for case, q in pm_pairs():
        for m in range(11):
            ok = ok and bn.a_ratio(case, q, m) == bn.a_ratio_gindikin(case, q, m)
            n += 1
    # case (1), q = 0: the Beta integral a_m = int (1+t)^-(4m+2) dt is 1/(4m+1)
    ok = ok and all(fock.beta_integral(0, 4 * m) == F(1, 4 * m + 1) for m in range(5))
    _line(6, ok, f"{n} exact ratio identities; Beta-integral a_m = 1/(4m+1) exactly for m <= 4")


def test_criterion_07_norm_checks():
    rep = fock.reproducing_check(q=0, m_values=(0, 1, 2, 3))
    ok = rep.status == "pass" and rep.residual == "0"
    worst = 0.0
    for phi in checks.BERGMAN_PHIS:
        b = kernel.bergman_norm_case1(0, phi, rel_tol=BERGMAN_RTOL)
        ok = ok and b.status == "pass"
        worst = max(worst, float(b.residual))
    _line(7, ok, f"monomial norms exact; Bergman graded-sum vs weighted integral on 3 functions, worst rel {worst:.1e}")


def test_criterion_08_meijer_moments():
    ok = True
    worst = 0.0
    for case, q in checks.MOMENT_MATRIX:
        for c in kernel.moment_check(case, q, m_max=5, rel_tol=MOMENT_RTOL):
            ok = ok and c.status == "pass"
            if c.residual not in ("0", ""):
                worst = max(worst, float(c.residual))
    _line(8, ok, f"moments m<=5 on {len(checks.MOMENT_MATRIX)} (case, q) pairs vs Gamma ratios and fitted C/(c a)_m, worst rel {worst:.1e}")


def test_criterion_09_dimension_checks():
    rows = checks.STRUCTURE_ROWS
    ok = True
    for case in rows:
        assert all(f.family is not Family.EXCEPTIONAL for f in case.factors)
        rep = structure.check_g_dimension(case)
        ok = ok and rep.status == "pass"
    _line(9, ok, f"dim k + dim W = dim g exact on {len(rows)} table rows (up to e8 = 248)")


def test_criterion_10_kernel_coefficients():
    ok = True
    n = 0
    for case, q in pm_pairs():
        ks = kernel.c_sequence(case, q, m_max=50)  # asserts closed == recurrence
        ok = ok and all(c > 0 for c in ks.coeffs)
        exact = float(sum(c / 2**m for m, c in enumerate(ks.coeffs)))
        ok = ok and abs(kernel.kernel_eval(case, q, 0.5) - exact) <= 1e-12 * exact
        n += 1
    _line(10, ok, f"c_m closed form == recurrence, positive, m<=50 on {n} (case, q) pairs; series(1/2) = sum c_m/2^m to 1e-12")


def test_criterion_11_weight_sign_change():
    rep = kernel.sign_scan_report(build_case(1), (0,))
    ok = rep.status == "pass"
    _line(11, ok, f"sign change of G on (0, inf) located for case (1), q=0: {rep.details}")


def test_criterion_12_cyclicity():
    ok = True
    for case, q in checks.CYCLICITY_MATRIX:
        rep = fock.cyclicity_check(case, q, m_trunc=4)
        ok = ok and rep.status == "pass"
    _line(12, ok, "generated span fills the interior truncation for cases (1), (3), (5) at M=4")
