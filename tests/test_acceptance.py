"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here: exact (zero tolerance) for every symbolic check,
1e-8 relative for the norm quadratures, 1e-6 relative for Meijer moments,
1e-4 relative for the Bergman cross-check.
"""

import math
import time
from fractions import Fraction as F

from focklab import bernstein as bn
from focklab import checks, fock, kernel, sl2, structure
from focklab.jordan import build_case, implementable

NORM_RTOL = 1e-8
MOMENT_RTOL = 1e-6
BERGMAN_RTOL = 1e-4


def _line(num: int, ok: bool, text: str):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} — {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_root_tables():
    t0 = time.monotonic()
    checks = kernel.roots_table_suite()
    elapsed = time.monotonic() - t0
    ok = all(c.status == "pass" for c in checks) and elapsed < 1.0
    _line(1, ok, f"{len(checks)} root-table rows exact in {elapsed * 1000:.0f} ms")


def test_criterion_02_meijer_parameter_table():
    checks = kernel.meijer_param_table_suite()
    ok = all(c.status == "pass" for c in checks)
    ok = ok and all("cancellation=yes" in c.details for c in checks)
    _line(2, ok, f"{len(checks)} Meijer rows exact, one alpha/beta cancellation each")


def test_criterion_03_bernstein_identities():
    results = [bn.verify_bernstein_identity(f, alphas=(1, 2, 3))
               for f in checks.BERNSTEIN_SYMBOLIC]
    results += [
        bn.verify_bernstein_identity(f, alphas=(1, 2), mode="points", seed=20240)
        for f in checks.BERNSTEIN_POINTS
    ]
    ok = all(r.report.status == "pass" for r in results)
    consts = sorted({str(r.constant) for r in results})
    _line(3, ok, f"{len(results)} family identities, zero residual, constants {consts}")


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
    # case (1), q = 0: quadrature a_m vs 1/(4m+1)
    from scipy.integrate import quad

    worst = 0.0
    for m in range(5):
        val, _ = quad(lambda t, n=4 * m: (1 + t) ** (-(n + 2)), 0, math.inf)
        worst = max(worst, abs(val - 1.0 / (4 * m + 1)) * (4 * m + 1))
    ok = ok and worst <= NORM_RTOL
    _line(6, ok, f"{n} exact ratio identities; quadrature a_m within {worst:.1e} of 1/(4m+1)")


def test_criterion_07_norm_checks():
    rep = fock.reproducing_check(q=0, m_values=(0, 1, 2, 3), rel_tol=NORM_RTOL)
    ok = rep.status == "pass"
    worst = float(rep.residual)
    for phi in checks.BERGMAN_PHIS:
        b = kernel.bergman_norm_case1(0, phi, rel_tol=BERGMAN_RTOL)
        ok = ok and b.status == "pass"
        worst = max(worst, float(b.residual))
    _line(7, ok, f"monomial norms to {NORM_RTOL:.0e}; Bergman graded-sum vs weighted integral on 3 functions, worst rel {worst:.1e}")


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
        assert implementable(case)
        rep = structure.check_g_dimension(case)
        ok = ok and rep.status == "pass"
    _line(9, ok, f"dim k + dim W = dim g exact on {len(rows)} table rows (up to e8 = 248)")


def test_criterion_10_kernel_coefficients():
    ok = True
    n = 0
    for case, q in pm_pairs():
        ks = kernel.c_sequence(case, q, m_max=50)  # asserts closed == recurrence
        ok = ok and all(c > 0 for c in ks.coeffs)
        ok = ok and kernel.kernel_eval(case, q, 0.0) == 1.0
        n += 1
    _line(10, ok, f"c_m closed form == recurrence, positive, m<=50 on {n} (case, q) pairs; series(0) = 1")


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
