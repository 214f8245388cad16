"""Spectral parameters, kernel coefficients, tables, and the Meijer layer."""

import math
from fractions import Fraction as F

import pytest

from focklab.jordan import build_case
from focklab.kernel import (
    MeijerEvaluator,
    bergman_norm_case1,
    c_closed,
    c_sequence,
    kernel_eval,
    meijer_param_table_suite,
    meijer_params,
    moment_check,
    q0_reduction_check,
    roots_table_suite,
    sign_scan,
    sign_scan_report,
    spectral_params,
)
from focklab.sl2 import feasible_q_values


def test_spectral_params_case1():
    sp = spectral_params(build_case(1), (0,))
    assert (sp.eta0, 1 - sp.eta0) == (F(1, 4), F(3, 4))
    assert sp.kind == "case1"
    assert set(sp.roots) == {F(1, 2), F(1, 4)}
    assert sorted(sp.b_roots) == [F(1, 4), F(1, 2), F(3, 4), F(1)]


def test_spectral_params_case9_d1():
    sp = spectral_params(build_case(9, variant="a"), (0,))
    assert sp.eta0 == F(5, 2) and sp.kind == "case1"
    assert sorted(sp.roots) == [-1, F(-1, 2)]


def test_spectral_params_case5_q3_case2():
    sp = spectral_params(build_case(5), (3, 3, 3, 3))
    assert sp.eta0 == 4 and sp.kind == "case2"
    assert sp.roots == (0, 0, 0)


def test_c_sequence_case1():
    ks = c_sequence(build_case(1), (0,), m_max=50)
    assert ks.kind == "OneF2"
    assert ks.coeffs[0] == 1
    eta0 = F(1, 4)
    # closed form (eta0+1)_m / ((eta0+1/2)_m (eta0+1/4)_m m!)
    assert ks.coeffs[1] == (eta0 + 1) / ((F(3, 4)) * (F(1, 2)) * 1)
    assert all(c > 0 for c in ks.coeffs)


def test_c_sequence_case5_frozen_oracle():
    # recurrence oracle: c_{m+1}/c_m = (m+2)/(m+1)^3, so c_m = (m+1)/(m!)^2
    ks = c_sequence(build_case(5), (0, 0, 0, 0), m_max=30)
    for m in range(31):
        assert ks.coeffs[m] == F(m + 1, math.factorial(m) ** 2)


def test_c_sequence_checks_closed_form_at_every_m(monkeypatch):
    # a recurrence that is wrong at a single m must trip the exact check
    import focklab.kernel as kernel

    true_ratio = kernel.c_ratio

    def skewed(sp, m):
        r = true_ratio(sp, m)
        return r * F(1000001, 1000000) if m == 37 else r

    monkeypatch.setattr(kernel, "c_ratio", skewed)
    with pytest.raises(AssertionError, match="m=38"):
        c_sequence(build_case(1), (0,), m_max=50)
    c_sequence(build_case(1), (0,), m_max=37)  # the coefficients before it still agree


def test_c_positivity_across_matrix():
    for case in (build_case(1), build_case(4), build_case(9, variant="c"),
                 build_case(10, variant="d"), build_case(8, p1=4, p2=2)):
        for q in feasible_q_values(case, 2):
            ks = c_sequence(case, q, m_max=50)
            assert all(c > 0 for c in ks.coeffs)


def test_kernel_eval_at_zero_and_one():
    assert kernel_eval(build_case(1), (0,), 0.0) == 1.0
    # independent oracle: direct Fraction summation of 30 series terms
    case5 = build_case(5)
    q = (0, 0, 0, 0)
    sp = spectral_params(case5, q)
    brute = sum(F(c_closed(sp, m)) for m in range(30))
    val = kernel_eval(case5, q, 1.0)
    assert abs(val - float(brute)) < 1e-14
    assert abs(val - 3.8702221569733959) < 1e-12


def test_kernel_eval_complex_and_budget():
    v = kernel_eval(build_case(1), (0,), 0.3 + 0.1j)
    assert isinstance(v, complex)
    with pytest.raises(ArithmeticError):
        kernel_eval(build_case(1), (0,), 1e9, terms=5)


def test_h_twisted_bernstein_rank1():
    # Delta^k(d/dz) H^{k a} = B(a) conj(Delta)^k H^{k a - k} for H = 1 + z*zc,
    # checked exactly on the doubled-variable ring (zc is the conjugate slot)
    from focklab.bernstein import big_b_poly
    from focklab.jordan import rank1
    from focklab.polyalg import MultiPoly, VarSet, apply_diff_op

    k = 4
    vars = VarSet(("z", "zc"), (0, 1))
    z = MultiPoly.variable(vars, 0)
    zc = MultiPoly.variable(vars, 1)
    h = MultiPoly.constant(vars, 1) + z * zc
    B = big_b_poly(rank1(k))
    for alpha in (1, 2):
        lhs = apply_diff_op(z**k, h ** (k * alpha))
        rhs = (zc**k * h ** (k * alpha - k)).scale(B.eval(alpha))
        assert lhs == rhs


def test_roots_tables_all_rows():
    checks = roots_table_suite()
    assert len(checks) >= 60
    assert all(c.status == "pass" for c in checks), [
        (c.id, c.residual) for c in checks if c.status != "pass"
    ]


def test_meijer_param_table_all_rows():
    checks = meijer_param_table_suite()
    assert all(c.status == "pass" for c in checks), [
        (c.id, c.residual) for c in checks if c.status != "pass"
    ]
    assert all("cancellation=yes" in c.details for c in checks)


def test_meijer_params_row5():
    mp = meijer_params(build_case(5), (3, 3, 3, 3))
    assert mp.alpha == (3, 4)
    assert mp.beta == (4, 4, 4, 4)
    a_red, b_red = mp.reduced
    assert a_red == (3,) and b_red == (4, 4, 4)


def test_meijer_params_row1():
    mp = meijer_params(build_case(1), (4,))
    assert mp.alpha == (F(1, 4), F(5, 4))
    assert sorted(mp.beta) == [F(1, 2), F(3, 4), F(1), F(5, 4)]


def test_q0_reduction():
    for case in (build_case(1), build_case(2, p=3), build_case(3), build_case(5),
                 build_case(9, variant="b")):
        assert q0_reduction_check(case).status == "pass"


def test_meijer_eval_against_mpmath():
    import mpmath as mp

    # case (5) q=0 reduced parameters: repeated betas (1,1,1), alpha 0
    ev = MeijerEvaluator((1, 1, 1), (0,), precision=12)
    for u in (0.05, 0.8, 3.0, 15.0):
        ref = float(mp.meijerg([[], [0]], [[1, 1, 1], []], u))
        assert abs(ev.eval(u) - ref) <= 1e-12 * max(1.0, abs(ref))
    # case (1) q=0: non-integer parameters
    ev = MeijerEvaluator((F(0), F(-1, 4), F(-1, 2)), (F(-3, 4),), precision=12)
    for u in (0.01, 0.5, 2.0):
        ref = float(mp.meijerg([[], [-0.75]], [[-0.5, -0.25, 0.0], []], u))
        assert abs(ev.eval(u) - ref) <= 1e-10 * max(1.0, abs(ref))


@pytest.mark.parametrize("case, q", [(build_case(1), (0,)), (build_case(5), (0, 0, 0, 0))])
def test_meijer_eval_within_noise_estimate(case, q):
    # across the whole log-u budget [e^-26, 1e3] the contour sum must sit
    # within its own roundoff model against an independent dps-30 reference
    import mpmath as mp

    a_red, b_red = meijer_params(case, q).reduced
    ev = MeijerEvaluator(b_red, a_red, precision=12)
    a_mp = [mp.mpf(x.numerator) / x.denominator for x in a_red]
    b_mp = [mp.mpf(x.numerator) / x.denominator for x in b_red]
    lo, hi = -26.0, math.log(1e3)
    with mp.workdps(30):
        for i in range(25):
            u = math.exp(lo + (hi - lo) * i / 24)
            ref = float(mp.meijerg([[], a_mp], [b_mp, []], u))
            assert abs(ev.eval(u) - ref) <= 2 * ev.noise_estimate(u), u


def test_meijer_moments_closed_form_values():
    # spec-derived values: moment 0 = Gamma(2)^3/Gamma(1) = 1, moment 2 = 108
    ev = MeijerEvaluator((1, 1, 1), (0,), precision=12)
    mu0, err0 = ev.moment(0)
    mu2, err2 = ev.moment(2)
    assert abs(mu0 - 1.0) < 1e-9
    assert abs(mu2 - 108.0) < 1e-6 * 108
    # quad's error estimate comes back and sits inside the requested epsrel
    assert 0 < err0 < 1e-9 and 0 < err2 < 1e-9 * 108


def test_moment_check_case1():
    checks = moment_check(build_case(1), (0,), m_max=3)
    assert all(c.status == "pass" for c in checks)
    moments = [c for c in checks if c.id.startswith("meijer.moment.")]
    assert len(moments) == 4 and all("quad_err=" in c.details for c in moments)


def test_sign_scan_case1():
    rep = sign_scan_report(build_case(1), (0,))
    assert rep.status == "pass"
    vals, brackets = sign_scan(build_case(1), (0,))
    assert brackets and brackets[0][0] < 0.02 < brackets[0][1] * 10


def test_small_u_power_law_case1():
    # near u -> 0 the residue at beta = -1/2 dominates: |G| ~ u^{-1/2}
    params = meijer_params(build_case(1), (0,))
    a_red, b_red = params.reduced
    ev = MeijerEvaluator(b_red, a_red, precision=12)
    g1, g2 = ev.eval(1e-9), ev.eval(4e-9)
    assert g1 < 0 and g2 < 0  # negative near zero (Gamma(-1/4) < 0 residue)
    # u^{-1/2} scaling under u -> 4u, subleading term is O(u^{1/4})
    assert abs((g1 / g2) - 2.0) < 0.05


def test_bergman_norm_cross_checks():
    rep = bergman_norm_case1(0, [(1, {0: 1.0})])
    assert rep.status == "pass"
    rep = bergman_norm_case1(0, [(1, {4: 1.0})])
    assert rep.status == "pass"
    rep = bergman_norm_case1(0, [(0, {0: 1.0}), (1, {0: 0.5, 2: 1.0}), (2, {3: 1.0})])
    assert rep.status == "pass"


def test_bergman_norm_q4():
    # the q-shifted profile keeps the cross-check exact for q = 4 as well
    rep = bergman_norm_case1(4, [(0, {0: 1.0}), (1, {2: 1.0})])
    assert rep.status == "pass", rep.details
