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
    checks = list(roots_table_suite())
    assert len(checks) >= 60
    assert all(c.status == "pass" for c in checks), [
        (c.id, c.residual) for c in checks if c.status != "pass"
    ]


def test_meijer_param_table_all_rows():
    checks = list(meijer_param_table_suite())
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


@pytest.mark.parametrize("case, q, precision", [
    (build_case(1), (0,), 12),
    (build_case(5), (0, 0, 0, 0), 12),
    (build_case(1), (4,), 12),  # shares both tables with q = 0
    (build_case(1), (0,), 13),  # odd precision: far contour offset 5/4 + 29/2
])
def test_meijer_eval_within_noise_estimate(case, q, precision):
    # across the whole log-u budget [e^-26, 1e3] the contour sum must sit
    # within its own roundoff model against an independent dps-30 reference
    import mpmath as mp

    a_red, b_red = meijer_params(case, q).reduced
    ev = MeijerEvaluator(b_red, a_red, precision=precision)
    a_mp = [mp.mpf(x.numerator) / x.denominator for x in a_red]
    b_mp = [mp.mpf(x.numerator) / x.denominator for x in b_red]
    lo, hi = -26.0, math.log(1e3)
    us = [math.exp(lo + (hi - lo) * i / 24) for i in range(25)]
    grid = ev.eval_grid(us)  # the same 25 u in one array call
    with mp.workdps(30):
        for u, g in zip(us, grid):
            ref = float(mp.meijerg([[], a_mp], [b_mp, []], u))
            assert abs(ev.eval(u) - ref) <= 2 * ev.noise_estimate(u), u
            assert abs(g - ref) <= 2 * ev.noise_estimate(u), u


def test_eval_grid_matches_eval_across_the_contour_switch():
    # more u than one chunk, on both sides of the near/far contour switch
    import focklab.kernel as kernel

    ev = MeijerEvaluator((F(0), F(-1, 4), F(-1, 2)), (F(-3, 4),), precision=12)
    us = [math.exp(-26.0 + 33.0 * i / 1199) for i in range(1200)]
    assert len(us) > 2 * kernel.EVAL_CHUNK
    picked = {min(ev.contours, key=lambda ct: ev._log_scale(ct, math.log(u)))["c"]
              for u in us if math.log(u) >= ev.log_u_floor}
    assert picked == {ct["c"] for ct in ev.contours}
    grid = ev.eval_grid(us)
    assert grid.shape == (len(us),)
    for u, g in zip(us, grid):
        assert abs(g - ev.eval(u)) <= ev.noise_estimate(u), u
    with pytest.raises(ValueError):
        ev.eval_grid([1.0, 0.0])


def test_contour_blocks_sum_as_the_direct_phase_sum():
    # node k = a size + b at blocks[b, a]; past the last node only zeros
    import numpy as np

    from focklab.kernel import _contour_sum

    ev = MeijerEvaluator((F(0), F(-1, 4), F(-1, 2)), (F(-3, 4),), precision=12)
    for ct in ev.contours:
        nodes = ct["nodes"]
        n = len(nodes)
        size, count = ct["blocks"].shape
        assert size * (count - 1) < n <= size * count and count <= size
        fw = ct["blocks"].T.ravel()
        assert np.count_nonzero(fw[:n]) == n and not fw[n:].any()
        fw = fw[:n]
        assert np.abs(fw).sum() == pytest.approx(ct["w_abs"], rel=1e-14)
        assert np.array_equal(-1j * nodes[:size], ct["steps"][:size])
        assert np.array_equal(-1j * nodes[::size], ct["steps"][size:])
        # reference: one exponential per node; both phases round to about
        # 1e-16 |t_k log u|, so they agree to a few eps w_abs T |log u|
        for log_u in (-26.0, -3.7, 0.0, 0.4, 6.9):
            direct = (fw * np.exp(-1j * nodes * log_u)).sum().real
            tol = 8 * np.finfo(float).eps * ct["w_abs"] * (1 + nodes[-1] * abs(log_u))
            assert abs(_contour_sum(ct, log_u) - direct) <= tol, log_u


@pytest.mark.parametrize("case, q", [
    (build_case(1), (0,)),
    (build_case(5), (0, 0, 0, 0)),
    (build_case(9, variant="a"), (0,)),
])
def test_sign_scan_brackets_same_from_grid_and_scalar(case, q):
    vals, brackets = sign_scan(case, q, grid=2000)
    a_red, b_red = meijer_params(case, q).reduced
    ev = MeijerEvaluator(b_red, a_red, precision=12)
    scalar = [ev.eval(u) for u, _ in vals]
    assert brackets
    assert brackets == [(u0, u1) for (u0, _), (u1, _), g0, g1
                        in zip(vals, vals[1:], scalar, scalar[1:])
                        if g0 != 0.0 and g1 != 0.0 and (g0 > 0) != (g1 > 0)]


@pytest.mark.parametrize("grid", [1, 0, -5])
def test_sign_scan_needs_two_points(grid):
    with pytest.raises(ValueError, match="at least 2"):
        sign_scan(build_case(1), (0,), grid=grid)


def test_shifted_parameters_share_one_table():
    # u^sigma G(u; a, b) = G(u; a + sigma, b + sigma): a common shift of every
    # parameter reuses both contour tables, and only the contour abscissa moves
    import mpmath as mp

    from focklab.kernel import _contour_table

    _contour_table.cache_clear()
    e0 = MeijerEvaluator((F(0), F(-1, 4), F(-1, 2)), (F(-3, 4),), precision=12)
    e1 = MeijerEvaluator((F(1), F(3, 4), F(1, 2)), (F(1, 4),), precision=12)
    assert _contour_table.cache_info().misses == 2  # one per contour
    lo, hi = -26.0, math.log(1e3)
    for i in range(25):
        u = math.exp(lo + (hi - lo) * i / 24)
        assert e1.eval(u) == pytest.approx(u * e0.eval(u), rel=1e-13, abs=0.0), u
        assert e1.noise_estimate(u) == pytest.approx(u * e0.noise_estimate(u),
                                                     rel=1e-13, abs=0.0), u
    # the same b with another a is not a shift: two new tables
    MeijerEvaluator((F(0), F(-1, 4), F(-1, 2)), (F(-1, 4),), precision=12)
    assert _contour_table.cache_info().misses == 4
    # nor is the same a with another b, and its values are its own
    e2 = MeijerEvaluator((F(0), F(-1, 2), F(-1, 2)), (F(-3, 4),), precision=12)
    assert _contour_table.cache_info().misses == 6
    for u in (0.01, 0.5, 2.0):
        ref = float(mp.meijerg([[], [-0.75]], [[0.0, -0.5, -0.5], []], u))
        assert abs(e2.eval(u) - ref) <= 2 * e2.noise_estimate(u), u
    # another precision sizes another step h and truncation T
    MeijerEvaluator((F(0), F(-1, 4), F(-1, 2)), (F(-3, 4),), precision=13)
    assert _contour_table.cache_info().misses == 8


def test_meijer_eval_far_below_the_log_u_budget():
    # case (1) q=0 has no log terms: far below the contour's range its
    # residue series gives G within its own roundoff floor of dps-30 mpmath
    import mpmath as mp

    ev = MeijerEvaluator((F(0), F(-1, 4), F(-1, 2)), (F(-3, 4),), precision=12)
    us = (1e-14, 1e-20, 1e-100)
    with mp.workdps(30):
        for u, g in zip(us, ev.eval_grid(us)):
            ref = float(mp.meijerg([[], [-0.75]], [[0.0, -0.25, -0.5], []], u))
            assert g == ev.eval(u)
            assert abs(g - ref) <= ev.noise_estimate(u) <= 1e-14 * abs(ref), u


def test_meijer_eval_below_the_log_u_budget_raises_with_log_terms():
    # case (5)'s b = (1, 1, 1) merge into a triple pole, so G has log terms
    # near 0 and no residue series here: below e^-26 every entry point raises
    ev = MeijerEvaluator((1, 1, 1), (0,), precision=12)
    assert ev.log_terms and math.isfinite(ev.eval(math.exp(-25.9)))
    for call in (ev.eval, ev.noise_estimate, lambda u: ev.eval_grid([1.0, u])):
        with pytest.raises(ValueError, match="u = 1e-14 .* log terms"):
            call(1e-14)


def test_eval_and_eval_grid_raise_alike_where_u_power_overflows():
    # case (1)'s parameters shifted by -60: u^(-60.5) in the residue series
    # overflows at 1e-200, and every entry point raises alike
    ev = MeijerEvaluator((F(-60), F(-241, 4), F(-121, 2)), (F(-243, 4),), precision=12)
    assert not ev.log_terms and math.isfinite(ev.eval(1.0))
    for call in (ev.eval, ev.noise_estimate, lambda u: ev.eval_grid([1.0, u])):
        with pytest.raises(ValueError, match="u = 1e-200 "):
            call(1e-200)


def _tables_of_the_checks():
    """(key, table) of every contour the meijer checks, the export profiles
    (cases 1, 5 and 9a at q = 0) and case 1 at precision 13 build."""
    from focklab.checks import MOMENT_MATRIX
    from focklab.kernel import _contour_table

    pairs = [(case, q, 12) for case, q in MOMENT_MATRIX]
    pairs += [(build_case(c, **kw), q, 12) for c, kw, q in
              ((1, {}, (0,)), (5, {}, (0, 0, 0, 0)), (9, {"variant": "a"}, (0,)))]
    pairs.append((build_case(1), (0,), 13))
    tables = {}
    for case, q, precision in pairs:
        a_red, b_red = meijer_params(case, q).reduced
        min_b = min(b_red)
        b_rel = tuple(sorted(x - min_b for x in b_red))
        a_rel = tuple(sorted(x - min_b for x in a_red))
        shift = min(8 + F(precision, 2), 24)
        ev = MeijerEvaluator(b_red, a_red, precision=precision)
        for offset, ct in zip((F(5, 4), F(5, 4) + shift), ev.contours):
            key = (b_rel, a_rel, offset, precision, 26.0)
            tables[key] = _contour_table(*key)
            assert tables[key]["blocks"] is ct["blocks"]  # the evaluator's own table
    return tables


def test_float_gamma_ratio_within_its_bound_and_mpmath_prefix_exact():
    # every node of every table the checks reach: the float F lies within
    # eps_k of mpmath, the weights before k0 are exactly the mpmath ones, and
    # the float tail's error bound stays under a tenth of the roundoff unit
    import numpy as np

    from focklab.gammaratio import gamma_ratio_float, gamma_ratio_mp
    from focklab.kernel import TAIL_SHARE

    tables = _tables_of_the_checks()
    assert len(tables) == 8  # 3 parameter shapes at precision 12, 1 at 13; 2 contours each
    for (b_rel, a_rel, offset, precision, _), ct in tables.items():
        nodes = ct["nodes"]
        b_re = [x + offset for x in b_rel]
        a_re = [x + offset for x in a_rel]
        f_float, eps = gamma_ratio_float(b_re, a_re, nodes)
        f_mp = np.array(gamma_ratio_mp(b_re, a_re, nodes, precision))
        assert (np.abs(f_float - f_mp) <= eps * np.abs(f_mp)).all()
        assert eps.max() < 1e-11
        fw_mp = f_mp * (nodes[1] / math.pi)
        fw_mp[0] /= 2.0
        k0 = ct["k0"]
        fw = ct["blocks"].T.ravel()[:len(nodes)]
        assert 0 < k0 < len(nodes) // 3
        assert np.array_equal(fw[:k0], fw_mp[:k0])
        assert ct["tail_bound"] == pytest.approx((eps * np.abs(fw))[k0:].sum(), rel=1e-12)
        assert ct["tail_bound"] <= TAIL_SHARE * ct["w_abs"]
        assert np.abs(fw - fw_mp).sum() <= ct["tail_bound"]


def test_contour_table_raises_on_a_wrong_float_gamma(monkeypatch):
    # a float log Gamma off by a relative 1e-9 must fail the build's own check
    import focklab.gammaratio as gammaratio
    import focklab.kernel as kernel

    true_log_gamma = gammaratio.log_gamma_float

    def skewed(w):
        value, error = true_log_gamma(w)
        return value * (1 + 1e-9), error

    kernel._contour_table.cache_clear()
    monkeypatch.setattr(gammaratio, "log_gamma_float", skewed)
    try:
        with pytest.raises(AssertionError, match="outside its bound"):
            MeijerEvaluator((F(0), F(-1, 4), F(-1, 2)), (F(-3, 4),), precision=12)
    finally:
        kernel._contour_table.cache_clear()


def test_meijer_moments_closed_form_values():
    # spec-derived values: moment 0 = Gamma(2)^3/Gamma(1) = 1, moment 2 = 108
    ev = MeijerEvaluator((1, 1, 1), (0,), precision=12)
    mu0, err0 = ev.moment(0)
    mu2, err2 = ev.moment(2)
    # the trapezoid's error bound holds, and is far inside 1e-10
    assert abs(mu0 - 1.0) <= err0 < 1e-10
    assert abs(mu2 - 108.0) <= err2 < 1e-10 * 108


def test_moment_check_case1():
    checks = list(moment_check(build_case(1), (0,), m_max=3))
    assert all(c.status == "pass" for c in checks)
    moments = [c for c in checks if c.id.startswith("meijer.moment.")]
    assert len(moments) == 4 and all(c.tolerance == "1e-10" for c in moments)
    assert all(0 < _detail(c, "err_bound") < 1e-10 * _detail(c, "trapezoid") for c in moments)


def _detail(report, key: str) -> float:
    return float(report.details.split(key + "=")[1].split()[0])


def test_moment_check_fails_on_a_closed_form_off(monkeypatch):
    # off by 1e-9, a closed form misses rel_tol; off by 1e-12 it meets
    # rel_tol but not the trapezoid's error bound, which fails it as well
    real = MeijerEvaluator.moment_closed
    for off in (1e-9, 1e-12):
        monkeypatch.setattr(MeijerEvaluator, "moment_closed",
                            lambda self, m, off=off: real(self, m) * (1 + off))
        moments = [c for c in moment_check(build_case(5), (0, 0, 0, 0), m_max=2)
                   if c.id.startswith("meijer.moment.")]
        assert len(moments) == 3 and all(c.status == "fail" for c in moments), off


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
    for phi in ([(1, {0: 1.0})], [(1, {4: 1.0})],
                [(0, {0: 1.0}), (1, {0: 0.5, 2: 1.0}), (2, {3: 1.0})]):
        rep = bergman_norm_case1(0, phi)
        assert rep.status == "pass" and rep.tolerance == "1e-10"
        # the moments' error bounds carried through, and small
        assert 0 < _detail(rep, "err_bound") < 1e-10 * _detail(rep, "graded"), rep.details


def test_bergman_norm_fails_with_a_graded_coefficient_off(monkeypatch):
    # c_1 off by 1e-8 on the graded side only
    import focklab.kernel as kernel

    real = kernel.c_closed
    monkeypatch.setattr(kernel, "c_closed",
                        lambda sp, m: real(sp, m) * (1 + F(1, 10**8)) if m == 1 else real(sp, m))
    rep = bergman_norm_case1(0, [(1, {0: 1.0})])
    assert rep.status == "fail" and float(rep.residual) > 1e-9, rep.details


@pytest.mark.parametrize("precision", [12, 13])
def test_moments_and_bergman_hold_their_error_bounds(precision):
    # every meijer.moment and bergman.case1 check, at either precision: it
    # passes, its moments sit within their bound, and the bound within 1e-10
    from focklab.checks import BERGMAN_PHIS, MOMENT_MATRIX
    from focklab.kernel import _evaluator_cached

    for case, q in MOMENT_MATRIX:
        reports = [c for c in moment_check(case, q, m_max=5, precision=precision)
                   if c.id.startswith("meijer.moment.")]
        assert len(reports) == 6 and all(c.status == "pass" for c in reports), case.label
        a_red, b_red = meijer_params(case, q).reduced
        ev = _evaluator_cached(tuple(b_red), tuple(a_red), precision)
        for m in range(6):
            mu, err_bound = ev.moment(m)
            assert abs(mu - ev.moment_closed(m)) <= err_bound <= 1e-10 * abs(mu), (case.label, q, m)
    for phi in BERGMAN_PHIS:
        rep = bergman_norm_case1(0, phi, precision=precision)
        assert rep.status == "pass", rep.details
        assert _detail(rep, "err_bound") <= 1e-10 * _detail(rep, "graded"), rep.details


def test_bergman_norm_q4():
    # the q-shifted profile keeps the cross-check exact for q = 4 as well
    rep = bergman_norm_case1(4, [(0, {0: 1.0}), (1, {2: 1.0})])
    assert rep.status == "pass", rep.details
