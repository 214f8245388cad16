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
    picked = {id(ev._pick(math.log(u))) for u in us}
    assert picked == {id(ct) for ct in ev.contours}
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


def test_quad_counted_keeps_quads_warning():
    from scipy.integrate import IntegrationWarning

    from focklab.kernel import quad_counted

    with pytest.warns(IntegrationWarning):
        _, _, neval = quad_counted(lambda x: math.sin(50 * x) / (x + 1e-3), 0.0, 10.0, limit=2)
    assert neval > 0


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
    # u^{-c} of the far contour overflows a float here; the contour choice
    # must not, and the reported noise must cover the value it returns
    ev = MeijerEvaluator((F(0), F(-1, 4), F(-1, 2)), (F(-3, 4),), precision=12)
    assert math.isfinite(ev.eval(1e-20))
    for u in (1e-14, 1e-20):
        assert ev.noise_estimate(u) >= abs(ev.eval(u))


def test_meijer_moments_closed_form_values():
    # spec-derived values: moment 0 = Gamma(2)^3/Gamma(1) = 1, moment 2 = 108
    ev = MeijerEvaluator((1, 1, 1), (0,), precision=12)
    mu0, err0, neval0 = ev.moment(0)
    mu2, err2, neval2 = ev.moment(2)
    assert abs(mu0 - 1.0) < 1e-9
    assert abs(mu2 - 108.0) < 1e-6 * 108
    # quad's error estimate comes back and sits inside the requested epsrel
    assert 0 < err0 < 1e-9 and 0 < err2 < 1e-9 * 108
    # and so does its count of integrand evaluations
    assert neval0 > 0 and neval2 > 0


def test_moment_check_case1():
    checks = list(moment_check(build_case(1), (0,), m_max=3))
    assert all(c.status == "pass" for c in checks)
    moments = [c for c in checks if c.id.startswith("meijer.moment.")]
    assert len(moments) == 4 and all("quad_err=" in c.details for c in moments)
    assert all(int(c.details.split("neval=")[1].split()[0]) > 0 for c in moments)


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
        assert rep.status == "pass"
        # quad's largest error estimate is reported, and it is small
        quad_err = float(rep.details.split("quad_err=")[1].split()[0])
        assert 0 < quad_err < 1e-8, rep.details
        assert int(rep.details.split("neval=")[1]) > 0, rep.details


def test_bergman_norm_q4():
    # the q-shifted profile keeps the cross-check exact for q = 4 as well
    rep = bergman_norm_case1(4, [(0, {0: 1.0}), (1, {2: 1.0})])
    assert rep.status == "pass", rep.details
