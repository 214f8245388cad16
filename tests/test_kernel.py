"""Spectral parameters, kernel coefficients, tables, and the Meijer layer."""

import math
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focklab import bernstein, checks, fock, kernel, sl2
from focklab.bernstein import btilde_roots
from focklab.gammaratio import MellinSymbol
from focklab.jordan import build_case
from focklab.kernel import (
    MeijerEvaluator,
    bergman_norm_case1,
    c_sequence,
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

# the weight's Mellin symbol for case (1), q = 0: b = (0, -1/4, -1/2), a = -3/4
CASE1_Q0 = MellinSymbol((0, F(-1, 4), F(-1, 2)), (F(-3, 4),))


def floor(ev, u):
    """The absolute roundoff floor of ev.eval(u)."""
    return float(ev.eval_grid([u])[1][0])


def test_spectral_params_case1():
    sp = spectral_params(build_case(1), (0,))
    assert (sp.eta0, 1 - sp.eta0) == (F(1, 4), F(3, 4))
    assert sp.kind == "OneF2"
    assert sp.roots == (F(3, 4), F(1, 2), F(1, 4))
    assert sorted(btilde_roots(build_case(1))) == [F(1, 4), F(1, 2), F(3, 4), F(1)]


def test_spectral_params_case9_d1():
    sp = spectral_params(build_case(9, variant="a"), (0,))
    assert sp.eta0 == F(5, 2) and sp.kind == "OneF2"
    assert sorted(sp.roots) == [F(-3, 2), -1, F(-1, 2)]


def test_spectral_params_case5_q3_case2():
    sp = spectral_params(build_case(5), (3, 3, 3, 3))
    assert sp.eta0 == 4 and sp.kind == "TwoF3"
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


@settings(max_examples=60, deadline=None)
@given(
    upper=st.lists(st.fractions(max_denominator=6, min_value=-12, max_value=12),
                   max_size=3),
    lower=st.lists(st.fractions(max_denominator=6, min_value=-12, max_value=12).filter(
        lambda x: x > 0 or x.denominator > 1), min_size=1, max_size=3),
    m_max=st.integers(0, 30),
)
def test_pochhammer_ratio_telescopes_to_the_pochhammer_quotient(upper, lower, m_max):
    # the steps for m < n multiply to (upper)_n / (lower)_n, with sympy's
    # rising factorial as the oracle; no lower factor vanishes, as no lower
    # parameter is a non-positive integer
    import sympy

    def pochhammer(xs, n):
        return math.prod((sympy.rf(sympy.Rational(x.numerator, x.denominator), n) for x in xs),
                         start=sympy.Integer(1))

    c = F(1)
    for n in range(m_max + 1):
        assert sympy.Rational(c.numerator, c.denominator) == (
            pochhammer(upper, n) / pochhammer(lower, n)), (upper, lower, n)
        c *= kernel.pochhammer_ratio(upper, lower, n)


def test_c_positivity_across_matrix():
    for case in (build_case(1), build_case(4), build_case(9, variant="c"),
                 build_case(10, variant="d"), build_case(8, p1=4, p2=2)):
        for q in feasible_q_values(case, 2):
            ks = c_sequence(case, q, m_max=50)
            assert all(c > 0 for c in ks.coeffs)


def test_h_twisted_bernstein_rank1():
    # Delta^k(d/dz) H^{k a} = B(a) conj(Delta)^k H^{k a - k} for H = 1 + z*zc,
    # checked exactly on the doubled-variable ring (zc is the conjugate slot)
    from focklab.bernstein import big_b_poly
    from focklab.jordan import rank1
    from focklab.polyalg import MultiPoly, VarSet, apply_diff_op

    k = 4
    vars = VarSet(("z", "zc"))
    z = MultiPoly.variable(vars, 0)
    zc = MultiPoly.variable(vars, 1)
    h = MultiPoly.constant(vars, 1) + z * zc
    B = big_b_poly(rank1(k))
    for alpha in (1, 2):
        lhs = apply_diff_op(z**k, h ** (k * alpha))
        rhs = (zc**k * h ** (k * alpha - k)).scale(B.eval((alpha,)))
        assert lhs == rhs


def test_roots_tables_all_rows():
    reports = list(roots_table_suite())
    assert len(reports) >= 60
    assert all(c.status == "pass" for c in reports), [
        (c.id, c.residual) for c in reports if c.status != "pass"
    ]


def test_meijer_param_table_all_rows():
    reports = list(meijer_param_table_suite())
    assert all(c.status == "pass" for c in reports), [
        (c.id, c.residual) for c in reports if c.status != "pass"
    ]
    assert all("cancellation=yes" in c.details for c in reports)


def test_meijer_params_row5():
    mp = meijer_params(build_case(5), (3, 3, 3, 3))
    assert mp.alpha == (3, 4)
    assert mp.beta == (4, 4, 4, 4)
    assert mp.symbol == MellinSymbol((4, 4, 4), (3,))


def test_meijer_params_row1():
    mp = meijer_params(build_case(1), (4,))
    assert mp.alpha == (F(1, 4), F(5, 4))
    assert sorted(mp.beta) == [F(1, 2), F(3, 4), F(1), F(5, 4)]


def test_q0_reduction():
    for case in (build_case(1), build_case(2, p=3), build_case(3), build_case(5),
                 build_case(9, variant="b")):
        assert q0_reduction_check(case).status == "pass"


def _one_more_root(real):
    # 1/7 is no root of any catalog B: each root is x/k - y d/(2k) with k <= 4
    return lambda case: [*real(case), F(1, 7)]


def _held(real):
    """real, a check, made to pass as if its relation held: its report has
    status pass and residual 0."""
    return lambda *args: replace(real(*args), status="pass", residual="0")


def _feasibility_flipped(real):
    # feasible is strict_feasible or cover_feasible: set one to the opposite
    # and clear the other
    def flipped(case):
        adm = real(case)
        return replace(adm, strict_feasible=not adm.feasible, cover_feasible=False)
    return flipped


# check entry -> the one program function mutated to drive it to fail; a
# negative control fails when the check it wraps passes
TABLE_MUTATIONS = (
    ("kernel.roots", kernel, "case_b_roots", _one_more_root),
    ("meijer.params", kernel, "btilde_roots", _one_more_root),
    ("kernel.q0reduction", kernel, "case_b_poly", lambda real: lambda case: real(case).scale(2)),
    ("bernstein.roots", bernstein, "case_b_roots", _one_more_root),
    ("sl2.pm.forced", sl2, "pm_identity_check", _held),
    ("fock.comm.forced", fock, "commutator_check", _held),
    ("sl2.lemma35.2-2.unequal-b", sl2, "lemma35_check", _held),
    ("sl2.eta0", sl2, "solve_eta0", _feasibility_flipped),
)


@pytest.mark.parametrize("entry,module,name,mutation",
                         [pytest.param(*row, id=row[0]) for row in TABLE_MUTATIONS])
def test_table_checks_fail_with_a_named_residual(entry, module, name, mutation, monkeypatch):
    # one program function mutated; every report of the check must fail, not
    # raise, and say what broke (the registry is read before the mutation)
    entries = [e for e in checks.registry() if e.name == entry]
    monkeypatch.setattr(module, name, mutation(getattr(module, name)))
    reports = [r for e in entries for r in checks.run_entry(e, {})]
    assert reports and {r.status for r in reports} == {"fail"}
    assert all(r.residual != "0" for r in reports)


def test_meijer_eval_against_mpmath():
    import mpmath as mp

    # case (5) q=0 reduced parameters: repeated betas (1,1,1), alpha 0
    ev = MeijerEvaluator(MellinSymbol((1, 1, 1), (0,)), precision=12)
    for u in (0.05, 0.8, 3.0, 15.0):
        ref = float(mp.meijerg([[], [0]], [[1, 1, 1], []], u))
        assert abs(ev.eval(u) - ref) <= 1e-12 * max(1.0, abs(ref))
    # case (1) q=0: non-integer parameters
    ev = MeijerEvaluator(CASE1_Q0, precision=12)
    for u in (0.01, 0.5, 2.0):
        ref = float(mp.meijerg([[], [-0.75]], [[-0.5, -0.25, 0.0], []], u))
        assert abs(ev.eval(u) - ref) <= 1e-10 * max(1.0, abs(ref))


@pytest.mark.parametrize("case, q, precision", [
    (build_case(1), (0,), 12),
    (build_case(5), (0, 0, 0, 0), 12),
    (build_case(1), (4,), 12),  # shares its table with q = 0
    (build_case(1), (0,), 13),  # odd precision: another step h and truncation T
])
def test_meijer_eval_within_noise_estimate(case, q, precision):
    # across [e^-26, 1e3], residue series below e^-12, contour sums above and
    # the asymptotic series from the switch on, G must sit within its own
    # roundoff model against a dps-30 reference
    import mpmath as mp

    ev = MeijerEvaluator(meijer_params(case, q).symbol, precision=precision)
    a_mp = [mp.mpf(x.numerator) / x.denominator for x in ev.symbol.a]
    b_mp = [mp.mpf(x.numerator) / x.denominator for x in ev.symbol.b]
    lo, hi = -26.0, math.log(1e3)
    us = [math.exp(lo + (hi - lo) * i / 24) for i in range(25)]
    grid = ev.eval_grid(us)[0]  # the same 25 u in one array call
    with mp.workdps(30):
        for u, g in zip(us, grid):
            ref = float(mp.meijerg([[], a_mp], [b_mp, []], u))
            assert abs(ev.eval(u) - ref) <= 2 * floor(ev, u), u
            assert abs(g - ref) <= 2 * floor(ev, u), u


def test_eval_grid_matches_eval_across_the_contour_switch():
    # more u than one chunk, on both sides of the switch from the residue
    # series to the contour at e^-12 and of the switch from the contour to
    # the asymptotic series
    import focklab.kernel as kernel

    ev = MeijerEvaluator(CASE1_Q0, precision=12)
    us = [math.exp(-26.0 + 33.0 * i / 1199) for i in range(1200)]
    assert len(us) > 2 * kernel.EVAL_CHUNK
    assert kernel.LOG_U_BUDGET == 12 and 0 < ev.switch < kernel.LOG_U_BUDGET
    regions = {(math.log(u) >= -kernel.LOG_U_BUDGET) + (math.log(u) >= ev.switch) for u in us}
    assert regions == {0, 1, 2}
    grid = ev.eval_grid(us)[0]
    assert grid.shape == (len(us),)
    for u, g in zip(us, grid):
        assert abs(g - ev.eval(u)) <= floor(ev, u), u
    with pytest.raises(ValueError):
        ev.eval_grid([1.0, 0.0])


def test_contour_blocks_sum_as_the_direct_phase_sum():
    # node k = a size + b at blocks[b, a]; past the last node only zeros
    import numpy as np

    from focklab.kernel import _contour_sum

    ev = MeijerEvaluator(CASE1_Q0, precision=12)
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
    (build_case(10, variant="d"), (0, 8)),  # |G| within its floor below u ~ 0.012
])
def test_sign_scan_brackets_same_from_grid_and_scalar(case, q):
    vals, brackets = sign_scan(case, q, grid=2000)
    ev = MeijerEvaluator(meijer_params(case, q).symbol, precision=12)
    # the samples that have a sign, from scalar calls: |G| above its floor
    signed = [(u, ev.eval(u)) for u, _ in vals]
    signed = [(u, g) for u, g in signed if abs(g) > floor(ev, u)]
    assert brackets
    assert brackets == [(u0, u1) for (u0, g0), (u1, g1) in zip(signed, signed[1:])
                        if (g0 > 0) != (g1 > 0)]


@pytest.mark.parametrize("grid", [1, 0, -5])
def test_sign_scan_needs_two_points(grid):
    with pytest.raises(ValueError, match="at least 2"):
        sign_scan(build_case(1), (0,), grid=grid)


def test_shifted_parameters_share_one_table():
    # u^sigma G(u; a, b) = G(u; a + sigma, b + sigma): a common shift of every
    # parameter reuses the contour table, and only the contour abscissa moves
    import mpmath as mp

    from focklab.kernel import _contour_table

    _contour_table.cache_clear()
    kernel._residues.cache_clear()
    e0 = MeijerEvaluator(CASE1_Q0, precision=12)
    e1 = MeijerEvaluator(MellinSymbol((F(1), F(3, 4), F(1, 2)), (F(1, 4),)), precision=12)
    assert _contour_table.cache_info().misses == 1
    lo, hi = -26.0, math.log(1e3)
    for i in range(25):
        u = math.exp(lo + (hi - lo) * i / 24)
        assert e1.eval(u) == pytest.approx(u * e0.eval(u), rel=1e-13, abs=0.0), u
        assert floor(e1, u) == pytest.approx(u * floor(e0, u), rel=1e-13, abs=0.0), u
    # below e^-12 both read one residue series, shifted back by their own min b
    assert kernel._residues.cache_info().misses == 1
    # the same b with another a is not a shift: a new table
    MeijerEvaluator(MellinSymbol((F(0), F(-1, 4), F(-1, 2)), (F(-1, 4),)), precision=12)
    assert _contour_table.cache_info().misses == 2
    # nor is the same a with another b, and its values are its own
    e2 = MeijerEvaluator(MellinSymbol((F(0), F(-1, 2), F(-1, 2)), (F(-3, 4),)), precision=12)
    assert _contour_table.cache_info().misses == 3
    for u in (0.01, 0.5, 2.0):
        ref = float(mp.meijerg([[], [-0.75]], [[0.0, -0.5, -0.5], []], u))
        assert abs(e2.eval(u) - ref) <= 2 * floor(e2, u), u
    # another precision sizes another step h and truncation T
    MeijerEvaluator(CASE1_Q0, precision=13)
    assert _contour_table.cache_info().misses == 4


def test_meijer_eval_far_below_the_log_u_budget():
    # case (1) q=0 has simple poles only: far below the contour's range its
    # residue series gives G within its own roundoff floor of dps-30 mpmath
    import mpmath as mp

    ev = MeijerEvaluator(CASE1_Q0, precision=12)
    us = (1e-14, 1e-20, 1e-100)
    with mp.workdps(30):
        for u, g in zip(us, ev.eval_grid(us)[0]):
            ref = float(mp.meijerg([[], [-0.75]], [[0.0, -0.25, -0.5], []], u))
            assert g == ev.eval(u)
            assert abs(g - ref) <= floor(ev, u) <= 1e-14 * abs(ref), u


# reduced (b, a) of sets whose b_j lie an integer apart, which merges poles:
# cases 5 (a triple pole against one zero), 9a, 10d with q = (0, 8) (no pole
# above s = -13), 2 with p = 2 and q = 0, and 4 with q = (1, 0, 0)
LOG_TERM_SETS = (
    ((1, 1, 1), (0,)),
    ((4, F(7, 2), 3), (F(3, 2),)),
    ((17, 13, 9), (8,)),
    ((F(1, 2), 0, 0), (F(-1, 2),)),
    ((1, 1, F(1, 2)), (0,)),
)


def _log_term_series_within_noise(b, a):
    """eval and eval_grid against dps-30 mpmath at 1e-14, 1e-20 and, where
    mpmath converges (not for case 10d), 1e-100, each within its floor."""
    import mpmath as mp

    ev = MeijerEvaluator(MellinSymbol(b, a), precision=12)
    us = (1e-14, 1e-20) if b == (17, 13, 9) else (1e-14, 1e-20, 1e-100)
    b_mp = [mp.mpf(F(x).numerator) / F(x).denominator for x in b]
    a_mp = [mp.mpf(F(x).numerator) / F(x).denominator for x in a]
    with mp.workdps(30):
        for u, g in zip(us, ev.eval_grid(us)[0]):
            ref = float(mp.meijerg([[], a_mp], [b_mp, []], u))
            assert g == ev.eval(u)
            assert abs(g - ref) <= floor(ev, u) <= 1e-14 * abs(ref), (b, u)


@pytest.mark.parametrize("b, a", LOG_TERM_SETS, ids=["5", "9a", "10d", "2p2", "4"])
def test_meijer_eval_log_term_series_against_mpmath(b, a):
    # the one residue series carries the log u powers of merged poles
    _log_term_series_within_noise(b, a)


def test_log_term_series_fails_without_its_log_powers(monkeypatch):
    # negative control: keep only each pole's log^0 coefficient
    import focklab.kernel as kernel

    real = kernel._residues.__wrapped__

    def no_logs(symbol, precision):
        c, log_w, poles = real(symbol, precision)
        return c, log_w, tuple((e, coeffs[:1]) for e, coeffs in poles)

    # cases 4 and 10d keep simple poles: a zero of 1/Gamma(a + s) meets each
    # merged pair (case 4: F = s Gamma(1 + s) Gamma(1/2 + s))
    orders = [{len(coeffs) for _, coeffs in real(MellinSymbol(b, a), 12)[2]}
              for b, a in LOG_TERM_SETS]
    assert orders == [{2}, {1, 2}, {1}, {2}, {1}]
    monkeypatch.setattr(kernel, "_residues", no_logs)
    for (b, a), order in zip(LOG_TERM_SETS, orders):
        if max(order) > 1:
            with pytest.raises(AssertionError):
                _log_term_series_within_noise(b, a)


@pytest.mark.parametrize("case, q, us", [
    (build_case(1), (0,), (math.exp(8), math.exp(10), 1e5)),
    (build_case(5), (0, 0, 0, 0), (math.exp(8), math.exp(10))),
    (build_case(10, variant="d"), (1, 9), (math.exp(8), math.exp(10))),
], ids=["1", "5", "10d"])
def test_meijer_eval_far_above_the_log_u_budget(case, q, us):
    # far out, where the contour's aliasing is not bounded, the asymptotic
    # series gives G within its own floor of dps-30 mpmath (which raises at
    # 1e5 unless it may raise its working precision)
    import mpmath as mp

    ev = MeijerEvaluator(meijer_params(case, q).symbol, precision=12)
    b_mp = [mp.mpf(x.numerator) / x.denominator for x in ev.symbol.b]
    a_mp = [mp.mpf(x.numerator) / x.denominator for x in ev.symbol.a]
    assert all(math.log(u) > ev.switch for u in us)
    with mp.workdps(30):
        for u, g in zip(us, ev.eval_grid(us)[0]):
            ref = float(mp.meijerg([[], a_mp], [b_mp, []], u, maxprec=20000))
            assert g == ev.eval(u)
            assert abs(g - ref) <= floor(ev, u) <= 1e-11 * abs(ref), u


def test_eval_and_eval_grid_raise_alike_where_u_power_overflows():
    # case (1)'s parameters shifted by -60: u^(-60.5) in the residue series
    # overflows at 1e-200, and every entry point raises alike
    ev = MeijerEvaluator(CASE1_Q0.shifted(-60), precision=12)
    assert math.isfinite(ev.eval(1.0))
    for call in (ev.eval, lambda u: ev.eval_grid([1.0, u])):
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
        symbol = meijer_params(case, q).symbol
        key = (symbol.shifted(-min(symbol.b)), F(5, 4), precision)
        (ct,) = MeijerEvaluator(symbol, precision=precision).contours
        tables[key] = _contour_table(*key)
        assert tables[key]["blocks"] is ct["blocks"]  # the evaluator's own table
    return tables


def test_float_gamma_ratio_within_its_bound_and_mpmath_prefix_exact():
    # every node of every table the checks reach: the float F lies within
    # eps_k of mpmath, the weights before k0 are exactly the mpmath ones, and
    # the float tail's error bound stays under a tenth of the roundoff unit
    import numpy as np

    from focklab.kernel import TAIL_SHARE

    tables = _tables_of_the_checks()
    assert len(tables) == 4  # 3 parameter shapes at precision 12, 1 at 13
    for (rel, offset, precision), ct in tables.items():
        nodes = ct["nodes"]
        f_float, eps = rel.line(offset, nodes)
        f_mp = np.array(rel.line_mp(offset, nodes, precision))
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
            MeijerEvaluator(CASE1_Q0, precision=12)
    finally:
        kernel._contour_table.cache_clear()


def test_meijer_moments_closed_form_values():
    # spec-derived values: moment 0 = Gamma(2)^3/Gamma(1) = 1, moment 2 = 108
    ev = MeijerEvaluator(MellinSymbol((1, 1, 1), (0,)), precision=12)
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
    real = MellinSymbol.at
    for off in (1e-9, 1e-12):
        monkeypatch.setattr(MellinSymbol, "at",
                            lambda self, s, p, off=off: real(self, s, p) * (1 + off))
        moments = [c for c in moment_check(build_case(5), (0, 0, 0, 0), m_max=2)
                   if c.id.startswith("meijer.moment.")]
        assert len(moments) == 3 and all(c.status == "fail" for c in moments), off


def test_ca_moment_identity_fails_with_eta0_off(monkeypatch):
    # eta0 + 1/1000 moves c_ratio and the right-hand side but not a_ratio:
    # the formal (c a)_m identity must fail
    import dataclasses

    import focklab.kernel as kernel

    real = kernel.spectral_params

    def eta0_off(case, q):
        sp = real(case, q)
        return dataclasses.replace(sp, eta0=sp.eta0 + F(1, 1000))

    monkeypatch.setattr(kernel, "spectral_params", eta0_off)
    for case, q in ((build_case(1), (0,)), (build_case(5), (0, 0, 0, 0))):
        rep = next(moment_check(case, q))
        assert rep.id.startswith("meijer.camoment.") and rep.status == "fail", rep
        assert rep.residual != "0"


def test_sign_scan_case1():
    rep = sign_scan_report(build_case(1), (0,))
    assert rep.status == "pass"
    vals, brackets = sign_scan(build_case(1), (0,))
    assert brackets and brackets[0][0] < 0.02 < brackets[0][1] * 10


def test_sign_scan_counts_no_roundoff_sign_changes():
    # for u below about 0.012, case 10d's G is smaller than its roundoff floor
    # (|G| ~ 1e-33 near u = 1e-3), so the float signs there flip without a root
    case = build_case(10, variant="d")
    vals, brackets = sign_scan(case, (0, 8))
    assert len(brackets) == 1 and brackets[0][0] < 42 < brackets[0][1], brackets
    rep = sign_scan_report(case, (0, 8))
    assert rep.status == "pass" and rep.residual == "1 sign changes"


@pytest.mark.parametrize("symbol", [CASE1_Q0, MellinSymbol((1, 1, F(1, 2)), (0,))],
                         ids=["1", "4"])
def test_symbol_sign_matches_mpmath_gamma_products(symbol):
    # every s = k/8 in (-6, 3) off the poles, zeros of 1/Gamma(a + s) included
    import mpmath as mp

    checked = 0
    for k in range(-47, 24):
        s = F(k, 8)
        if any((x + s).denominator == 1 and x + s <= 0 for x in symbol.b):
            with pytest.raises(ValueError, match="pole"):
                symbol.sign(s)
            continue
        f = mp.fprod([mp.gamma(mp.mpf((x + s).numerator) / (x + s).denominator)
                      for x in symbol.b]
                     + [mp.rgamma(mp.mpf((x + s).numerator) / (x + s).denominator)
                        for x in symbol.a])
        assert symbol.sign(s) == mp.sign(f), s
        checked += 1
    assert checked > 50


def test_sign_change_on_every_feasible_pair():
    # s- and s+ inside the strip Re s > -min b, with exact signs that mpmath
    # Gamma values confirm
    from focklab.checks import feasible_pairs

    for case, q in feasible_pairs():
        symbol = meijer_params(case, q).symbol
        s_minus, s_plus = symbol.sign_change()
        assert -min(symbol.b) < s_minus < s_plus, (case.label, q)
        assert symbol.sign(s_minus) == -1 and symbol.sign(s_plus) == 1
        assert symbol.at(s_minus, 12) < 0 < symbol.at(s_plus, 12), (case.label, q)
    assert CASE1_Q0.sign_change() == (F(5, 8), F(7, 4))
    assert meijer_params(build_case(10, variant="d"), (0, 8)).symbol.sign_change() == (
        F(-17, 2), F(-7))


def test_weight_sign_fails_without_its_certificate(monkeypatch):
    # negative control: a raised to min b cancels a Gamma, leaving the
    # positive G^{2,0}_{0,2}; no certificate exists and weight.sign.1.0 fails
    import focklab.kernel as kernel
    from focklab import checks

    assert MellinSymbol(CASE1_Q0.b, (min(CASE1_Q0.b),)).sign_change() is None
    entry = next(e for e in checks.select(("meijer",)) if e.name == "weight.sign")
    assert [(r.id, r.status) for r in checks.run_entry(entry, {})] == [
        ("weight.sign.1.0", "pass")]
    real = kernel.meijer_params

    def a_at_min_b(case, q):
        params = real(case, q)
        return kernel.MeijerParams((min(params.symbol.b), params.alpha[1]), params.beta)

    monkeypatch.setattr(kernel, "meijer_params", a_at_min_b)
    [rep] = checks.run_entry(entry, {})
    assert rep.status == "fail" and "no exact sign change" in rep.details, rep
    # the float bracket alone does not pass it either
    monkeypatch.setattr(kernel, "meijer_params", real)
    monkeypatch.setattr(MellinSymbol, "sign_change", lambda self: None)
    [rep] = checks.run_entry(entry, {})
    assert rep.status == "fail" and rep.residual == "1 sign changes", rep


def test_moment_below_one_corroborates_the_certificate():
    # int G(u) u^(s-1) du at s- = 5/8 is F(5/8) < 0, negative beyond its bound
    ev = MeijerEvaluator(CASE1_Q0, precision=12)
    mu, err = ev.moment(-3 / 8)
    assert mu == pytest.approx(-2.938859516, abs=1e-9)
    assert abs(mu - CASE1_Q0.at(F(5, 8), 12)) <= err < 2.0e-10
    assert mu + err < 0


def test_small_u_power_law_case1():
    # near u -> 0 the residue at beta = -1/2 dominates: |G| ~ u^{-1/2}
    ev = MeijerEvaluator(meijer_params(build_case(1), (0,)).symbol, precision=12)
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

    real = kernel.c_sequence

    def c_1_off(case, q, m_max):
        ks = real(case, q, m_max)
        ks.coeffs[1] *= 1 + F(1, 10**8)
        return ks

    monkeypatch.setattr(kernel, "c_sequence", c_1_off)
    rep = bergman_norm_case1(0, [(1, {0: 1.0})])
    assert rep.status == "fail" and float(rep.residual) > 1e-9, rep.details


@pytest.mark.parametrize("precision", [12, 13])
def test_moments_and_bergman_hold_their_error_bounds(precision):
    # every meijer.moment and bergman.case1 check, at either precision: it
    # passes, its moments sit within their bound, and the bound within 1e-10
    from focklab.checks import BERGMAN_PHIS, MOMENT_MATRIX
    from focklab.kernel import meijer_evaluator

    for case, q in MOMENT_MATRIX:
        reports = [c for c in moment_check(case, q, m_max=5, precision=precision)
                   if c.id.startswith("meijer.moment.")]
        assert len(reports) == 6 and all(c.status == "pass" for c in reports), case.label
        ev = meijer_evaluator(case, q, precision)
        for m in range(6):
            mu, err_bound = ev.moment(m)
            closed = ev.symbol.at(m + 1, precision)
            assert abs(mu - closed) <= err_bound <= 1e-10 * abs(mu), (case.label, q, m)
    for phi in BERGMAN_PHIS:
        rep = bergman_norm_case1(0, phi, precision=precision)
        assert rep.status == "pass", rep.details
        assert _detail(rep, "err_bound") <= 1e-10 * _detail(rep, "graded"), rep.details


def test_moments_hold_on_every_feasible_pair():
    # log-term sets included: case 2 with p = 2, q = 0 and case 3 with
    # q = (0, 0) once missed 1e-10 by the unsummed tail below e^-26, at log-u
    # step 1/4 the aliasing made 9c (q = 1) and 10d miss it at m = 7, 8, and
    # with the grid ending at e^8, its bounded upper tail from m = 10 on; the
    # one line that bounds the nodes above e^12 leaves that tail negligible
    from focklab.checks import feasible_pairs

    pairs = feasible_pairs()
    assert len(pairs) == 36
    for case, q in pairs:
        reports = [c for c in moment_check(case, q, m_max=12)
                   if c.id.startswith("meijer.moment.")]
        assert len(reports) == 13, (case.label, q)
        ev = kernel.meijer_evaluator(case, q)
        for m, c in enumerate(reports):
            assert c.status == "pass", (c.id, c.residual, c.details)
            err_bound = _detail(c, "err_bound")
            assert err_bound <= 1e-10 * abs(_detail(c, "trapezoid")), c.id
            assert ev._upper_tail(m) <= 1e-30 * err_bound, c.id


def test_upper_tail_line_right_of_every_pole():
    ev = kernel.meijer_evaluator(build_case(1), (F(0),))
    assert 0 < ev._upper_tail(0) < 1e-100
    with pytest.raises(ValueError, match="moment -70: a pole"):
        ev._upper_tail(-70)


def test_moments_fail_with_an_asymptotic_coefficient_off(monkeypatch):
    # negative control: M_1 off by a relative 1e-9 moves G from the switch on,
    # which every moment pair of the checks must show
    import focklab.kernel as kernel
    from focklab.checks import MOMENT_MATRIX

    real = kernel._asymptotic

    def m1_off(rel):
        lam, coeffs = real(rel)
        coeffs = coeffs.copy()
        coeffs[1] *= 1 + 1e-9
        return lam, coeffs

    monkeypatch.setattr(kernel, "_asymptotic", m1_off)
    kernel._evaluator_cached.cache_clear()
    try:
        failed = {r.id: r for case, q in MOMENT_MATRIX for r in moment_check(case, q)
                  if r.status == "fail"}
    finally:
        kernel._evaluator_cached.cache_clear()
    assert "meijer.moment.9a.0.5" in failed
    assert float(failed["meijer.moment.9a.0.5"].residual) > kernel.REL_TOL
    for case, q in MOMENT_MATRIX:
        pair = f"meijer.moment.{case.label}.{'_'.join(str(x) for x in q)}."
        assert any(cid.startswith(pair) for cid in failed), pair


def test_node_sums_match_the_direct_sums():
    # h sum_{k >= 1} e^{alpha x_k} x_k^d, x_k = -12 - k/4, summed term by term
    from focklab.kernel import _node_sum

    xs = [-12.0 - k / 4 for k in range(1, 4000)]
    for alpha in (0.25, 1.0, 7.5):
        for d in range(4):
            direct = math.fsum(0.25 * math.exp(alpha * x) * x ** d for x in xs)
            assert _node_sum(alpha, d, -12.0, 0.25) == pytest.approx(direct, rel=1e-14)


def test_bergman_norm_q4():
    # the q-shifted profile keeps the cross-check exact for q = 4 as well
    rep = bergman_norm_case1(4, [(0, {0: 1.0}), (1, {2: 1.0})])
    assert rep.status == "pass", rep.details


def _plain_line(symbol, c, ts):
    """F(c + i t) as the plain product of every Gamma, at the working precision."""
    import mpmath as mp

    def arg(x, t):
        return mp.mpc(mp.mpf((x + c).numerator) / (x + c).denominator, t)

    return [mp.fprod([mp.gamma(arg(x, t)) for x in symbol.b]
                     + [mp.rgamma(arg(x, t)) for x in symbol.a]) for t in ts]


small_rationals = st.builds(F, st.integers(-12, 12), st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(st.lists(small_rationals, min_size=3, max_size=3), small_rationals,
       st.integers(1, 12), st.lists(st.floats(0.01, 40.0), min_size=1, max_size=4))
def test_reduced_symbol_matches_the_plain_gamma_product(b, a, offset, ts):
    # one Gamma per residue class mod 1, R's linear factors for the rest
    import mpmath as mp
    import numpy as np

    symbol = MellinSymbol(tuple(b), (a,))
    c = -min(symbol.b) + F(offset, 4)
    with mp.workdps(30):
        plain = _plain_line(symbol, c, ts)
        reduced = symbol._mp_values(c, [mp.mpc(0, t) for t in ts])
        for p, r in zip(plain, reduced):
            assert abs(r - p) <= mp.mpf(10) ** -18 * abs(p), (symbol, c)
        rounded = symbol.line_mp(c, ts, 22)  # 30 digits, then rounded
        f_float, eps = symbol.line(c, np.array(ts))
        for p, f_mp, f, e in zip(plain, rounded, f_float, eps):
            assert abs(f_mp - complex(p)) <= 2.0 ** -52 * abs(complex(p))
            assert abs(mp.mpc(f) - p) <= e * abs(p), (symbol, c)


def test_moment_evaluators_take_one_gamma_per_class_and_series_per_shift(monkeypatch):
    # from cold caches: the three contour tables of the six MOMENT_MATRIX
    # evaluators (cases 1, 5 and 9a) take at most 214 complex mpmath Gammas,
    # where the plain product took 448, and the six read 3 residue series
    import mpmath

    from focklab.checks import MOMENT_MATRIX, feasible_pairs

    assert sum(len(meijer_params(case, q).symbol._reduced[0])
               for case, q in feasible_pairs()) == 52  # Gammas per point, 144 plain
    complex_calls = []

    def counted(real):
        def gamma(x):
            complex_calls.append(isinstance(x, mpmath.mpc))
            return real(x)
        return gamma

    for name in ("gamma", "rgamma"):
        monkeypatch.setattr(mpmath, name, counted(getattr(mpmath, name)))
    for cache in (kernel._contour_table, kernel._residues, kernel._log_line_l1):
        cache.cache_clear()
    for case, q in MOMENT_MATRIX:
        MeijerEvaluator(meijer_params(case, q).symbol, precision=12).moment(0)
    assert 0 < sum(complex_calls) <= 214
    assert kernel._residues.cache_info().misses == 3


def _asymptotic_oracle(rel):
    """_asymptotic's recurrence in Fractions: n r_n = -(r_{n-1} e1 + r_{n-2} e0)."""
    (a,) = rel.a
    lam = sum(rel.b) - a - F(1, 2)
    ratios = [F(0), F(1)]
    for n in range(1, kernel.ASYMPTOTIC_TERMS + 1):
        y1, y2, y3 = ((lam - n + 1) / 2 - b for b in rel.b)
        e1 = y1 * y2 + y1 * y3 + y2 * y3 + (y1 + y2 + y3) / 2 + F(1, 4)
        e0 = -(y1 + F(1, 2)) * (y2 + F(1, 2)) * (y3 + F(1, 2))
        ratios.append(-(ratios[-1] * e1 + ratios[-2] * e0) / n)
    return lam, [math.sqrt(math.pi) * float(r) for r in ratios[1:]]


def test_integer_recurrences_match_their_fraction_oracles():
    # bit for bit: M_n of the asymptotic series, and pochhammer_ratio on the
    # c step and on the moments' step against the quotient of the exact values
    # of their pochhammer_step polynomials, at integer and rational m
    from focklab.checks import feasible_pairs

    for case, q in feasible_pairs():
        symbol = meijer_params(case, q).symbol
        rel = symbol.shifted(-min(symbol.b))
        lam, coeffs = kernel._asymptotic(rel)
        assert (lam, coeffs.tolist()) == _asymptotic_oracle(rel), (case.label, q)
        step = symbol.shifted(1)
        for upper, lower in (spectral_params(case, q).c_step, (step.a, step.b)):
            num, den = kernel.pochhammer_step(*upper), kernel.pochhammer_step(*lower)
            for m in [*range(61), F(1, 3), F(-7, 2)]:
                d = den.eval((m,))
                if d == 0:
                    with pytest.raises(ZeroDivisionError):
                        kernel.pochhammer_ratio(upper, lower, m)
                else:
                    assert kernel.pochhammer_ratio(upper, lower, m) == F(num.eval((m,))) / d, (
                        case.label, q, m)


def test_an_infinite_moment_bound_fails_every_reader(monkeypatch, capsys):
    # _aliasing returns inf when its geometric ratio is >= 1; a bound of inf
    # accepts any error, so every moment report it enters must fail (not
    # error), and export moments must exit 1
    from focklab import cli

    monkeypatch.setattr(MeijerEvaluator, "_aliasing", lambda self, m: math.inf)
    reports = [r for e in checks.select(("meijer", "bergman"))
               if e.name in ("meijer.moments", "bergman.case1") for r in checks.run_entry(e, {})]
    bounded = [r for r in reports if r.id.startswith(("meijer.moment.", "bergman."))]
    assert len(bounded) == 6 * 6 + 3
    for r in bounded:
        assert r.status == "fail" and "not finite" in r.residual, (r.id, r.residual)
    assert cli.main(["export", "moments", "--case", "5", "--q", "0,0,0,0", "-m", "2"]) == 1
    assert "miss their error bounds" in capsys.readouterr().err
