"""Bernstein polynomials, identity verification, gamma ratios, a_m ratios."""

from fractions import Fraction as F

import pytest

from focklab import bernstein, checks
from focklab.bernstein import (
    A_RING,
    M_RING,
    a_ratio_gindikin_polys,
    a_ratio_polys,
    a_ratio_report,
    b_poly,
    big_b_poly,
    case_b_poly,
    case_b_roots,
    factor_b_roots,
    gindikin_ratio_poly,
    roots_factorization_ok,
    verify_bernstein_identity,
)
from focklab.jordan import (
    SimpleFactorDescriptor,
    build_case,
    default_catalog,
    full_mat,
    rank1,
    skew_mat,
    spin,
    sym_mat,
)
from focklab.polyalg import MultiPoly, rising

A = MultiPoly.variable(A_RING, 0)
M = MultiPoly.variable(M_RING, 0)


def poly(coeffs, ring=A_RING) -> MultiPoly:
    """c_0 + c_1 v + c_2 v^2 + ... in the one variable of ring."""
    return MultiPoly(ring, {(i,): c for i, c in enumerate(coeffs)})


def from_roots(roots, lead=1) -> MultiPoly:
    out = poly([lead])
    for r in roots:
        out = out * poly([-F(r), 1])
    return out


def test_unipoly_basics():
    # polynomials in the one variable a are MultiPolys over A_RING
    p = from_roots([0, F(1, 2)], lead=2)  # 2a(a - 1/2)
    assert p == poly([0, -1, 2]) and p.total_degree() == 2
    assert p.eval((1,)) == 1
    assert p == A * poly([-1, 2])
    q = p.shift((-1,))  # p(a - 1)
    assert q.eval((1,)) == p.eval((0,)) and q.eval((0,)) == p.eval((-1,))


def test_b_poly_examples():
    assert b_poly(rank1()) == A
    full4 = b_poly(full_mat(4))  # a(a+1)(a+2)(a+3)
    assert full4 == from_roots([0, -1, -2, -3])
    spin4 = b_poly(spin(4))  # d = 2: a(a+1)
    assert spin4 == from_roots([0, -1])
    sym3 = b_poly(sym_mat(3))  # d = 1: a(a+1/2)(a+1)
    assert sym3 == from_roots([0, F(-1, 2), -1])


def test_big_b_case1():
    B = case_b_poly(build_case(1))
    # 4a(4a-1)(4a-2)(4a-3)
    for a in (1, 2, 3, F(1, 2)):
        assert B.eval((a,)) == 4 * a * (4 * a - 1) * (4 * a - 2) * (4 * a - 3)
    assert B.eval((2,)) == 1680
    assert sorted(case_b_roots(build_case(1))) == [0, F(1, 4), F(1, 2), F(3, 4)]


def test_big_b_case5_is_alpha_fourth():
    B = case_b_poly(build_case(5))
    assert B == poly([0, 0, 0, 0, 1])


def test_case_b_structure_all_cases():
    for case in default_catalog():
        B = case_b_poly(case)
        assert B.total_degree() == 4
        assert B.eval((0,)) == 0
        assert B.terms[(4,)] == case.bernstein_lead
        assert B == from_roots(case_b_roots(case), lead=case.bernstein_lead)
        assert roots_factorization_ok(case)


def test_factor_roots_formula():
    # Spin(p) with k=2 (case 2 shape): roots {0, 1/2-p/4, 1/2, 1-p/4}
    p = 4
    roots = sorted(factor_b_roots(spin(p, 2)))
    assert roots == sorted([F(0), F(1, 2) - F(p, 4), F(1, 2), 1 - F(p, 4)])


def identity_constant(factor, alphas=(1, 2, 3)) -> F:
    """C of a family whose identity holds at every alpha, read off the reports."""
    reports = list(verify_bernstein_identity(factor, alphas=alphas))
    assert [r.status for r in reports] == ["pass"] * len(alphas), reports
    assert [r.id.rsplit(".", 1)[1] for r in reports] == [str(a) for a in alphas]
    (details,) = {r.details for r in reports}  # one C for every alpha
    return F(details.removeprefix("C="))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_bernstein_identity_rank1(k):
    assert identity_constant(rank1(k)) == 1


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_bernstein_identity_spin(p):
    assert identity_constant(spin(p, 1)) == 4  # coordinate slack 4^k, alpha-independent


def test_bernstein_identity_spin_k2():
    assert identity_constant(spin(3, 2)) == 16


def test_bernstein_constant_drift_fails_that_alpha(monkeypatch):
    # B off by the factor (a + 1): C read at alpha = 1 is 1/2, then 1/3, 1/4
    real = bernstein.big_b_poly
    monkeypatch.setattr(bernstein, "big_b_poly",
                        lambda f: real(f) * (A + MultiPoly.constant(A_RING, 1)))
    reports = list(verify_bernstein_identity(rank1(1), alphas=(1, 2, 3)))
    assert [r.status for r in reports] == ["pass", "fail", "fail"]
    assert reports[1].residual == "constant drift 1/3 != 1/2"
    assert {r.details for r in reports} == {"C=1/2"}


@pytest.mark.parametrize(
    "factor, alphas",
    [(sym_mat(2), (1, 2, 3)), (sym_mat(3), (1, 2, 3)), (full_mat(2), (1, 2, 3)),
     (full_mat(3), (1, 2, 3)), (skew_mat(4), (1, 2, 3)),
     (sym_mat(4), (1, 2)), (full_mat(4), (1, 2)), (skew_mat(8), (1, 2))],
    ids=["sym2", "sym3", "full2", "full3", "skew4", "sym4", "full4", "skew8"],
)
def test_bernstein_identity_matrix_symbolic(factor, alphas):
    assert identity_constant(factor, alphas) == 1


def test_an_identity_entry_that_raises_is_named_like_its_reports(monkeypatch):
    # the error report of an entry carries the stem of the reports it would yield
    def fail(*args):
        raise RuntimeError("apply_diff_op failed")

    monkeypatch.setattr(bernstein, "apply_diff_op", fail)
    entries = [e for e in checks.select(("bernstein",)) if e.name.startswith("bernstein.identity")]
    reports = [r for e in entries for r in checks.run_entry(e)]
    assert len(reports) == len(checks.BERNSTEIN_FAMILIES)
    assert {r.status for r in reports} == {"error"}
    ids = {r.id for r in reports}
    assert {"bernstein.identity.Rank1", "bernstein.identity.Rank1.k4",
            "bernstein.identity.Spin3.k2", "bernstein.identity.SkewMat8"} <= ids, ids


def test_bernstein_identity_full2_value():
    # det(d) det z = 2 = C*b(1) with b(1) = 1*2, so C = 1
    from focklab.jordan import determinant_poly
    from focklab.polyalg import MultiPoly, apply_diff_op

    d = determinant_poly(full_mat(2))
    assert apply_diff_op(d, d) == MultiPoly.constant(d.vars, 2)


def test_gindikin_ratio_examples():
    # Gamma_Omega(lam + k) / Gamma_Omega(lam) = prod_{j<r} (lam - j d/2)_k
    assert gindikin_ratio_poly(rank1(4), poly([1], M_RING)) == poly([24], M_RING)
    assert gindikin_ratio_poly(full_mat(2), poly([2], M_RING)) == poly([2], M_RING)
    assert gindikin_ratio_poly(spin(4, 2), poly([3], M_RING)) == poly([72], M_RING)
    # as a polynomial in lam: full_mat(2), k = 1, r = 2, d = 2 gives lam (lam - 1)
    assert gindikin_ratio_poly(full_mat(2), M) == poly([0, -1, 1], M_RING)


def eval_quotient(polys, m) -> F:
    """num(m) / den(m) for a (num, den) pair of polynomials in m, exactly."""
    num, den = polys
    return F(num.eval((m,))) / den.eval((m,))


def test_a_ratio_case1():
    case = build_case(1)
    ratio = a_ratio_polys(case, (0,))
    # a_m = 1/(4m+1), so a_1/a_0 = 1/5
    assert eval_quotient(ratio, 0) == F(1, 5)
    for m in range(5):
        assert eval_quotient(ratio, m) == F(4 * m + 1, 4 * m + 5)


def test_a_ratio_case5_fourth_power():
    case = build_case(5)
    ratio = a_ratio_polys(case, (0, 0, 0, 0))
    for m in range(6):
        assert eval_quotient(ratio, m) == F(m + 1, m + 2) ** 4


def test_a_ratio_matches_gindikin_everywhere():
    from focklab.sl2 import feasible_q_values

    cases = [build_case(1), build_case(2, p=3), build_case(3), build_case(4),
             build_case(5), build_case(6, p=3), build_case(7, p=2),
             build_case(8, p1=4, p2=2), build_case(9, variant="b"),
             build_case(10, variant="c")]
    for case in cases:
        for q in feasible_q_values(case, 2):
            bern, gind = a_ratio_polys(case, q), a_ratio_gindikin_polys(case, q)
            for m in range(11):
                assert eval_quotient(bern, m) == eval_quotient(gind, m)


def test_a_ratio_report_proves_every_m():
    # the two ratios are compared as polynomials in m, not at sample points
    case = build_case(1)
    rep = a_ratio_report(case, (0,))
    assert rep.status == "pass" and rep.details.startswith("all m:"), rep.details


def test_a_ratio_report_fails_with_one_n_over_r_off_by_one(monkeypatch):
    # n/r of the k = 2 factor of case 4 one too large on the Gindikin side
    # (the Bernstein side reads n/(k r) from the dimension): the identity breaks
    case = build_case(4)
    off = case.factors[0]
    true_nr = SimpleFactorDescriptor.n_over_r
    monkeypatch.setattr(SimpleFactorDescriptor, "n_over_r",
                        property(lambda f: true_nr.fget(f) + (1 if f is off else 0)))
    rep = a_ratio_report(case, (1, 0, 0))
    assert rep.status == "fail" and rep.residual != "0", rep


def test_pochhammer():
    # the rising factorial of polyalg, at a constant and at the formal m
    assert rising(poly([F(1, 2)], M_RING), 3) == poly([F(1, 2) * F(3, 2) * F(5, 2)], M_RING)
    assert rising(poly([3], M_RING), 0) == poly([1], M_RING)
    assert rising(M, 3) == M * (M + poly([1], M_RING)) * (M + poly([2], M_RING))
