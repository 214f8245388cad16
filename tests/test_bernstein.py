"""Bernstein polynomials, identity verification, gamma ratios, a_m ratios."""

from fractions import Fraction as F

import pytest

from focklab import bernstein
from focklab.bernstein import (
    DegenerateParameterError,
    GammaPoleError,
    UniPoly,
    a_ratio,
    a_ratio_gindikin,
    a_ratio_report,
    b_poly,
    big_b_poly,
    case_b_poly,
    case_b_roots,
    factor_b_roots,
    gindikin_ratio,
    pochhammer,
    roots_factorization_ok,
    verify_bernstein_identity,
)
from focklab.jordan import (
    build_case,
    default_catalog,
    full_mat,
    rank1,
    skew_mat,
    spin,
    sym_mat,
)


def test_unipoly_basics():
    p = UniPoly.from_roots([0, F(1, 2)], lead=2)  # 2x(x - 1/2)
    assert p.eval(1) == 1 and p.degree == 2 and p.leading == 2
    assert p == UniPoly.linear(0, 1) * UniPoly.from_roots([F(1, 2)], lead=2)
    q = p.compose_affine(2, -1)  # p(2x - 1)
    assert q.eval(1) == p.eval(1)
    assert q.eval(0) == p.eval(-1)


def test_b_poly_examples():
    assert b_poly(rank1()) == UniPoly([0, 1])
    full4 = b_poly(full_mat(4))  # a(a+1)(a+2)(a+3)
    assert full4 == UniPoly.from_roots([0, -1, -2, -3])
    spin4 = b_poly(spin(4))  # d = 2: a(a+1)
    assert spin4 == UniPoly.from_roots([0, -1])
    sym3 = b_poly(sym_mat(3))  # d = 1: a(a+1/2)(a+1)
    assert sym3 == UniPoly.from_roots([0, F(-1, 2), -1])


def test_big_b_case1():
    B = case_b_poly(build_case(1))
    # 4a(4a-1)(4a-2)(4a-3)
    for a in (1, 2, 3, F(1, 2)):
        assert B.eval(a) == 4 * a * (4 * a - 1) * (4 * a - 2) * (4 * a - 3)
    assert B.eval(2) == 1680
    assert sorted(case_b_roots(build_case(1))) == [0, F(1, 4), F(1, 2), F(3, 4)]


def test_big_b_case5_is_alpha_fourth():
    B = case_b_poly(build_case(5))
    assert B == UniPoly([0, 0, 0, 0, 1])


def test_case_b_structure_all_cases():
    for case in default_catalog():
        B = case_b_poly(case)
        assert B.degree == 4
        assert B.eval(0) == 0
        assert B.leading == case.bernstein_lead
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
                        lambda f: real(f) * UniPoly.linear(1, 1))
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


def test_bernstein_identity_full2_value():
    # det(d) det z = 2 = C*b(1) with b(1) = 1*2, so C = 1
    from focklab.jordan import determinant_poly
    from focklab.polyalg import MultiPoly, apply_diff_op

    d = determinant_poly(full_mat(2))
    assert apply_diff_op(d, d) == MultiPoly.constant(d.vars, 2)


def test_gindikin_ratio_examples():
    assert gindikin_ratio(rank1(), 1, 4) == 24
    assert gindikin_ratio(full_mat(2), 2, 1) == 2
    assert gindikin_ratio(spin(4), 3, 2) == 72
    with pytest.raises(GammaPoleError):
        gindikin_ratio(full_mat(2), 1, 1)  # lam - d/2 = 0 hits a pole


def test_a_ratio_case1():
    case = build_case(1)
    # a_m = 1/(4m+1), so a_1/a_0 = 1/5
    assert a_ratio(case, (0,), 0) == F(1, 5)
    for m in range(5):
        assert a_ratio(case, (0,), m) == F(4 * m + 1, 4 * m + 5)


def test_a_ratio_case5_fourth_power():
    case = build_case(5)
    for m in range(6):
        assert a_ratio(case, (0, 0, 0, 0), m) == F(m + 1, m + 2) ** 4


def test_a_ratio_matches_gindikin_everywhere():
    from focklab.sl2 import feasible_q_values

    cases = [build_case(1), build_case(2, p=3), build_case(3), build_case(4),
             build_case(5), build_case(6, p=3), build_case(7, p=2),
             build_case(8, p1=4, p2=2), build_case(9, variant="b"),
             build_case(10, variant="c")]
    for case in cases:
        for q in feasible_q_values(case, 2):
            for m in range(11):
                assert a_ratio(case, q, m) == a_ratio_gindikin(case, q, m)


def test_a_ratio_report_proves_every_m_from_enough_points():
    # both ratios have degree deg B = 4 in m, so 9 agreeing points prove the
    # identity for every m, and 8 prove nothing
    case = build_case(1)
    assert case_b_poly(case).degree == 4
    rep = a_ratio_report(case, (0,), m_max=8)
    assert rep.status == "pass" and rep.details.startswith("all m off the poles")
    with pytest.raises(ValueError, match="too few points"):
        a_ratio_report(case, (0,), m_max=7)


def test_pochhammer():
    assert pochhammer(F(1, 2), 3) == F(1, 2) * F(3, 2) * F(5, 2)
    assert pochhammer(F(3), 0) == 1
