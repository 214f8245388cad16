"""Catalog data: factors, determinants, Q polynomials."""

import json
from fractions import Fraction as F

import pytest

from focklab.jordan import (
    Family,
    UnsupportedFamilyError,
    build_case,
    default_catalog,
    determinant_poly,
    dual_determinant_symbol,
    exceptional,
    full_mat,
    q_polynomial,
    rank1,
    skew_mat,
    spin,
    sym_mat,
)
from focklab.polyalg import MultiPoly


def test_factor_dimension_identity():
    for case in default_catalog():
        for f in case.factors:
            if f.rank >= 2:
                assert F(f.dim, f.rank) == 1 + F((f.rank - 1) * f.degree, 2)


def test_family_structural_constraints():
    assert rank1(4).rank == 1 and rank1(4).dim == 1
    assert spin(5).rank == 2 and spin(5).degree == 3 and spin(5).dim == 5
    assert sym_mat(4).rank == 4 and sym_mat(4).degree == 1 and sym_mat(4).dim == 10
    assert full_mat(4).degree == 2 and full_mat(4).dim == 16
    assert skew_mat(8).rank == 4 and skew_mat(8).degree == 4 and skew_mat(8).dim == 28
    assert exceptional().rank == 3 and exceptional().degree == 8 and exceptional().dim == 27


def test_degree_of_q_is_four():
    for case in default_catalog():
        assert sum(f.mult * f.rank for f in case.factors) == 4


def test_determinant_examples():
    d = determinant_poly(rank1())
    assert d == MultiPoly.variable(d.vars, 0)
    d = determinant_poly(full_mat(2))
    z = [MultiPoly.variable(d.vars, i) for i in range(4)]
    assert d == z[0] * z[3] - z[1] * z[2]  # z11 z22 - z12 z21
    pf = determinant_poly(skew_mat(4))
    v = {name: MultiPoly.variable(pf.vars, i) for i, name in enumerate(pf.vars.names)}
    expected = v["z12"] * v["z34"] - v["z13"] * v["z24"] + v["z14"] * v["z23"]
    assert pf == expected


def test_determinants_homogeneous_of_degree_rank():
    for f in (rank1(2), spin(4), sym_mat(3), full_mat(3), skew_mat(6)):
        d = determinant_poly(f)
        assert {sum(e) for e in d.terms} == {f.rank}


def test_pfaffian_squared_is_determinant():
    pf = determinant_poly(skew_mat(4))
    vars = pf.vars
    pos = {}
    t = 0
    for i in range(1, 5):
        for j in range(i + 1, 5):
            pos[(i, j)] = t
            t += 1

    def entry(i, j):
        if i == j:
            return MultiPoly.zero(vars)
        sign = 1 if i < j else -1
        return MultiPoly.variable(vars, pos[(min(i, j), max(i, j))]).scale(sign)

    import itertools

    det = MultiPoly.zero(vars)
    for perm in itertools.permutations(range(1, 5)):
        sign = 1
        p = list(perm)
        for a in range(4):
            for b in range(a + 1, 4):
                if p[a] > p[b]:
                    sign = -sign
        term = MultiPoly.constant(vars, sign)
        for i, j in zip(range(1, 5), perm):
            term = term * entry(i, j)
        det = det + term
    assert pf * pf == det


def test_exceptional_unsupported():
    with pytest.raises(UnsupportedFamilyError):
        determinant_poly(exceptional())


def test_q_polynomial_table_rows():
    q1 = q_polynomial(build_case(1))
    z = MultiPoly.variable(q1.vars, 0)
    assert q1 == z**4

    q5 = q_polynomial(build_case(5))
    prod = MultiPoly.constant(q5.vars, 1)
    for i in range(4):
        prod = prod * MultiPoly.variable(q5.vars, i)
    assert q5 == prod

    q3 = q_polynomial(build_case(3))
    z1, z2 = MultiPoly.variable(q3.vars, 0), MultiPoly.variable(q3.vars, 1)
    assert q3 == z1**2 * z2**2


def test_q_polynomial_homogeneous_degree_four():
    for case in default_catalog():
        if any(f.family is Family.EXCEPTIONAL for f in case.factors):
            continue
        assert {sum(e) for e in q_polynomial(case).terms} == {4}


def test_dual_symbol_sym_halves():
    s = dual_determinant_symbol(sym_mat(2))
    v = {n: MultiPoly.variable(s.vars, i) for i, n in enumerate(s.vars.names)}
    assert s == v["z11"] * v["z22"] - (v["z12"] * v["z12"]).scale(F(1, 4))
    # other families: dual symbol is Delta itself
    assert dual_determinant_symbol(skew_mat(4)) == determinant_poly(skew_mat(4))


def test_catalog_names_and_dims():
    case5 = build_case(5)
    assert case5.expected_g_name == "so(8,C)" and case5.expected_g_dim == 28
    assert build_case(1).expected_g_dim == 8
    assert build_case(9, variant="c").expected_g_dim == 248
    assert build_case(10, variant="d").expected_g_dim == 248
    assert build_case(11).expected_g_dim == 14
    cat = default_catalog()
    assert len(cat) == 16  # 11 cases, variants expanded for (9) and (10)
    assert {c.case_id for c in cat} == set(range(1, 12))


def test_catalog_json_serializable():
    payload = [c.to_dict() for c in default_catalog()]
    text = json.dumps(payload, sort_keys=True)
    back = json.loads(text)
    assert back[0]["case_id"] == 1
    assert back[0]["factors"][0]["mult"] == 4


def test_parametrized_instantiation():
    c = build_case(2, p=6)
    assert c.factors[0].dim == 6 and c.expected_g_name == "sl(8,C)"
    c = build_case(8, p1=4, p2=2)
    assert c.expected_g_name == "so(10,C)"
    with pytest.raises(ValueError):
        build_case(8, p1=3, p2=2)  # odd difference
