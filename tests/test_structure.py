"""Structure algebra, translate spans, and table dimension checks."""

from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focklab import structure
from focklab.checks import STRUCTURE_ROWS
from focklab.jordan import build_case, q_polynomial
from focklab.linalg import FractionSpan
from focklab.polyalg import MultiPoly, VarSet
from focklab.structure import (
    character_of,
    check_g_dimension,
    structure_algebra,
    translate_span_dim,
)


def identity_character(case):
    """The character of the identity matrix: DQ[z] = c*Q."""
    ident = {(a, a): F(1) for a in range(case.dim_v)}
    return character_of(q_polynomial(case), ident)


def test_structure_dims_examples():
    assert structure_algebra(build_case(1)).dim == 1
    assert structure_algebra(build_case(5)).dim == 4
    assert structure_algebra(build_case(2, p=3)).dim == 4  # so(3) + scaling


def test_identity_character_is_degree():
    for case in (build_case(1), build_case(3), build_case(9, variant="a")):
        assert identity_character(case) == 4


def test_identity_in_span_with_character_four():
    case = build_case(5)
    sb = structure_algebra(case)
    q = q_polynomial(case)
    ident = {(a, a): F(1) for a in range(4)}
    assert character_of(q, ident) == 4
    # every elementary scaling lies in the computed span (so the identity does)
    span = FractionSpan(sb.basis)
    for a in range(4):
        assert span.contains({(a, a): F(1)})


def test_characters_are_exact():
    case = build_case(2, p=3)
    sb = structure_algebra(case)
    q = q_polynomial(case)
    for x, c in zip(sb.basis, sb.characters):
        assert character_of(q, x) == c


def _directional_poly_reference(q, x):
    # one MultiPoly X_ab z_b dQ/dz_a per entry, added up
    out = MultiPoly.zero(q.vars)
    for (a, b), c in x.items():
        out = out + (MultiPoly.variable(q.vars, b) * q.diff(a)).scale(c)
    return out


def int_matrices(n):
    slot = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return st.dictionaries(slot, st.integers(-4, 4), max_size=2 * n)


@pytest.mark.parametrize("case", [build_case(5), build_case(9, variant="a")],
                         ids=lambda c: c.label)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_directional_poly_and_character_on_random_matrices(case, data):
    q = q_polynomial(case)
    n = case.dim_v
    x = data.draw(int_matrices(n))
    assert structure._directional_poly(q, x) == _directional_poly_reference(q, x)
    # Y = X + sum_i c_i B_i lies in Str exactly when X does, and the character
    # is linear there; otherwise character_of must refuse Y
    sb = structure_algebra(case)
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=sb.dim, max_size=sb.dim))
    y = dict(x)
    for c, b in zip(coeffs, sb.basis):
        for k, v in b.items():
            y[k] = y.get(k, 0) + c * v
    y = {k: v for k, v in y.items() if v}
    if FractionSpan(sb.basis).contains(x):
        assert character_of(q, y) == character_of(q, x) + sum(
            c * chi for c, chi in zip(coeffs, sb.characters))
    else:
        with pytest.raises(ValueError):
            character_of(q, y)


@pytest.mark.parametrize(
    "case",
    [build_case(1), build_case(2, p=3), build_case(3), build_case(5),
     build_case(9, variant="a")],
    ids=lambda c: c.label,
)
def test_characters_are_fractions(case):
    # integral coefficients are stored as int, so a bare coefficient quotient
    # would be a float; every character must stay an exact Fraction
    assert all(type(c) is F for c in structure_algebra(case).characters)


def test_identity_character_is_the_fraction_four():
    c = identity_character(build_case(5))
    assert type(c) is F and c == F(4)


def test_bracket_closure_small_cases():
    for case in (build_case(1), build_case(4), build_case(5), build_case(2, p=3),
                 build_case(11), build_case(10, variant="a")):
        rep = check_g_dimension(case)
        assert rep.status == "pass" and "Str closed under [,]; DQ[z]=4Q" in rep.details


def test_translate_span_examples():
    assert translate_span_dim(q_polynomial(build_case(1)))[0] == 5
    assert translate_span_dim(q_polynomial(build_case(5)))[0] == 16
    assert translate_span_dim(q_polynomial(build_case(3)))[0] == 9


def test_translate_span_graded_ranks():
    assert translate_span_dim(q_polynomial(build_case(9, variant="c"))) == (
        128, [1, 28, 70, 28, 1])
    assert len(STRUCTURE_ROWS) == 19
    for case in STRUCTURE_ROWS:
        dim_w, graded = translate_span_dim(q_polynomial(case))
        assert graded[:2] == [1, case.dim_v], case.label
        assert graded == graded[::-1], case.label  # Gorenstein symmetry
        assert dim_w == sum(graded)


def test_system_rows_match_tuple_keyed_rows():
    # the rows key monomials as integers in base deg q + 1; on this q a base
    # of deg q would key z0^3 z_b and z1 z_b alike
    vs = VarSet.flat(["z0", "z1", "z2"])
    q = MultiPoly(vs, {(3, 0, 0): 1, (1, 1, 1): -2, (0, 1, 0): 3, (0, 0, 2): 5})
    n = len(vs)
    expected: dict = {}
    for a in range(n):
        for e, c in q.diff(a).terms.items():
            for b in range(n):
                e2 = list(e)
                e2[b] += 1
                row = expected.setdefault(tuple(e2), {})
                row[(a, b)] = row.get((a, b), 0) + c
    for e, c in q.terms.items():
        row = expected.setdefault(e, {})
        row[(n, 0)] = row.get((n, 0), 0) - c
    assert structure._system_rows(q, structure._partials(q)) == list(expected.values())


def test_translate_span_takes_no_zero_derivative(monkeypatch):
    # a derivative along a variable the polynomial does not hold is known to
    # be zero before it is taken
    real, zero_calls, calls = MultiPoly.diff, [], []

    def counted(self, idx):
        d = real(self, idx)
        calls.append(idx)
        if d.is_zero():
            zero_calls.append(idx)
        return d

    q = q_polynomial(build_case(9, variant="c"))
    monkeypatch.setattr(MultiPoly, "diff", counted)
    assert translate_span_dim(q) == (128, [1, 28, 70, 28, 1])
    assert calls and not zero_calls


@pytest.mark.parametrize("case", [build_case(4), build_case(9, variant="a")],
                         ids=lambda c: c.label)
def test_translates_lie_in_derivative_span(case):
    q = q_polynomial(case)
    n = case.dim_v
    span = FractionSpan()
    for k in range(q.total_degree() + 1):
        for alpha in combinations_with_replacement(range(n), k):
            p = q
            for i in alpha:
                p = p.diff(i)
            span.add(p.terms)
    assert span.dim == translate_span_dim(q)[0]
    for a in ([1] * n, list(range(-2, n - 2)), [(-1) ** i * (i + 3) for i in range(n)]):
        assert span.contains(q.shift([-x for x in a]).terms)


# case 4: dim k = 9, g = so(7,C) of dim 21; expected_g_dim is read off the name
@pytest.mark.parametrize("change", [{"expected_k_dim": 10}, {"expected_g_name": "so(8,C)"}])
def test_dimension_check_can_fail(change):
    rep = check_g_dimension(replace(build_case(4), **change))
    assert rep.status == "fail" and rep.residual != "0", rep


def test_dimension_check_fails_without_closure(monkeypatch):
    # swap diag(1, 0, 0, 0) for E01 + E10: same dimensions, but
    # [E01 + E10, E11 - E00] = 2 (E01 - E10) leaves the span
    real = structure.structure_algebra

    def swapped(case):
        sb = real(case)
        sb.basis[-1] = {(0, 1): F(1), (1, 0): F(1)}
        return sb

    monkeypatch.setattr(structure, "structure_algebra", swapped)
    rep = check_g_dimension(build_case(5))
    assert rep.status == "fail" and "Str NOT closed under [,]" in rep.details
    assert "dimG=28 (expected 28," in rep.details
    assert rep.residual == "Str not closed"


def test_dimension_check_fails_without_euler_identity(monkeypatch):
    monkeypatch.setattr(structure, "character_of", lambda q_poly, x: F(3))
    rep = check_g_dimension(build_case(5))
    assert rep.status == "fail" and "DQ[z]=3Q" in rep.details
    assert rep.residual == "DQ[z]=3Q"


def test_dimension_check_fails_without_symmetry(monkeypatch):
    # right total (12) but not palindromic: the Gorenstein check must catch it
    monkeypatch.setattr(structure, "translate_span_dim", lambda q_poly: (12, [1, 3, 5, 2, 1]))
    rep = check_g_dimension(build_case(4))
    assert rep.status == "fail" and "not palindromic" in rep.details
    assert rep.residual == "W not palindromic"


DIM_ROWS = [
    (build_case(1), 8),
    (build_case(2, p=2), 15),
    (build_case(2, p=3), 24),
    (build_case(2, p=4), 35),
    (build_case(3), 15),
    (build_case(4), 21),
    (build_case(5), 28),
    (build_case(6, p=3), 28),
    (build_case(7, p=2), 28),
    (build_case(8, p1=2, p2=2), 28),
    (build_case(8, p1=4, p2=2), 45),
    (build_case(11), 14),
]


@pytest.mark.parametrize("case,gdim", DIM_ROWS, ids=lambda x: getattr(x, "label", str(x)))
def test_dimension_check_small_rows(case, gdim):
    assert case.expected_g_dim == gdim
    rep = check_g_dimension(case)
    assert rep.status == "pass", rep.details


def test_dimension_check_sym4_e6():
    rep = check_g_dimension(build_case(9, variant="a"))
    assert rep.status == "pass" and "dimG=78" in rep.details


def test_dimension_check_sym3_f4():
    rep = check_g_dimension(build_case(10, variant="a"))
    assert rep.status == "pass" and "dimG=52" in rep.details
