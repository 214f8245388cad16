"""Structure algebra, translate spans, and table dimension checks."""

from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations_with_replacement

import pytest

from focklab import structure
from focklab.checks import STRUCTURE_ROWS
from focklab.jordan import build_case, q_polynomial
from focklab.linalg import FractionSpan
from focklab.structure import (
    bracket_in_span,
    character_of,
    check_g_dimension,
    identity_character,
    structure_algebra,
    translate_span_dim,
)


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
    q = q_polynomial(case, form="table")
    ident = {(a, a): F(1) for a in range(4)}
    assert character_of(q, ident) == 4
    # every elementary scaling lies in the computed span (so the identity does)
    span = FractionSpan()
    n = case.dim_v
    for x in sb.basis:
        span.add({a * n + b: c for (a, b), c in x.items()})
    for a in range(4):
        assert span.contains({a * n + a: F(1)})


def test_characters_are_exact():
    case = build_case(2, p=3)
    sb = structure_algebra(case)
    q = q_polynomial(case, form="table")
    for x, c in zip(sb.basis, sb.characters):
        assert character_of(q, x) == c


def test_bracket_closure_small_cases():
    for case in (build_case(1), build_case(4), build_case(5), build_case(2, p=3),
                 build_case(11), build_case(10, variant="a")):
        sb = structure_algebra(case)
        assert bracket_in_span(sb.basis, case.dim_v)


def test_bracket_closure_sampled_big():
    case = build_case(9, variant="b")
    sb = structure_algebra(case)
    pairs = [(0, 1), (3, 17), (5, 28), (2, 30), (10, 20)]
    pairs = [(i, j) for i, j in pairs if j < sb.dim]
    assert bracket_in_span(sb.basis, case.dim_v, pairs=pairs)


def test_translate_span_examples():
    assert translate_span_dim(build_case(1))[0] == 5
    assert translate_span_dim(build_case(5))[0] == 16
    assert translate_span_dim(build_case(3))[0] == 9


def test_translate_span_graded_ranks():
    assert translate_span_dim(build_case(9, variant="c")) == (128, [1, 28, 70, 28, 1])
    assert len(STRUCTURE_ROWS) == 19
    for case in STRUCTURE_ROWS:
        dim_w, graded = translate_span_dim(case)
        assert graded[:2] == [1, case.dim_v], case.label
        assert graded == graded[::-1], case.label  # Gorenstein symmetry
        assert dim_w == sum(graded)


@pytest.mark.parametrize("case", [build_case(4), build_case(9, variant="a")],
                         ids=lambda c: c.label)
def test_translates_lie_in_derivative_span(case):
    q = q_polynomial(case, form="table")
    n = case.dim_v
    mono: dict[tuple, int] = {}

    def vec(p):
        return {mono.setdefault(e, len(mono)): c for e, c in p.terms.items()}

    span = FractionSpan()
    for k in range(q.total_degree() + 1):
        for alpha in combinations_with_replacement(range(n), k):
            p = q
            for i in alpha:
                p = p.diff(i)
            span.add(vec(p))
    assert span.dim == translate_span_dim(case)[0]
    for a in ([1] * n, list(range(-2, n - 2)), [(-1) ** i * (i + 3) for i in range(n)]):
        assert span.contains(vec(q.shift([-x for x in a])))


# case 4: dim k = 9, g = so(7,C) of dim 21; expected_g_dim is read off the name
@pytest.mark.parametrize("change", [{"expected_k_dim": 10}, {"expected_g_name": "so(8,C)"}])
def test_dimension_check_can_fail(change):
    rep = check_g_dimension(replace(build_case(4), **change))
    assert rep.status == "fail", rep.details


def test_dimension_check_fails_without_symmetry(monkeypatch):
    # right total (12) but not palindromic: the Gorenstein check must catch it
    monkeypatch.setattr(structure, "translate_span_dim", lambda case: (12, [1, 3, 5, 2, 1]))
    rep = check_g_dimension(build_case(4))
    assert rep.status == "fail" and "not palindromic" in rep.details


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
