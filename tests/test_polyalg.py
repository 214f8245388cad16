"""Exact polynomial layer: evaluation, shifts, differential operators."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focklab.polyalg import MultiPoly, VarSet, apply_diff_op, apply_symbol_at_point

VS1 = VarSet.flat(["z"])
VS4 = VarSet.flat(["z1", "z2", "z3", "z4"])


def zvar(vs, i=0):
    return MultiPoly.variable(vs, i)


def rand_poly(vs, rng, deg=3, terms=6):
    out = {}
    for _ in range(terms):
        e = tuple(rng.randint(0, deg) for _ in range(len(vs)))
        out[e] = F(rng.randint(-9, 9), rng.randint(1, 7))
    return MultiPoly(vs, out)


def test_poly_eval_examples():
    z = zvar(VS1)
    assert (z**4).eval([2]) == 16
    prod = zvar(VS4, 0) * zvar(VS4, 1) * zvar(VS4, 2) * zvar(VS4, 3)
    assert prod.eval([1, 1, 1, 1]) == 1
    vs3 = VarSet.flat(["z1", "z2", "z3"])
    phi3 = sum(
        (MultiPoly.variable(vs3, i) ** 2 for i in range(3)),
        MultiPoly.zero(vs3),
    )
    assert phi3.eval([1, 2, 3]) == 14


def test_poly_eval_dimension_mismatch():
    with pytest.raises(ValueError):
        (zvar(VS1) ** 2).eval([1, 2])


def test_apply_diff_op_examples():
    z = zvar(VS1)
    assert apply_diff_op(z**4, z**4) == MultiPoly.constant(VS1, 24)
    # fourth derivative of z^8: 8*7*6*5 z^4 = 1680 z^4 = B(2) z^4 for case (1)
    assert apply_diff_op(z**4, z**8) == (z**4).scale(1680)
    vs2 = VarSet.flat(["z1", "z2"])
    z1, z2 = zvar(vs2, 0), zvar(vs2, 1)
    assert apply_diff_op(z1 * z2, z1**2 * z2**2) == (z1 * z2).scale(4)


def test_apply_diff_op_kills_low_degree():
    rng = random.Random(11)
    for _ in range(5):
        target = rand_poly(VS4, rng, deg=1, terms=4)
        symbol = zvar(VS4, 0) ** 2 * zvar(VS4, 1)
        if target.total_degree() < symbol.total_degree():
            assert apply_diff_op(symbol, target).is_zero()


def test_apply_diff_op_bilinear():
    rng = random.Random(5)
    for _ in range(4):
        s1, s2 = rand_poly(VS4, rng), rand_poly(VS4, rng)
        t1, t2 = rand_poly(VS4, rng), rand_poly(VS4, rng)
        a, b = F(3, 2), F(-5, 7)
        lhs = apply_diff_op(s1.scale(a) + s2.scale(b), t1)
        rhs = apply_diff_op(s1, t1).scale(a) + apply_diff_op(s2, t1).scale(b)
        assert lhs == rhs
        lhs = apply_diff_op(s1, t1.scale(a) + t2.scale(b))
        rhs = apply_diff_op(s1, t1).scale(a) + apply_diff_op(s1, t2).scale(b)
        assert lhs == rhs


def test_shift_evaluates_at_translated_point():
    rng = random.Random(7)
    p = rand_poly(VS4, rng)
    a = [F(1, 2), F(-2), F(3), F(0)]
    shifted = p.shift(a)
    pt = [F(2), F(1), F(-1), F(5)]
    assert shifted.eval(pt) == p.eval([x + y for x, y in zip(pt, a)])


def test_apply_symbol_at_point_matches_expansion():
    rng = random.Random(99)
    vs = VarSet.flat(["x", "y"])
    base = rand_poly(vs, rng, deg=2, terms=4)
    symbol = rand_poly(vs, rng, deg=2, terms=3)
    for power in (1, 2, 3):
        expanded = apply_diff_op(symbol, base**power)
        pt = [F(rng.randint(-4, 4)), F(rng.randint(-4, 4))]
        assert apply_symbol_at_point(symbol, base, power, pt) == expanded.eval(pt)


def test_eval_is_ring_homomorphism():
    rng = random.Random(41)
    for _ in range(5):
        p, q = rand_poly(VS4, rng), rand_poly(VS4, rng)
        pt = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)]
        assert (p * q).eval(pt) == p.eval(pt) * q.eval(pt)
        assert (p + q).eval(pt) == p.eval(pt) + q.eval(pt)


def test_diff_shift_commute():
    rng = random.Random(6)
    p = rand_poly(VS4, rng)
    a = [F(1), F(-1, 2), F(2), F(0)]
    # d/dz of p(z + a) equals (dp/dz)(z + a): translation invariance
    assert p.shift(a).diff(2) == p.diff(2).shift(a)


def test_canonical_form_and_immutability():
    p = MultiPoly(VS1, {(2,): F(0), (1,): F(3)})
    assert (2,) not in p.terms and p.terms == {(1,): F(3)}
    with pytest.raises(AttributeError):
        p.terms = {}
    with pytest.raises(ValueError):
        MultiPoly(VS1, {(-1,): F(1)})


# -- properties (hypothesis) ---------------------------------------------------

VS2 = VarSet.flat(["x", "y"])
VS3 = VarSet.flat(["z1", "z2", "z3"])
small_fracs = st.builds(F, st.integers(-5, 5), st.integers(1, 4))


def polys(vs, max_exp, max_terms):
    exps = st.tuples(*[st.integers(0, max_exp)] * len(vs))
    return st.dictionaries(exps, small_fracs, max_size=max_terms).map(
        lambda terms: MultiPoly(vs, terms))


@settings(max_examples=60, deadline=None)
@given(polys(VS3, 3, 5), st.lists(small_fracs, min_size=3, max_size=3),
       st.lists(small_fracs, min_size=3, max_size=3))
def test_shift_composes_additively(p, a, b):
    assert p.shift(a).shift(b) == p.shift([x + y for x, y in zip(a, b)])


@settings(max_examples=60, deadline=None)
@given(polys(VS2, 2, 3), polys(VS2, 2, 3), st.integers(0, 3),
       st.lists(small_fracs, min_size=2, max_size=2))
def test_apply_symbol_at_point_is_apply_then_eval(symbol, base, power, pt):
    expected = apply_diff_op(symbol, base**power).eval(pt)
    assert apply_symbol_at_point(symbol, base, power, pt) == expected
