"""Exact polynomial layer: evaluation, shifts, differential operators."""

import random
from fractions import Fraction as F
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focklab.polyalg import MultiPoly, VarSet, apply_diff_op

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
    with pytest.raises(ValueError):
        MultiPoly(VarSet.flat(["x", "y", "z"]), {(0, -1, 0): 1})


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


def _canonical(p: MultiPoly) -> bool:
    # an int when integral, a Fraction with denominator != 1 otherwise, never 0
    return all(
        c != 0 and (type(c) is int or (type(c) is F and c.denominator != 1))
        for c in p.terms.values()
    )


def _diff(p: MultiPoly, idx: int, order: int) -> MultiPoly:
    """The order-th derivative of p in variable idx, one diff at a time."""
    for _ in range(order):
        p = p.diff(idx)
    return p


def _apply_reference(symbol: MultiPoly, target: MultiPoly) -> MultiPoly:
    # sum over the symbol's monomials c * z^e of c * d^e target, one diff at a time
    out = MultiPoly.zero(target.vars)
    for e, c in symbol.terms.items():
        d = target
        for i, k in enumerate(e):
            d = _diff(d, i, k)
        out = out + d.scale(c)
    return out


@settings(max_examples=60, deadline=None)
@given(polys(VS3, 3, 4), polys(VS3, 3, 5), polys(VS3, 2, 3), small_fracs,
       st.lists(small_fracs, min_size=3, max_size=3))
def test_coefficients_stay_canonical(p, q, symbol, c, a):
    results = (p, p + q, p - q, -p, p * q, p**2, p.scale(c), _diff(p, 1, 2),
               p.shift(a), apply_diff_op(symbol, q), MultiPoly.constant(VS3, c))
    assert all(_canonical(r) for r in results)


@settings(max_examples=60, deadline=None)
@given(polys(VS3, 2, 3), polys(VS3, 4, 6))
def test_apply_diff_op_matches_iterated_diff(symbol, target):
    assert apply_diff_op(symbol, target) == _apply_reference(symbol, target)


VS8 = VarSet.flat([f"w{i}" for i in range(8)])


@st.composite
def sparse_polys(draw, vs, max_support, max_terms):
    """Terms on a few variables each, mostly squarefree; a term may be constant."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = [0] * len(vs)
        for i in draw(st.sets(st.integers(0, len(vs) - 1), max_size=max_support)):
            e[i] = draw(st.sampled_from((1, 1, 1, 2, 3)))
        terms[tuple(e)] = draw(small_fracs)
    return MultiPoly(vs, terms)


@settings(max_examples=80, deadline=None)
@given(sparse_polys(VS8, 3, 5), sparse_polys(VS8, 6, 14))
def test_apply_diff_op_matches_iterated_diff_on_sparse_wide_polys(symbol, target):
    # each symbol monomial meets only the target terms holding its whole support
    assert apply_diff_op(symbol, target) == _apply_reference(symbol, target)


@settings(max_examples=60, deadline=None)
@given(polys(VS3, 3, 5), st.lists(polys(VS2, 1, 3), min_size=3, max_size=3),
       st.lists(small_fracs, min_size=2, max_size=2))
def test_substitute_evaluates_at_the_images(p, images, point):
    # p(y(x)) at x is p at the point y(x), and the result stays canonical
    composed = p.substitute(images)
    assert composed.vars == VS2 and _canonical(composed)
    assert composed.eval(point) == p.eval([y.eval(point) for y in images])


@settings(max_examples=60, deadline=None)
@given(polys(VS3, 3, 5), st.lists(small_fracs, min_size=3, max_size=3))
def test_substitute_of_translates_is_shift(p, a):
    # against Taylor's formula p(z + a) = sum_alpha a^alpha / alpha! d^alpha p, which
    # reads only diff
    images = [MultiPoly.variable(VS3, v) + MultiPoly.constant(VS3, c) for v, c in enumerate(a)]
    taylor = MultiPoly.zero(VS3)
    for alpha in product(range(4), repeat=3):  # every exponent of p is at most 3
        term = p
        for v, k in enumerate(alpha):
            term = _diff(term, v, k).scale(F(a[v]) ** k / factorial(k))
        taylor = taylor + term
    assert p.substitute(images) == p.shift(a) == taylor


def test_substitute_rejects_images_over_different_variable_lists():
    images = [MultiPoly.variable(VS2, 0), MultiPoly.variable(VS3, 1), MultiPoly.variable(VS3, 2)]
    with pytest.raises(ValueError):
        MultiPoly.variable(VS3, 0).substitute(images)


# -- products against a tuple-keyed reference ------------------------------------


def _naive_mul(a: dict, b: dict) -> dict:
    """Tuple-keyed product in first-reached order (a outer, b inner), zeros dropped."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _naive_pow(p: MultiPoly, k: int) -> dict:
    # square-and-multiply from the constant 1, whose product keeps the other
    # factor's order; base is squared only while a bit is left to read
    result, base = {(0,) * len(p.vars): 1}, dict(p.terms)
    while k:
        if k & 1:
            result = _naive_mul(result, base)
        k >>= 1
        if k:
            base = _naive_mul(base, base)
    return result


@st.composite
def packable_pairs(draw, sizes):
    """Polynomials of the given sizes on one list of 8 to 30 variables.

    A size is zero, constant, small (1 to 6 terms) or large (24 to 32
    terms), so two large ones give more term pairs than the packing
    threshold, 256.  Exponents reach up to 150, so exponent sums fall on
    both sides of the 255 that a packed byte field holds (127 + 127 fits,
    128 + 128 does not).
    """
    vs = VarSet.flat([f"v{i}" for i in range(draw(st.integers(8, 30)))])
    top = draw(st.sampled_from((3, 127, 128, 150)))
    coeffs = st.one_of(st.integers(-3, 3), small_fracs)

    def poly(size):
        if size == "zero":
            return MultiPoly.zero(vs)
        if size == "constant":
            return MultiPoly.constant(vs, draw(coeffs.filter(bool)))
        terms = {}
        for _ in range(draw(st.integers(1, 6) if size == "small" else st.integers(24, 32))):
            e = [0] * len(vs)
            for i in draw(st.sets(st.integers(0, len(vs) - 1), min_size=1, max_size=3)):
                e[i] = draw(st.one_of(st.sampled_from((top, 1, 2)), st.integers(1, top)))
            terms[tuple(e)] = draw(coeffs)
        return MultiPoly(vs, terms)

    return tuple(poly(size) for size in sizes)


SIZE_PAIRS = [("large", "large"), ("large", "small"), ("small", "small"),
              ("constant", "large"), ("large", "zero"), ("constant", "constant")]


@pytest.mark.parametrize("sizes", SIZE_PAIRS, ids="-".join)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_product_matches_naive_product_and_order(sizes, data):
    # verify_bernstein_identity reads C off the first term of a power, so the
    # order of the terms is part of the contract
    p, q = data.draw(packable_pairs(sizes))
    expected = _naive_mul(p.terms, q.terms)
    got = p * q
    assert got.terms == expected and list(got.terms) == list(expected)
    assert _canonical(got)


@pytest.mark.parametrize("size", ["large", "small", "constant", "zero"])
@settings(max_examples=10, deadline=None)
@given(data=st.data(), k=st.integers(0, 3))
def test_power_matches_naive_power_and_order(size, data, k):
    (p,) = data.draw(packable_pairs((size,)))
    expected = _naive_pow(p, k)
    got = p**k
    assert got.terms == expected and list(got.terms) == list(expected)
