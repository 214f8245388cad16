"""Exact linear algebra: ranks, incremental spans and nullspaces agree."""

from fractions import Fraction as F
from math import gcd, lcm

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from focklab.linalg import FractionSpan, frac_nullspace, int_rank


def is_primitive(row):
    return all(type(v) is int and v for v in row.values()) and gcd(*row.values()) == 1


@st.composite
def int_matrices(draw):
    """Small integer matrices, some rows combinations of others (rank deficit),
    some with one entry (forcing that coordinate to 0)."""
    ncols = draw(st.integers(1, 6))
    entry = st.integers(-3, 3)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=5))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        a, b = draw(entry), draw(entry)
        rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
    for _ in range(draw(st.integers(0, 2))):
        j, c = draw(st.integers(0, ncols - 1)), draw(st.sampled_from((-2, -1, 1, 3)))
        rows.insert(draw(st.integers(0, len(rows))), [c if k == j else 0 for k in range(ncols)])
    return ncols, [{k: v for k, v in enumerate(r) if v} for r in rows]


@settings(max_examples=80, deadline=None)
@given(int_matrices())
def test_rank_plus_nullity_is_ncols(matrix):
    ncols, rows = matrix
    frac_rows = [{k: F(v) for k, v in r.items()} for r in rows]
    basis = frac_nullspace(frac_rows, range(ncols))
    assert int_rank(rows) + len(basis) == ncols
    forced = {k for r in rows if len(r) == 1 for k in r}
    for vec in basis:  # every basis vector solves the system exactly
        assert all(sum(c * vec.get(k, 0) for k, c in r.items()) == 0 for r in frac_rows)
        assert all(vec.get(k, 0) == 0 for k in forced)
    span = FractionSpan()
    for r in frac_rows:
        span.add(r)
    assert span.dim == int_rank(rows)
    int_span = FractionSpan()  # int rows reduce to the same echelon
    for r in rows:
        int_span.add(r)
    assert int_span.rows == span.rows
    assert all(is_primitive(row) and min(row) == j for j, row in int_span.rows.items())


RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def keyed_rational_matrices(draw):
    """(column keys, rows keyed by them): small rationals, tuple keys, rank deficits,
    one-entry rows (forcing a coordinate to 0), and duplicate rows, some negated
    or rescaled."""
    keys = sorted(draw(st.sets(st.tuples(st.integers(0, 3), st.integers(-2, 2)),
                               min_size=1, max_size=6)))
    sparse = st.one_of(st.just(F(0)), RATIONALS)
    rows = draw(st.lists(st.lists(sparse, min_size=len(keys), max_size=len(keys)),
                         max_size=5))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        a, b = draw(RATIONALS), draw(RATIONALS)
        rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
    for _ in range(draw(st.integers(0, 2))):
        j, c = draw(st.integers(0, len(keys) - 1)), draw(RATIONALS.filter(bool))
        rows.insert(draw(st.integers(0, len(rows))),
                    [c if k == j else F(0) for k in range(len(keys))])
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        c = draw(st.sampled_from((F(1), F(-1), F(-2, 3), F(3))))
        rows.insert(draw(st.integers(0, len(rows))), [c * x for x in row])
    return keys, rows


def primitive_int_vector(column, keys):
    """A sympy column scaled by a positive factor to a sparse primitive int vector."""
    den = lcm(*(int(sympy.Rational(x).q) for x in column))
    ints = [int(x * den) for x in column]
    g = gcd(*ints)
    return {k: v // g for k, v in zip(keys, ints) if v}


def as_sympy(rows, width):
    return sympy.Matrix(len(rows), width, lambda i, k: sympy.Rational(rows[i][k]))


@settings(max_examples=60, deadline=None)
@given(keyed_rational_matrices(), st.data())
def test_elimination_matches_sympy(matrix, data):
    keys, dense = matrix
    rows = [{key: v for key, v in zip(keys, r) if v} for r in dense]
    rank = as_sympy(dense, len(keys)).rank() if dense else 0
    assert int_rank(rows) == rank

    basis = frac_nullspace(rows, keys)
    assert len(basis) == len(keys) - rank
    # the basis sympy gets by eliminating the rows as given, made primitive
    # with its free coordinate positive, is the same list of vectors
    nullspace = as_sympy(dense or [[0] * len(keys)], len(keys)).nullspace()
    assert basis == [primitive_int_vector(v, keys) for v in nullspace]
    forced = {k for r in rows if len(r) == 1 for k in r}
    assert all(vec.get(k, 0) == 0 for vec in basis for k in forced)
    if basis:  # independent, exact solutions
        assert as_sympy([[v.get(k, 0) for k in keys] for v in basis], len(keys)).rank() == len(basis)
    for vec in basis:
        assert is_primitive(vec) and set(vec) <= set(keys)
        assert all(sum(c * vec.get(k, 0) for k, c in r.items()) == 0 for r in rows)

    span = FractionSpan()
    for r in rows:
        span.add(r)
    # a combination of the rows, sometimes knocked off the span in one entry
    coeffs = data.draw(st.lists(RATIONALS, min_size=len(dense), max_size=len(dense)))
    probe = [sum((c * r[i] for c, r in zip(coeffs, dense)), F(0)) for i in range(len(keys))]
    if data.draw(st.booleans()):
        probe[data.draw(st.integers(0, len(keys) - 1))] += data.draw(RATIONALS)
    augmented = as_sympy(dense + [probe], len(keys)).rank()
    assert span.contains({k: v for k, v in zip(keys, probe)}) == (augmented == rank)
