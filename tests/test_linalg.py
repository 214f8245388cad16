"""Exact linear algebra: ranks, incremental spans and nullspaces agree."""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from focklab.linalg import FractionSpan, frac_nullspace, int_rank


@st.composite
def int_matrices(draw):
    """Small integer matrices, some rows combinations of others (rank deficit)."""
    ncols = draw(st.integers(1, 6))
    entry = st.integers(-3, 3)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=5))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        a, b = draw(entry), draw(entry)
        rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
    return ncols, [{k: v for k, v in enumerate(r) if v} for r in rows]


@settings(max_examples=80, deadline=None)
@given(int_matrices())
def test_rank_plus_nullity_is_ncols(matrix):
    ncols, rows = matrix
    frac_rows = [{k: F(v) for k, v in r.items()} for r in rows]
    basis = frac_nullspace(frac_rows, ncols)
    assert int_rank(rows) + len(basis) == ncols
    for vec in basis:  # every basis vector solves the system exactly
        assert all(sum(c * vec.get(k, 0) for k, c in r.items()) == 0 for r in frac_rows)
    span = FractionSpan()
    for r in frac_rows:
        span.add(r)
    assert span.dim == int_rank(rows)
