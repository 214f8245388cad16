"""Exact sparse linear algebra over Q on one fraction-free integer echelon.

A row is a sparse dict key -> coefficient (int or Fraction), keyed by the
caller's own column keys: any hashable, totally ordered values, such as
ints, exponent tuples, (m, j) Fock keys or (a, b) matrix slots, one kind per
span.  `FractionSpan.reduce` is the only elimination loop.  It clears a
row's denominators and strips its content on entry, then eliminates against
the stored rows (primitive int rows indexed by their leading, least key) by
gcd-stripped cross-multiplication: each step scales the row and the pivot
row by the gcd-reduced leading cofactors, subtracts, and strips the content
again.  `int_rank` is the dimension of such a span, and `frac_nullspace`
back-solves its echelon once per free column.  A one-entry echelon row
forces its pivot coordinate to 0 in every solution, so the back-solve skips
those pivots: the coordinate never enters a basis vector.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Iterable

Key = Hashable  # totally ordered within one span
Row = dict[Key, int | Fraction]
IntRow = dict[Key, int]


def _strip(row: IntRow) -> IntRow:
    g = gcd(*row.values())
    return row if g <= 1 else {k: v // g for k, v in row.items()}


def _primitive(row: Row) -> IntRow:
    """row over Z with coprime entries, zero entries dropped: same line over Q."""
    den = lcm(*(c.denominator for c in row.values()))
    return _strip({k: c.numerator * (den // c.denominator) for k, c in row.items() if c})


class FractionSpan:
    """Incrementally built row space over Q with exact membership tests."""

    def __init__(self, rows: Iterable[Row] = ()):
        self.rows: dict[Key, IntRow] = {}  # leading key -> primitive int row
        for row in rows:
            self.add(row)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Row) -> IntRow:
        """vec reduced against the echelon: primitive, with a new leading key, or {}."""
        r = _primitive(vec)
        while r:
            j = min(r)
            piv = self.rows.get(j)
            if piv is None:
                return r
            a, b = piv[j], r[j]
            g = gcd(a, b)
            ca, cb = a // g, b // g
            out = {k: ca * v for k, v in r.items()}
            for k, v in piv.items():
                w = out.get(k, 0) - cb * v
                if w:
                    out[k] = w
                else:
                    del out[k]
            r = _strip(out)
        return r

    def contains(self, vec: Row) -> bool:
        return not self.reduce(vec)

    def add(self, vec: Row) -> bool:
        """Insert vec; True if the span grew."""
        r = self.reduce(vec)
        if r:
            self.rows[min(r)] = r
        return bool(r)


def int_rank(rows: Iterable[Row]) -> int:
    """Exact rank over Q of sparse rows."""
    return FractionSpan(rows).dim


def frac_nullspace(rows: Iterable[Row], columns: Iterable[Key]) -> list[IntRow]:
    """Nullspace basis of rows . x = 0 over the given columns, exactly.

    One primitive int vector per free column (a column of `columns` that
    leads no echelon row): that coordinate is positive, every other free one
    is 0, and the pivot coordinates are back-solved from the last pivot up.
    """
    span = FractionSpan(rows)
    # a one-entry row forces its pivot coordinate to 0, which stays out of vec
    pivots = sorted((j for j, row in span.rows.items() if len(row) > 1), reverse=True)
    basis: list[IntRow] = []
    for free in sorted(set(columns) - set(span.rows)):
        vec: IntRow = {free: 1}
        for j in pivots:
            row = span.rows[j]
            s = sum(c * vec[k] for k, c in row.items() if k in vec)
            if s:  # row[j] x_j + s = 0, with vec rescaled to keep x_j integral
                g = gcd(s, row[j])
                scale = row[j] // g
                if scale != 1:
                    vec = {k: scale * v for k, v in vec.items()}
                vec[j] = -s // g
        vec = _strip(vec)
        if vec[free] < 0:
            vec = {k: -v for k, v in vec.items()}
        basis.append(vec)
    return basis
