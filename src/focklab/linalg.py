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
those pivots: the coordinate never enters a basis vector.  Of the other
pivots it visits only those whose rows hold a coordinate already nonzero,
highest pivot first; every pivot it passes over would solve to 0.

Before it eliminates, `frac_nullspace` sifts its rows.  A one-entry row
forces its column to 0, so that column is removed from every other row, and
of the rows then equal up to sign (once primitive) one is kept.  Both steps
are row operations or drop a repeated row, so the row space is unchanged;
the pivot columns of an echelon form depend on the row space alone, so the
free columns and the one basis vector per free column, primitive with that
coordinate positive, are unchanged too.  On the structure algebra of
Skew(8) the 8,925 rows become 420 unit rows and 945 others.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
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


def _sift(rows: Iterable[Row]) -> list[IntRow]:
    """Rows with the same row space, fewer and shorter: forced zeros and duplicates out.

    Every one-entry row becomes the unit row of its column, and that column
    is removed from every other row (adding a multiple of the unit row).
    The rows left are made primitive again, and of the rows equal up to
    sign only the first is kept.
    """
    forced: set[Key] = set()
    multi: list[IntRow] = []
    for r in rows:
        r = _primitive(r) if len(r) > 1 else {k: 1 for k, c in r.items() if c}
        if len(r) == 1:
            forced.update(r)
        elif r:
            multi.append(r)
    kept: dict[tuple, IntRow] = {}
    for r in multi:
        if not forced.isdisjoint(r):
            r = _strip({k: v for k, v in r.items() if k not in forced})
            if not r:
                continue
        key = tuple(sorted(r.items()))
        if key[0][1] < 0:
            key = tuple((k, -v) for k, v in key)
        kept.setdefault(key, r)
    return [{k: 1} for k in sorted(forced)] + list(kept.values())


def frac_nullspace(rows: Iterable[Row], columns: Iterable[Key]) -> list[IntRow]:
    """Nullspace basis of rows . x = 0 over the given columns, exactly.

    One primitive int vector per free column (a column of `columns` that
    leads no echelon row): that coordinate is positive, every other free one
    is 0, and the pivot coordinates are back-solved from the last pivot up.
    """
    span = FractionSpan(_sift(rows))
    # a one-entry row forces its pivot coordinate to 0, which stays out of vec;
    # the other pivots, highest first, are indexed by rank under each column
    # after their own that their rows hold
    pivots = sorted((j for j, row in span.rows.items() if len(row) > 1), reverse=True)
    holding: dict[Key, list[int]] = {}
    for r, j in enumerate(pivots):
        for k in span.rows[j]:
            if k != j:
                holding.setdefault(k, []).append(r)
    basis: list[IntRow] = []
    for free in sorted(set(columns) - set(span.rows)):
        vec: IntRow = {free: 1}
        # only a pivot whose row holds a nonzero coordinate of vec can be
        # nonzero; those wait in a heap of pivot ranks, taken highest key first
        pending = list(holding.get(free, ()))
        queued = set(pending)
        heapify(pending)
        while pending:
            j = pivots[heappop(pending)]
            row = span.rows[j]
            s = sum(c * vec[k] for k, c in row.items() if k in vec)
            if s:  # row[j] x_j + s = 0, with vec rescaled to keep x_j integral
                g = gcd(s, row[j])
                scale = row[j] // g
                if scale != 1:
                    vec = {k: scale * v for k, v in vec.items()}
                vec[j] = -s // g
                for r in holding.get(j, ()):
                    if r not in queued:
                        queued.add(r)
                        heappush(pending, r)
        vec = _strip(vec)
        if vec[free] < 0:
            vec = {k: -v for k, v in vec.items()}
        basis.append(vec)
    return basis
