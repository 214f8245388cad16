"""Exact sparse linear algebra over the rationals.

Rows are sparse dicts column->coefficient.  Integer rows are kept gcd-stripped
during elimination, so ranks are exact over Q with no coefficient blowup
surprises.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

IntRow = dict[int, int]
FracRow = dict[int, Fraction]


def _strip(row: IntRow) -> IntRow:
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
        if g == 1:
            return row
    if g > 1:
        return {j: v // g for j, v in row.items()}
    return row


def int_rank(rows: Iterable[IntRow]) -> int:
    """Exact rank over Q of integer sparse rows (fraction-free elimination)."""
    echelon: dict[int, IntRow] = {}  # pivot column -> row
    for row in rows:
        r = _strip({j: v for j, v in row.items() if v})
        while r:
            j = min(r)
            piv = echelon.get(j)
            if piv is None:
                echelon[j] = r
                break
            a, b = piv[j], r[j]
            g = gcd(abs(a), abs(b))
            ca, cb = a // g, b // g
            out: IntRow = {}
            for k, v in r.items():
                out[k] = ca * v
            for k, v in piv.items():
                w = out.get(k, 0) - cb * v
                if w:
                    out[k] = w
                elif k in out:
                    del out[k]
            r = _strip(out)
    return len(echelon)


class FractionSpan:
    """Incrementally built row space over Q with exact membership tests."""

    def __init__(self):
        self.rows: dict[int, FracRow] = {}  # pivot column -> row, pivot coeff 1

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: FracRow) -> FracRow:
        v = {j: c for j, c in vec.items() if c}
        while v:
            j = min(v)
            row = self.rows.get(j)
            if row is None:
                return v
            c = v[j]
            for k, w in row.items():
                nv = v.get(k, Fraction(0)) - c * w
                if nv:
                    v[k] = nv
                elif k in v:
                    del v[k]
        return v

    def contains(self, vec: FracRow) -> bool:
        return not self.reduce(vec)

    def add(self, vec: FracRow) -> bool:
        """Insert vec; True if the span grew."""
        r = self.reduce(vec)
        if not r:
            return False
        j = min(r)
        inv = 1 / Fraction(r[j])  # a Fraction even when r holds ints
        self.rows[j] = {k: w * inv for k, w in r.items()}
        return True


def frac_nullspace(rows: Sequence[FracRow], ncols: int) -> list[FracRow]:
    """Nullspace basis of the homogeneous system rows . x = 0, exactly.

    Gauss-Jordan on sparse Fraction rows: the pivot-normalised echelon rows
    of a FractionSpan, back-substituted to reduced form; returns one basis
    vector per free column, each with the free coordinate set to 1.
    """
    span = FractionSpan()
    for row in rows:
        span.add(row)
    echelon = span.rows
    # back-substitute to reduced form
    for j in sorted(echelon, reverse=True):
        row = echelon[j]
        for j2 in sorted(echelon):
            if j2 <= j:
                continue
            c = row.get(j2)
            if c:
                for k, w in echelon[j2].items():
                    nv = row.get(k, Fraction(0)) - c * w
                    if nv:
                        row[k] = nv
                    elif k in row:
                        del row[k]
    pivots = set(echelon)
    basis: list[FracRow] = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec: FracRow = {free: Fraction(1)}
        for j, row in echelon.items():
            c = row.get(free)
            if c:
                vec[j] = -c
        basis.append(vec)
    return basis
