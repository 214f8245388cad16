"""Structure-algebra and translate-span dimension checks against the table.

dim k is assembled as 2*dim V + dim Str (the grading k = k_{-1} + k_0 + k_1
with both outer pieces isomorphic to V), dim W as the dimension of the span
of the translates Q(z - a), and the check asserts dim k + dim W = dim g for
the named complex simple Lie algebra.

By Taylor's formula Q(z - a) = sum_alpha (-a)^alpha / alpha! d^alpha Q, and
the translates span exactly the space of all partial derivatives of Q.  That
space is graded by the order of the derivative, so dim W is the sum over k
of rank{d^alpha Q : |alpha| = k}, each rank exact over Q.  A derivative is
taken only along a variable its polynomial holds, so none comes out zero.
The graded ranks are the Hilbert function of the apolar algebra of Q, which
is Gorenstein with socle in degree deg Q, so they read the same backwards
(Macaulay duality; Iarrobino-Kanev, LNM 1721).  The check asserts that
symmetry too.

The structure algebra {X : DQ(z)[Xz] in C*Q(z)} is computed by equating
coefficients and solving the homogeneous system exactly (focklab.linalg's
fraction-free echelon), one primitive integer matrix per basis element;
the character of every basis element is then verified.  structure_algebra
builds the table of first partials dQ/dz_a once and shares it between the
system and every character; the table lives for that one call.  The check
also asserts that the computed Str is a Lie algebra (every bracket [X, Y] of
basis elements lies in their span, exactly) and that it contains the
identity with character 4, Euler's identity DQ[z] = 4Q for the homogeneous
quartic Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import mul

from focklab.jordan import CaseDescriptor, q_polynomial
from focklab.linalg import FractionSpan, frac_nullspace, int_rank
from focklab.polyalg import MultiPoly, Scalar
from focklab.report import CheckReport, check_report

Matrix = dict[tuple[int, int], Scalar]  # (a, b) -> X_ab


@dataclass
class StructureBasis:
    q_poly: MultiPoly  # the Q (Jordan coordinates) every basis element preserves
    basis: list[Matrix]
    characters: list[Fraction]

    @property
    def dim(self) -> int:
        return len(self.basis)


def _partials(q_poly: MultiPoly) -> list[dict]:
    """The term maps of dQ/dz_a for every a: one table per call that needs it."""
    return [q_poly.diff(a).terms for a in range(len(q_poly.vars))]


def _directional_poly(q_poly: MultiPoly, x: Matrix,
                      partials: list[dict] | None = None) -> MultiPoly:
    """DQ(z)[Xz] = sum_ab X_ab z_b dQ/dz_a, summed into one term map.

    partials is the caller's _partials(q_poly) table, built here if not given.
    """
    if partials is None:
        partials = _partials(q_poly)
    out: dict[tuple[int, ...], Scalar] = {}
    for (a, b), coeff in x.items():
        for e, c in partials[a].items():
            e2 = list(e)
            e2[b] += 1
            e2 = tuple(e2)
            out[e2] = out.get(e2, 0) + coeff * c
    return MultiPoly(q_poly.vars, out)


def _character(q_poly: MultiPoly, x: Matrix, partials: list[dict]) -> Fraction:
    p = _directional_poly(q_poly, x, partials)
    if p.is_zero():
        return Fraction(0)
    e, coeff = next(iter(p.terms.items()))
    c = Fraction(coeff) / q_poly.terms[e] if e in q_poly.terms else None
    if c is None or p != q_poly.scale(c):
        raise ValueError("X does not preserve Q projectively")
    return c


def character_of(q_poly: MultiPoly, x: Matrix) -> Fraction:
    """The scalar c with DQ[Xz] = c*Q; raises if X is not in the structure algebra."""
    return _character(q_poly, x, _partials(q_poly))


def _system_rows(q_poly: MultiPoly, partials: list[dict]):
    """Sparse rows (one per monomial) of DQ[Xz] - c*Q = 0 in (X, c).

    Column (a, b) is the entry X_ab; the character c is column (n, 0), after
    every entry.  Monomials are keyed as base-(deg Q + 1) integers, which
    every exponent of DQ[Xz] and Q fits, so z_b times a monomial is one
    addition.
    """
    n = len(partials)
    base = q_poly.total_degree() + 1
    weight = [base**i for i in range(n)]
    rows: dict[int, dict[tuple[int, int], Scalar]] = {}
    for a in range(n):
        for e, coeff in partials[a].items():
            key = sum(map(mul, e, weight))
            for b in range(n):
                row = rows.setdefault(key + weight[b], {})
                row[(a, b)] = row.get((a, b), 0) + coeff
    for e, coeff in q_poly.terms.items():
        row = rows.setdefault(sum(map(mul, e, weight)), {})
        row[(n, 0)] = row.get((n, 0), 0) - coeff
    return list(rows.values())


@lru_cache(maxsize=1)
def _q_of(case: CaseDescriptor) -> MultiPoly:
    """Q of the last case asked for: check_g_dimension reads it through both
    structure_algebra and translate_span_dim, and builds it once per row."""
    return q_polynomial(case)


def structure_algebra(case: CaseDescriptor) -> StructureBasis:
    q_poly = _q_of(case)
    n = case.dim_v
    partials = _partials(q_poly)
    columns = [(a, b) for a in range(n) for b in range(n)] + [(n, 0)]
    basis: list[Matrix] = []
    chars: list[Fraction] = []
    for v in frac_nullspace(_system_rows(q_poly, partials), columns):
        x = {k: c for k, c in v.items() if k[0] < n}
        basis.append(x)
        chars.append(_character(q_poly, x, partials))
    return StructureBasis(q_poly, basis, chars)


def _by_row(x: Matrix) -> dict[int, list[tuple[int, Scalar]]]:
    """X's entries grouped by row: a -> [(b, X_ab)]."""
    rows: dict[int, list[tuple[int, Scalar]]] = {}
    for (a, b), v in x.items():
        rows.setdefault(a, []).append((b, v))
    return rows


def _bracket(x: dict, y: dict) -> Matrix:
    """XY - YX, exactly, without its zero entries, from X and Y grouped _by_row."""
    out: Matrix = {}
    for left, right, sign in ((x, y, 1), (y, x, -1)):
        for a, entries in left.items():
            for b, cl in entries:
                for c, cr in right.get(b, ()):
                    out[(a, c)] = out.get((a, c), 0) + sign * cl * cr
    return {k: v for k, v in out.items() if v}


def translate_span_dim(case: CaseDescriptor) -> tuple[int, list[int]]:
    """dim span{Q(z - a)}, taken as the span of all partial derivatives of Q.

    Returns (dim W, graded) with graded[k] = rank{d^alpha Q : |alpha| = k}.
    """
    q_poly = _q_of(case)
    n = case.dim_v
    graded: list[int] = []
    # alpha as a nondecreasing tuple of variable indices, so each multi-index
    # is reached once; a zero derivative is dropped with all its extensions
    level: dict[tuple[int, ...], MultiPoly] = {(): q_poly}
    while level:
        graded.append(int_rank([p.terms for p in level.values()]))
        nxt: dict[tuple[int, ...], MultiPoly] = {}
        for alpha, p in level.items():
            # d_i p is zero exactly when no term of p holds z_i
            held = [any(col) for col in zip(*p.terms)]
            for i in range(alpha[-1] if alpha else 0, n):
                if held[i]:
                    nxt[alpha + (i,)] = p.diff(i)
        level = nxt
    return sum(graded), graded


def check_g_dimension(case: CaseDescriptor) -> CheckReport:
    sb = structure_algebra(case)
    n = case.dim_v
    dim_k = 2 * n + sb.dim
    dim_w, graded = translate_span_dim(case)
    symmetric = graded == graded[::-1]
    total = dim_k + dim_w
    span = FractionSpan(sb.basis)
    grouped = [_by_row(x) for x in sb.basis]
    closed = all(span.contains(_bracket(x, y)) for x, y in combinations(grouped, 2))
    euler = character_of(sb.q_poly, {(a, a): Fraction(1) for a in range(n)})
    broken = [text for bad, text in (
        (total != case.expected_g_dim, f"dimG {total} != {case.expected_g_dim}"),
        (dim_k != case.expected_k_dim, f"dimK {dim_k} != {case.expected_k_dim}"),
        (not symmetric, "W not palindromic"),
        (not closed, "Str not closed"),
        (euler != 4, f"DQ[z]={euler}Q")) if bad]
    return check_report(
        "structure.dim", case, failure="; ".join(broken),
        details=(
            f"dimV={case.dim_v} dimStr={sb.dim} dimK={dim_k} "
            f"(expected {case.expected_k_dim}) "
            f"dimW={dim_w} ({'+'.join(map(str, graded))}"
            f"{'' if symmetric else ', not palindromic'}) "
            f"dimG={total} (expected {case.expected_g_dim}, {case.expected_g_name}); "
            f"Str {'closed' if closed else 'NOT closed'} under [,]; DQ[z]={euler}Q"
        ),
    )
