"""Truncated graded Fock spaces and exact operator matrices (rank-1 products).

The graded piece at level m of a rank-1-product case has monomial basis
prod z_i^{j_i} * w_i^{N_i(m)} with N_i(m) = k_i m + q_i and 0 <= j_i <= N_i.
Each operator is one `OperatorMatrix`: a sparse column map keyed by
(m, j-tuple) and filled lazily, one column the first time a check reads it,
so only the columns a check reaches are ever computed.  M, D, sigma, rho(H)
and the dk generators send a basis monomial to one signed multiple of a
monomial; rho(F) = M - delta D sends it to up to two, and rho(E) is the
conjugation sigma rho(F) sigma^{-1}, composed from those column maps.
Everything stays exact rational: a stored coefficient is an int when it is
integral and a Fraction otherwise (polyalg's rule), so the integral operators
run on int arithmetic.

Operator-level construction is restricted to rank-1-product cases: there the
inversion sigma is an exact signed permutation of each graded block, which is
what makes [rho(E), rho(F)] = rho(H) checkable with zero residual.  Other
families are covered at the Harish-Chandra-symbol level in sl2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Callable

from focklab.jordan import CaseDescriptor, Family
from focklab.linalg import FractionSpan
from focklab.polyalg import Scalar, exact_coeff
from focklab.report import CheckReport, q_strings
from focklab.sl2 import delta_sequence

Key = tuple[int, tuple[int, ...]]  # (m, z-exponents)
Vec = dict[Key, Scalar]
Column = list[tuple[Key, Scalar]]


@dataclass(frozen=True)
class Truncation:
    """Blocks m = 0..m_top of O_{q,fin} for a rank-1-product case."""

    case: CaseDescriptor
    q: tuple[Fraction, ...]
    m_top: int

    def __post_init__(self):
        if any(f.family is not Family.RANK1 for f in self.case.factors):
            raise ValueError("operator construction needs a rank-1-product case")
        if len(self.q) != self.case.s:
            raise ValueError("q length must match the factor count")
        object.__setattr__(self, "_ks", tuple(f.mult for f in self.case.factors))
        object.__setattr__(self, "_qs", tuple(Fraction(x) for x in self.q))
        object.__setattr__(self, "_bounds", {})
        for n in self.degree_bounds(0):
            if n < 0:
                raise ValueError("k_i*m + q_i must be a non-negative integer")

    def degree_bounds(self, m: int) -> tuple[int, ...]:
        got = self._bounds.get(m)
        if got is not None:
            return got
        out = []
        for k, qi in zip(self._ks, self._qs):
            n = k * m + qi
            if n.denominator != 1:
                raise ValueError(f"non-integer w-exponent {n} at m={m}")
            out.append(int(n))
        got = tuple(out)
        self._bounds[m] = got
        return got

    def block_basis(self, m: int) -> list[Key]:
        bounds = self.degree_bounds(m)
        return [(m, js) for js in iproduct(*(range(n + 1) for n in bounds))]

    def block_dim(self, m: int) -> int:
        return math.prod(n + 1 for n in self.degree_bounds(m))


class OperatorMatrix:
    """Sparse exact linear map between truncation blocks, filled column by column.

    `column_fn(key)` gives the image of the basis monomial `key` as
    (target, coefficient) pairs.  `column(key)` calls it on first use, drops
    the zero entries, normalises the rest with `exact_coeff` and keeps the
    result in `columns`.
    """

    def __init__(self, column_fn: Callable[[Key], Column]):
        self._column_fn = column_fn
        self.columns: dict[Key, Column] = {}

    def column(self, key: Key) -> Column:
        col = self.columns.get(key)
        if col is None:
            col = self.columns[key] = [(t, exact_coeff(c))
                                       for t, c in self._column_fn(key) if c != 0]
        return col

    def apply(self, vec: Vec) -> Vec:
        out: Vec = {}
        for key, coeff in vec.items():
            for tgt, c in self.column(key):
                nv = out.get(tgt, 0) + coeff * c
                if nv:
                    out[tgt] = nv
                elif tgt in out:
                    del out[tgt]
        return out


def op_M(trunc: Truncation) -> OperatorMatrix:
    """Multiplication by prod w_i^{k_i}: O_m -> O_{m+1}, basis to basis."""

    def col(key: Key):
        m, js = key
        if m + 1 > trunc.m_top:
            return []
        return [((m + 1, js), 1)]

    return OperatorMatrix(col)


def op_D(trunc: Truncation) -> OperatorMatrix:
    """Q(d/dz) then division by prod w_i^{k_i}: O_m -> O_{m-1}."""
    ks = [f.mult for f in trunc.case.factors]

    def col(key: Key):
        m, js = key
        if m == 0:
            return []
        coeff = 1
        for j, k in zip(js, ks):
            if j < k:
                return []
            for t in range(k):
                coeff *= j - t
        return [((m - 1, tuple(j - k for j, k in zip(js, ks))), coeff)]

    return OperatorMatrix(col)


def op_rhoH(trunc: Truncation) -> OperatorMatrix:
    """Diagonal: sum j_i - sum (k_i m + q_i) r_i / 2 (r_i = 1 here)."""

    def col(key: Key):
        m, js = key
        weight = sum(js) - Fraction(sum(trunc.degree_bounds(m)), 2)
        return [(key, weight)]

    return OperatorMatrix(col)


def sigma_sign(trunc: Truncation, key: Key) -> int:
    m, js = key
    bounds = trunc.degree_bounds(m)
    return -1 if (sum(bounds) + sum(js)) % 2 else 1


def op_sigma(trunc: Truncation) -> OperatorMatrix:
    """psi -> prod (-z_i)^{N_i} psi(-1/z): exact signed basis permutation."""

    def col(key: Key):
        m, js = key
        bounds = trunc.degree_bounds(m)
        tgt = (m, tuple(n - j for n, j in zip(bounds, js)))
        return [(tgt, sigma_sign(trunc, key))]

    return OperatorMatrix(col)


def op_sigma_inverse(trunc: Truncation, sig: OperatorMatrix) -> OperatorMatrix:
    """sigma^{-1} = (block sign of sigma^2) * sigma; sigma^2 = (-1)^{sum N_i}."""

    def col(key: Key):
        m, _ = key
        block_sign = -1 if sum(trunc.degree_bounds(m)) % 2 else 1
        return [(t, c * block_sign) for t, c in sig.column(key)]

    return OperatorMatrix(col)


def op_rhoF(trunc: Truncation, q) -> OperatorMatrix:
    """rho(F) = M - delta o D, with delta applied in the target block.

    The top block has no columns: its M-image would be clipped, so checks
    read rho(F) only below it (interior validity).
    """
    delta = delta_sequence(trunc.case, q, trunc.m_top).values
    return _scaled_rhoF(trunc, 1, delta)


def _scaled_rhoF(trunc: Truncation, scale: int, delta: list[Fraction]) -> OperatorMatrix:
    """scale * rho(F) = scale M - (scale delta) o D, for the deltas of blocks 0..m_top."""
    mm = op_M(trunc)
    dd = op_D(trunc)
    scaled = [exact_coeff(scale * d) for d in delta]

    def col(key: Key):
        if key[0] >= trunc.m_top:
            return []
        return ([(tgt, scale * c) for tgt, c in mm.column(key)]
                + [(tgt, -scaled[tgt[0]] * c) for tgt, c in dd.column(key)])

    return OperatorMatrix(col)


def op_rhoE(trunc: Truncation, rho_f: OperatorMatrix, sig: OperatorMatrix) -> OperatorMatrix:
    """rho(E) = sigma rho(F) sigma^{-1}, computed by honest conjugation.

    `rho_f` and `sig` are the caller's own rho(F) and sigma, so neither is
    built twice.  sigma keeps blocks, so rho(E) inherits rho(F)'s empty top
    block.
    """
    sig_inv = op_sigma_inverse(trunc, sig)

    def col(key: Key):
        return list(sig.apply(rho_f.apply(dict(sig_inv.column(key)))).items())

    return OperatorMatrix(col)


def dk_action(trunc: Truncation, factor_index: int, generator: str) -> OperatorMatrix:
    """Per-factor sl2 on degree-<=N polynomials: e = d/dz, h = 2zd-N, f = z^2d-Nz.

    With these (spec-pinned) conventions e lowers the z-degree, so the exact
    relations are [e,f] = h, [h,e] = -2e, [h,f] = 2f.
    """
    if generator not in ("e", "f", "h"):
        raise ValueError(f"unknown generator {generator!r}")
    i = factor_index

    def col(key: Key):
        m, js = key
        n = trunc.degree_bounds(m)[i]
        j = js[i]
        if generator == "e":
            return [((m, _bump(js, i, -1)), j)] if j >= 1 else []
        if generator == "h":
            return [(key, 2 * j - n)]
        return [((m, _bump(js, i, +1)), j - n)] if j + 1 <= n else []

    return OperatorMatrix(col)


def _bump(js: tuple[int, ...], i: int, d: int) -> tuple[int, ...]:
    out = list(js)
    out[i] += d
    return tuple(out)


# -- checks -------------------------------------------------------------------


def _relation_holds(a: OperatorMatrix, b: OperatorMatrix, c: OperatorMatrix,
                    scale: int, key: Key) -> bool:
    """A(B e_key) - B(A e_key) - scale * C e_key = 0, exactly."""
    out: Vec = {}
    for outer, inner, sign in ((a, b, 1), (b, a, -1)):
        for mid, x in inner.column(key):
            for tgt, y in outer.column(mid):
                out[tgt] = out.get(tgt, 0) + sign * x * y
    for tgt, z in c.column(key):
        out[tgt] = out.get(tgt, 0) - scale * z
    return not any(out.values())


def commutator_check(
    case: CaseDescriptor,
    q,
    m_trunc: int = 6,
    kappa: str | None = None,
    forced: bool = False,
) -> CheckReport:
    """Assert [rhoH,rhoE]=2rhoE, [rhoH,rhoF]=-2rhoF, [rhoE,rhoF]=rhoH exactly.

    Each relation [A,B] = c C is checked as the column identity
    A(B e_k) - B(A e_k) - c C e_k = 0 at every basis vector e_k of the
    interior blocks 1 <= m <= m_trunc - 1, so m_trunc must be at least 2.
    The truncation carries two guard blocks above them, so no image these
    identities read is clipped; only the guard columns they reach are
    computed.  sigma and rho(H) are built once per check, rho(F) and rho(E)
    once per kappa.  With kappa=None the check doubles as the calibration
    oracle: it tries "1/A" then "A" and reports which convention closes the
    algebra.

    The relations run on integers: with L = 2 lcm of the denominators of
    delta(m), m <= m_top, F' = L rho(F) (so E' = sigma F' sigma^{-1} =
    L rho(E)) and H' = 2 rho(H) have integer entries, and the relations
    become [H',E'] = 4E', [H',F'] = -4F', [E',F'] = (L^2/2) H'.  Scaling by
    non-zero constants changes neither which column fails nor the report.
    """
    if m_trunc < 2:
        raise ValueError(f"m_trunc = {m_trunc} leaves no interior block to check")
    q = tuple(Fraction(x) for x in q)
    trunc = Truncation(case, q, m_trunc + 2)
    qs = q_strings(q)
    conventions = [kappa] if kappa else ["1/A", "A"]
    sig = op_sigma(trunc)
    rho_h = op_rhoH(trunc)
    h2 = OperatorMatrix(lambda key: [(t, 2 * c) for t, c in rho_h.column(key)])
    last_fail = ""
    for conv in conventions:
        delta = delta_sequence(case, q, trunc.m_top, conv, forced).values
        big_l = 2 * math.lcm(*(d.denominator for d in delta))
        rho_f = _scaled_rhoF(trunc, big_l, delta)
        rho_e = op_rhoE(trunc, rho_f, sig)
        relations = (("[H,E]!=2E", h2, rho_e, rho_e, 4),
                     ("[H,F]!=-2F", h2, rho_f, rho_f, -4),
                     ("[E,F]!=H", rho_e, rho_f, h2, big_l * big_l // 2))
        failed = next((f"{name} at {key} ({conv})"
                       for m in range(1, m_trunc) for key in trunc.block_basis(m)
                       for name, a, b, c, scale in relations
                       if not _relation_holds(a, b, c, scale, key)), None)
        if failed is None:
            return CheckReport(
                id=f"fock.comm.{case.label}.{'_'.join(qs)}",
                case_id=case.label, q=qs, status="pass",
                details=f"kappa={conv}; interior blocks 1..{m_trunc - 1}",
            )
        last_fail = failed
    return CheckReport(
        id=f"fock.comm.{case.label}.{'_'.join(qs)}",
        case_id=case.label, q=qs, status="fail",
        residual=last_fail,
    )


def sigma_involution_check(case: CaseDescriptor, q, m_trunc: int = 4) -> CheckReport:
    """sigma^2 = +-1 per block with the block sign (-1)^{sum N_i}."""
    q = tuple(Fraction(x) for x in q)
    trunc = Truncation(case, q, m_trunc)
    sig = op_sigma(trunc)
    qs = q_strings(q)
    check_id = f"fock.sigma2.{case.label}.{'_'.join(qs)}"
    for m in range(m_trunc + 1):
        expected = -1 if sum(trunc.degree_bounds(m)) % 2 else 1
        for key in trunc.block_basis(m):
            v = sig.apply(sig.apply({key: 1}))
            if v != {key: expected}:
                return CheckReport(
                    id=check_id, case_id=case.label, q=qs,
                    status="fail", residual=str(key),
                )
    return CheckReport(id=check_id, case_id=case.label, q=qs, status="pass")


def cyclicity_check(case: CaseDescriptor, q, m_trunc: int = 4) -> CheckReport:
    """Span of the lowest piece under rhoE, rhoF and the dk generators.

    Operators are applied only where exact (source blocks m <= m_trunc - 1);
    asserts the generated span fills every interior block m <= m_trunc - 1.
    """
    q = tuple(Fraction(x) for x in q)
    trunc = Truncation(case, q, m_trunc)
    qs = q_strings(q)
    rho_f = op_rhoF(trunc, q)
    gens = [op_rhoE(trunc, rho_f, op_sigma(trunc)), rho_f]
    for i in range(case.s):
        for g in "efh":
            gens.append(dk_action(trunc, i, g))

    span = FractionSpan()
    frontier: list[Vec] = []
    for key in trunc.block_basis(0):
        v: Vec = {key: 1}
        if span.add(v):
            frontier.append(v)
    while frontier:
        new_frontier: list[Vec] = []
        for v in frontier:
            if any(k[0] >= m_trunc for k in v):
                continue  # boundary: image would clip
            for g in gens:
                w = g.apply(v)
                if not w:
                    continue
                if span.add(w):
                    new_frontier.append(w)
        frontier = new_frontier

    # the span must cover every interior block modulo the boundary block:
    # adjoining all top-block units must reach the full truncation dimension
    interior_dim = sum(trunc.block_dim(m) for m in range(m_trunc))
    top_dim = trunc.block_dim(m_trunc)
    for key in trunc.block_basis(m_trunc):
        span.add({key: 1})
    got = span.dim - top_dim
    ok = got >= interior_dim
    return CheckReport(
        id=f"fock.cyclic.{case.label}.{'_'.join(qs)}",
        case_id=case.label, q=qs,
        status="pass" if ok else "fail",
        residual=f"{got}/{interior_dim}",
        details=f"interior blocks m<= {m_trunc - 1}",
    )


# -- case-(1) monomial norms ----------------------------------------------------


def monomial_norms_exact(q: int, m: int) -> list[Fraction]:
    """Kernel-expansion prediction 1/binom(4m+q, j) for case (1)."""
    n = 4 * m + q
    return [Fraction(1, math.comb(n, j)) for j in range(n + 1)]


def beta_integral(j: int, n: int) -> Fraction:
    """int_0^inf t^j (1+t)^{-(n+2)} dt = B(j+1, n+1-j) = j! (n-j)! / (n+1)!, 0 <= j <= n."""
    return Fraction(math.factorial(j) * math.factorial(n - j), math.factorial(n + 1))


def reproducing_check(q: int = 0, m_values=(0, 1, 2, 3), _exponent_shift: int = 0) -> CheckReport:
    """Case (1): exact Beta-integral norms against 1/binom(4m+q, j).

    ||z^j||^2_m = (1/a_m) * integral t^j (1+t)^{-(n+2)} dt with n = 4m + q and
    a_m the j = 0 integral.  Each integral is the Beta value of beta_integral,
    so each ratio is an exact rational, compared with the prediction of
    monomial_norms_exact by ==; the residual counts the mismatches.
    _exponent_shift adds to the weight's exponent, -(n+2+shift): a nonzero
    shift is a wrong weight, which the check must reject.
    """
    mismatches = 0
    for m in m_values:
        n = 4 * m + q + _exponent_shift
        a_m = beta_integral(0, n)
        for j, pred in enumerate(monomial_norms_exact(q, m)):
            mismatches += beta_integral(j, n) / a_m != pred
    return CheckReport(
        id="fock.norm.case1", case_id="1", q=[str(q)],
        status="pass" if mismatches == 0 else "fail",
        residual=str(mismatches), tolerance="exact",
        details=f"m in {list(m_values)}; exact Beta integrals",
    )
