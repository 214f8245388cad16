"""Truncated graded Fock spaces and exact operator matrices (rank-1 products).

The graded piece at level m of a rank-1-product case has monomial basis
prod z_i^{j_i} * w_i^{N_i(m)} with N_i(m) = k_i m + q_i and 0 <= j_i <= N_i.
All operators used here map basis monomials to single signed monomials, so
they are represented as sparse column maps keyed by (m, j-tuple); commutator
checks stay exact rational throughout.

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

from focklab.jordan import CaseDescriptor, Family
from focklab.linalg import FractionSpan
from focklab.report import CheckReport, Stopwatch, q_strings
from focklab.sl2 import delta_sequence

Key = tuple[int, tuple[int, ...]]  # (m, z-exponents)
Vec = dict[Key, Fraction]


def is_rank1_product(case: CaseDescriptor) -> bool:
    return all(f.family is Family.RANK1 for f in case.factors)


@dataclass(frozen=True)
class Truncation:
    """Blocks m = 0..m_top of O_{q,fin} for a rank-1-product case."""

    case: CaseDescriptor
    q: tuple[Fraction, ...]
    m_top: int

    def __post_init__(self):
        if not is_rank1_product(self.case):
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

    def all_basis(self, m_max: int | None = None) -> list[Key]:
        top = self.m_top if m_max is None else m_max
        out: list[Key] = []
        for m in range(top + 1):
            out.extend(self.block_basis(m))
        return out


class OperatorMatrix:
    """Sparse exact linear map between truncation blocks, stored column-wise."""

    def __init__(self, trunc: Truncation, name: str, columns=None):
        self.trunc = trunc
        self.name = name
        self.columns: dict[Key, list[tuple[Key, Fraction]]] = columns or {}

    def column(self, key: Key) -> list[tuple[Key, Fraction]]:
        return self.columns.get(key, [])

    def apply(self, vec: Vec) -> Vec:
        out: Vec = {}
        for key, coeff in vec.items():
            for tgt, c in self.column(key):
                nv = out.get(tgt, Fraction(0)) + coeff * c
                if nv:
                    out[tgt] = nv
                elif tgt in out:
                    del out[tgt]
        return out

    def entries(self) -> dict[tuple[Key, Key], Fraction]:
        out = {}
        for src, col in self.columns.items():
            for tgt, c in col:
                out[(tgt, src)] = c
        return out


def _build(trunc: Truncation, name: str, column_fn, max_src_m: int | None = None) -> OperatorMatrix:
    cols = {}
    for key in trunc.all_basis(max_src_m):
        col = [(t, c) for t, c in column_fn(key) if c != 0]
        if col:
            cols[key] = col
    return OperatorMatrix(trunc, name, cols)


def op_M(trunc: Truncation) -> OperatorMatrix:
    """Multiplication by prod w_i^{k_i}: O_m -> O_{m+1}, basis to basis."""

    def col(key: Key):
        m, js = key
        if m + 1 > trunc.m_top:
            return []
        return [((m + 1, js), Fraction(1))]

    return _build(trunc, "M", col)


def op_D(trunc: Truncation) -> OperatorMatrix:
    """Q(d/dz) then division by prod w_i^{k_i}: O_m -> O_{m-1}."""
    ks = [f.mult for f in trunc.case.factors]

    def col(key: Key):
        m, js = key
        if m == 0:
            return []
        coeff = Fraction(1)
        out = []
        for j, k in zip(js, ks):
            if j < k:
                return []
            for t in range(k):
                coeff *= j - t
        out.append(((m - 1, tuple(j - k for j, k in zip(js, ks))), coeff))
        return out

    return _build(trunc, "D", col)


def op_rhoH(trunc: Truncation) -> OperatorMatrix:
    """Diagonal: sum j_i - sum (k_i m + q_i) r_i / 2 (r_i = 1 here)."""

    def col(key: Key):
        m, js = key
        weight = Fraction(sum(js)) - Fraction(sum(trunc.degree_bounds(m)), 2)
        return [(key, weight)]

    return _build(trunc, "rhoH", col)


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
        return [(tgt, Fraction(sigma_sign(trunc, key)))]

    return _build(trunc, "sigma", col)


def op_sigma_inverse(trunc: Truncation) -> OperatorMatrix:
    """sigma^{-1} = (block sign of sigma^2) * sigma; sigma^2 = (-1)^{sum N_i}."""
    sig = op_sigma(trunc)

    def col(key: Key):
        m, _ = key
        block_sign = -1 if sum(trunc.degree_bounds(m)) % 2 else 1
        return [(t, c * block_sign) for t, c in sig.column(key)]

    return _build(trunc, "sigma^-1", col)


def op_rhoF(trunc: Truncation, q, kappa: str = "1/A", forced: bool = False) -> OperatorMatrix:
    """rho(F) = M - delta o D, with delta applied in the target block."""
    mm = op_M(trunc)
    dd = op_D(trunc)
    delta = delta_sequence(trunc.case, q, trunc.m_top, kappa, forced).values

    def col(key: Key):
        out = list(mm.column(key))
        for tgt, c in dd.column(key):
            out.append((tgt, -delta[tgt[0]] * c))
        return out

    # no columns for the top block: its M-image would clip (interior validity)
    return _build(trunc, "rhoF", col, max_src_m=trunc.m_top - 1)


def op_rhoE(trunc: Truncation, q, kappa: str = "1/A", forced: bool = False) -> OperatorMatrix:
    """rho(E) = sigma rho(F) sigma^{-1}, computed by honest conjugation."""
    sig = op_sigma(trunc)
    sig_inv = op_sigma_inverse(trunc)
    rho_f = op_rhoF(trunc, q, kappa, forced)

    def col(key: Key):
        v: Vec = {key: Fraction(1)}
        return list(sig.apply(rho_f.apply(sig_inv.apply(v))).items())

    return _build(trunc, "rhoE", col, max_src_m=trunc.m_top - 1)


def dk_action(trunc: Truncation, factor_index: int, generator: str) -> OperatorMatrix:
    """Per-factor sl2 on degree-<=N polynomials: e = d/dz, h = 2zd-N, f = z^2d-Nz.

    With these (spec-pinned) conventions e lowers the z-degree, so the exact
    relations are [e,f] = h, [h,e] = -2e, [h,f] = 2f.
    """
    i = factor_index

    def col(key: Key):
        m, js = key
        n = trunc.degree_bounds(m)[i]
        j = js[i]
        out = []
        if generator == "e":
            if j >= 1:
                out.append(((m, _bump(js, i, -1)), Fraction(j)))
        elif generator == "h":
            out.append((key, Fraction(2 * j - n)))
        elif generator == "f":
            if j + 1 <= n:
                out.append(((m, _bump(js, i, +1)), Fraction(j - n)))
        else:
            raise ValueError(f"unknown generator {generator!r}")
        return out

    return _build(trunc, f"dk.{generator}.{i}", col)


def _bump(js: tuple[int, ...], i: int, d: int) -> tuple[int, ...]:
    out = list(js)
    out[i] += d
    return tuple(out)


# -- checks -------------------------------------------------------------------


def _vec_sub(a: Vec, b: Vec) -> Vec:
    out = dict(a)
    for k, c in b.items():
        nv = out.get(k, Fraction(0)) - c
        if nv:
            out[k] = nv
        elif k in out:
            del out[k]
    return out


def _scale(v: Vec, c: Fraction) -> Vec:
    return {k: x * c for k, x in v.items()} if c else {}


def commutator_check(
    case: CaseDescriptor,
    q,
    m_trunc: int = 6,
    kappa: str | None = None,
    forced: bool = False,
) -> CheckReport:
    """Assert [rhoH,rhoE]=2rhoE, [rhoH,rhoF]=-2rhoF, [rhoE,rhoF]=rhoH exactly.

    Assertions run on basis vectors of interior blocks 1 <= m <= m_trunc - 1;
    operators are built with two extra guard blocks so no image is clipped.
    With kappa=None the check doubles as the calibration oracle: it tries
    "1/A" then "A" and reports which convention closes the algebra.
    """
    sw = Stopwatch()
    q = tuple(Fraction(x) for x in q)
    trunc = Truncation(case, q, m_trunc + 2)
    qs = q_strings(q)
    conventions = [kappa] if kappa else ["1/A", "A"]
    last_fail = ""
    for conv in conventions:
        rho_f = op_rhoF(trunc, q, conv, forced)
        rho_e = op_rhoE(trunc, q, conv, forced)
        rho_h = op_rhoH(trunc)
        ok = True
        for m in range(1, m_trunc):
            for key in trunc.block_basis(m):
                v: Vec = {key: Fraction(1)}
                he = _vec_sub(rho_h.apply(rho_e.apply(v)), rho_e.apply(rho_h.apply(v)))
                if he != _scale(rho_e.apply(v), Fraction(2)):
                    ok, last_fail = False, f"[H,E]!=2E at {key} ({conv})"
                    break
                hf = _vec_sub(rho_h.apply(rho_f.apply(v)), rho_f.apply(rho_h.apply(v)))
                if hf != _scale(rho_f.apply(v), Fraction(-2)):
                    ok, last_fail = False, f"[H,F]!=-2F at {key} ({conv})"
                    break
                ef = _vec_sub(rho_e.apply(rho_f.apply(v)), rho_f.apply(rho_e.apply(v)))
                if ef != rho_h.apply(v):
                    ok, last_fail = False, f"[E,F]!=H at {key} ({conv})"
                    break
            if not ok:
                break
        if ok:
            return CheckReport(
                id=f"fock.comm.{case.label}.{'_'.join(qs)}",
                case_id=case.label, q=qs, status="pass",
                details=f"kappa={conv}; interior blocks 1..{m_trunc - 1}",
                elapsed_ms=sw.ms(),
            )
    return CheckReport(
        id=f"fock.comm.{case.label}.{'_'.join(qs)}",
        case_id=case.label, q=qs, status="fail",
        residual=last_fail, elapsed_ms=sw.ms(),
    )


def sigma_involution_check(case: CaseDescriptor, q, m_trunc: int = 4) -> CheckReport:
    """sigma^2 = +-1 per block with the block sign (-1)^{sum N_i}."""
    sw = Stopwatch()
    q = tuple(Fraction(x) for x in q)
    trunc = Truncation(case, q, m_trunc)
    sig = op_sigma(trunc)
    qs = q_strings(q)
    check_id = f"fock.sigma2.{case.label}.{'_'.join(qs)}"
    for m in range(m_trunc + 1):
        expected = Fraction(-1 if sum(trunc.degree_bounds(m)) % 2 else 1)
        for key in trunc.block_basis(m):
            v = sig.apply(sig.apply({key: Fraction(1)}))
            if v != {key: expected}:
                return CheckReport(
                    id=check_id, case_id=case.label, q=qs,
                    status="fail", residual=str(key), elapsed_ms=sw.ms(),
                )
    return CheckReport(id=check_id, case_id=case.label, q=qs, status="pass",
                       elapsed_ms=sw.ms())


def cyclicity_check(case: CaseDescriptor, q, m_trunc: int = 4) -> CheckReport:
    """Span of the lowest piece under rhoE, rhoF and the dk generators.

    Operators are applied only where exact (source blocks m <= m_trunc - 1);
    asserts the generated span fills every interior block m <= m_trunc - 1.
    """
    sw = Stopwatch()
    q = tuple(Fraction(x) for x in q)
    trunc = Truncation(case, q, m_trunc)
    qs = q_strings(q)
    index: dict[Key, int] = {k: i for i, k in enumerate(trunc.all_basis())}
    gens = [op_rhoE(trunc, q), op_rhoF(trunc, q)]
    for i in range(case.s):
        for g in "efh":
            gens.append(dk_action(trunc, i, g))

    span = FractionSpan()
    frontier: list[Vec] = []
    for key in trunc.block_basis(0):
        v: Vec = {key: Fraction(1)}
        if span.add({index[k]: c for k, c in v.items()}):
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
                if span.add({index[k]: c for k, c in w.items()}):
                    new_frontier.append(w)
        frontier = new_frontier

    # the span must cover every interior block modulo the boundary block:
    # adjoining all top-block units must reach the full truncation dimension
    interior_dim = sum(trunc.block_dim(m) for m in range(m_trunc))
    top_dim = trunc.block_dim(m_trunc)
    for key in trunc.block_basis(m_trunc):
        span.add({index[key]: Fraction(1)})
    got = span.dim - top_dim
    ok = got >= interior_dim
    return CheckReport(
        id=f"fock.cyclic.{case.label}.{'_'.join(qs)}",
        case_id=case.label, q=qs,
        status="pass" if ok else "fail",
        residual=f"{got}/{interior_dim}",
        details=f"interior blocks m<= {m_trunc - 1}",
        elapsed_ms=sw.ms(),
    )


# -- case-(1) monomial norms ----------------------------------------------------


def monomial_norms_exact(q: int, m: int) -> list[Fraction]:
    """Kernel-expansion prediction 1/binom(4m+q, j) for case (1)."""
    n = 4 * m + q
    return [Fraction(1, math.comb(n, j)) for j in range(n + 1)]


def reproducing_check(q: int = 0, m_values=(0, 1, 2, 3), rel_tol: float = 1e-8) -> CheckReport:
    """Case (1): quadrature norms against 1/binom(4m+q, j).

    ||z^j||^2_m = (1/a_m) * integral t^j (1+t)^{-(4m+q)-2} dt with
    a_m the j=0 integral; both sides integrated numerically.
    """
    from scipy.integrate import quad

    sw = Stopwatch()
    worst = 0.0
    for m in m_values:
        n = 4 * m + q

        def weight(t, j):
            return t**j * (1.0 + t) ** (-(n + 2))

        a_m, _ = quad(weight, 0.0, math.inf, args=(0,))
        for j in range(n + 1):
            val, _ = quad(weight, 0.0, math.inf, args=(j,))
            pred = 1.0 / math.comb(n, j)
            rel = abs(val / a_m - pred) / pred
            worst = max(worst, rel)
    ok = worst <= rel_tol
    return CheckReport(
        id="fock.norm.case1", case_id="1", q=[str(q)],
        status="pass" if ok else "fail",
        residual=f"{worst:.3e}", tolerance=f"{rel_tol:.0e}",
        details=f"m in {list(m_values)}",
        elapsed_ms=sw.ms(),
    )
