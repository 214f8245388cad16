"""Bernstein polynomials b_i, B_i, B: roots, identity verification, gamma ratios.

The factor-level polynomial is b(a) = a(a + d/2)...(a + (r-1)d/2); raising the
determinant to the k-th power gives B(a) = b(ka)b(ka-1)...b(ka-k+1), and the
case polynomial is the product over factors, of degree 4 with B(0) = 0 and
leading coefficient A = prod k_i^{k_i r_i}.

verify_bernstein_identity checks Delta^k(d/dz) Delta^{k a} = C * B(a) *
Delta^{k a - k} exactly, by full symbolic expansion of both sides for every
family (no sampling, no seed); the coordinate-dependent constant C must be
independent of a.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from focklab.jordan import (
    CaseDescriptor,
    Family,
    SimpleFactorDescriptor,
    determinant_poly,
    dual_determinant_symbol,
)
from focklab.polyalg import apply_diff_op
from focklab.report import CheckReport, q_strings


class GammaPoleError(ArithmeticError):
    """A Gindikin gamma ratio was requested across a pole."""


class DegenerateParameterError(ArithmeticError):
    """A ratio's denominator vanished (degenerate spectral parameters)."""


def pochhammer(a: Fraction, m: int) -> Fraction:
    """Rising factorial a(a+1)...(a+m-1)."""
    a = Fraction(a)
    out = Fraction(1)
    for t in range(m):
        out *= a + t
    return out


class UniPoly:
    """Dense univariate polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def const(c) -> "UniPoly":
        return UniPoly([c])

    @staticmethod
    def linear(b, a) -> "UniPoly":
        """b + a*x."""
        return UniPoly([b, a])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    @property
    def leading(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "UniPoly(" + ", ".join(map(str, self.coeffs)) + ")"

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            [
                (self.coeffs[i] if i < len(self.coeffs) else 0)
                + (other.coeffs[i] if i < len(other.coeffs) else 0)
                for i in range(n)
            ]
        )

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if not self.coeffs or not other.coeffs:
            return UniPoly([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    def scale(self, c) -> "UniPoly":
        return UniPoly([Fraction(c) * x for x in self.coeffs])

    def eval(self, x) -> Fraction:
        x = Fraction(x)
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def compose_affine(self, a, b) -> "UniPoly":
        """p(a*x + b)."""
        arg = UniPoly.linear(b, a)
        out = UniPoly([])
        power = UniPoly.const(1)
        for c in self.coeffs:
            out = out + power.scale(c)
            power = power * arg
        return out

    @staticmethod
    def from_roots(roots, lead=1) -> "UniPoly":
        out = UniPoly.const(lead)
        for r in roots:
            out = out * UniPoly.linear(-Fraction(r), 1)
        return out


def b_poly(factor: SimpleFactorDescriptor) -> UniPoly:
    """b(a) = a (a + d/2) ... (a + (r-1) d/2), degree r."""
    roots = [-Fraction(y * factor.degree, 2) for y in range(factor.rank)]
    return UniPoly.from_roots(roots)


def big_b_poly(factor: SimpleFactorDescriptor) -> UniPoly:
    """B(a) = b(ka) b(ka-1) ... b(ka-k+1), degree k*r."""
    b = b_poly(factor)
    out = UniPoly.const(1)
    for j in range(factor.mult):
        out = out * b.compose_affine(factor.mult, -j)
    return out


def case_b_poly(case: CaseDescriptor) -> UniPoly:
    out = UniPoly.const(1)
    for f in case.factors:
        out = out * big_b_poly(f)
    return out


def factor_b_roots(factor: SimpleFactorDescriptor) -> list[Fraction]:
    """Root multiset of B_i: x/k - y d/(2k) over 0<=x<k, 0<=y<r."""
    k, r, d = factor.mult, factor.rank, factor.degree
    return [
        Fraction(x, k) - Fraction(y * d, 2 * k) for x in range(k) for y in range(r)
    ]


def case_b_roots(case: CaseDescriptor) -> list[Fraction]:
    out: list[Fraction] = []
    for f in case.factors:
        out.extend(factor_b_roots(f))
    return out


def btilde_roots(case: CaseDescriptor) -> list[Fraction]:
    """Roots of Btilde(a) = prod B_i(a - n_i/(k_i r_i))."""
    out: list[Fraction] = []
    for f in case.factors:
        shift = Fraction(f.dim, f.mult * f.rank)
        out.extend(shift + r for r in factor_b_roots(f))
    return out


def roots_factorization_ok(case: CaseDescriptor) -> bool:
    """B equals A * prod (a - root) over the structural root multiset, exactly."""
    B = case_b_poly(case)
    rebuilt = UniPoly.from_roots(case_b_roots(case), lead=case.bernstein_lead)
    return B == rebuilt


# -- Bernstein identity verification ----------------------------------------


def _family_tag(factor: SimpleFactorDescriptor) -> str:
    if factor.family in (Family.SPIN, Family.SYM, Family.FULL, Family.SKEW):
        return f"{factor.family.value}{factor.size}"
    return factor.family.value


def verify_bernstein_identity(
    factor: SimpleFactorDescriptor, alphas=(1, 2, 3)
) -> Iterator[CheckReport]:
    """Check Delta^k(d) Delta^{k a} = C B(a) Delta^{k a - k} with constant C.

    Yields one report per alpha.  Both sides are expanded in full and
    compared term by term.  C is read off one monomial at the smallest alpha,
    must be identical for every alpha tested, and is given in each report's
    details as C=...; an alpha whose constant drifts fails.
    """
    delta = determinant_poly(factor, form="jordan")
    k = factor.mult
    symbol = dual_determinant_symbol(factor) ** k
    B = big_b_poly(factor)
    tag = _family_tag(factor) + (f".k{k}" if k > 1 else "")
    constant: Fraction | None = None

    for alpha in alphas:
        bval = B.eval(alpha)
        failure = ""
        lhs = apply_diff_op(symbol, delta ** (k * alpha))
        rhs = delta ** (k * alpha - k)
        e, c_rhs = next(iter(rhs.terms.items()))
        c_lhs = lhs.terms.get(e)
        if c_lhs is None or bval == 0:
            failure = "LHS lacks a matching monomial"
        else:
            c = Fraction(c_lhs) / (bval * c_rhs)
            if constant is None:
                constant = c
            if lhs != rhs.scale(c * bval):
                failure = "nonzero residual"
            elif c != constant:
                failure = f"constant drift {c} != {constant}"
        yield CheckReport(
            id=f"bernstein.identity.{tag}.{alpha}",
            status="fail" if failure else "pass",
            residual=failure or "0",
            details=f"C={constant}",
        )


# -- a_m ratios ---------------------------------------------------------------


def gindikin_ratio(factor: SimpleFactorDescriptor, lam, shift: int) -> Fraction:
    """Gamma_Omega(lam + shift) / Gamma_Omega(lam), an exact rational.

    Equals prod_{j=1}^{r} (lam - (j-1)d/2)_shift; the transcendental prefactor
    of the Gindikin gamma function cancels in every ratio the engine consumes.
    """
    lam = Fraction(lam)
    out = Fraction(1)
    for j in range(factor.rank):
        x = lam - Fraction((j) * factor.degree, 2)
        if x <= 0 and x.denominator == 1:
            raise GammaPoleError(f"ratio at pole: lam={lam}, j={j + 1}")
        out *= pochhammer(x, shift)
    return out


def a_ratio(case: CaseDescriptor, q, m: int) -> Fraction:
    """a_{m+1}/a_m from the Bernstein-polynomial form of the norm constants."""
    if len(q) != case.s:
        raise ValueError("q length must match the factor count")
    num = Fraction(1)
    den = Fraction(1)
    for f, qi in zip(case.factors, q):
        B = big_b_poly(f)
        nr = Fraction(f.dim, f.mult * f.rank)
        num *= B.eval(-m - Fraction(qi) / f.mult - nr)
        d = B.eval(-m - Fraction(qi) / f.mult - 2 * nr)
        if d == 0:
            raise DegenerateParameterError("pole in a-ratio denominator")
        den *= d
    return num / den


def a_ratio_gindikin(case: CaseDescriptor, q, m: int) -> Fraction:
    """The same ratio through Gindikin gamma ratios (independent oracle)."""
    if len(q) != case.s:
        raise ValueError("q length must match the factor count")
    out = Fraction(1)
    for f, qi in zip(case.factors, q):
        km = f.mult * m + Fraction(qi)
        nr = Fraction(f.dim, f.rank)
        out *= gindikin_ratio(f, km + nr, f.mult) / gindikin_ratio(
            f, km + 2 * nr, f.mult
        )
    return out


def a_ratio_report(case: CaseDescriptor, q, m_max: int = 10) -> CheckReport:
    """a_ratio against a_ratio_gindikin at m = 0..m_max, which proves them equal for every m.

    Both are ratios of polynomials in m of degree deg = deg B = sum k_i r_i
    (each factor's B_i, and its r_i Pochhammer symbols of length k_i,
    contribute k_i r_i; see big_b_poly).
    Cross-multiplied, their difference is a polynomial of degree at most
    2 deg, so m_max + 1 > 2 deg agreeing points make it vanish identically:
    the identity holds for every m off the poles.
    """
    deg = sum(f.mult * f.rank for f in case.factors)
    if m_max + 1 <= 2 * deg:
        raise ValueError(f"m_max = {m_max} gives too few points for degree {2 * deg}")
    for m in range(m_max + 1):
        lhs = a_ratio(case, q, m)
        rhs = a_ratio_gindikin(case, q, m)
        if lhs != rhs:
            return CheckReport(
                id=f"bernstein.aratio.{case.label}.{'_'.join(q_strings(q))}",
                case_id=case.label, q=q_strings(q), status="fail",
                residual=str(lhs - rhs), details=f"m={m}",
            )
    return CheckReport(
        id=f"bernstein.aratio.{case.label}.{'_'.join(q_strings(q))}",
        case_id=case.label, q=q_strings(q), status="pass",
        details=f"all m off the poles: degree <= {2 * deg} difference, exact at m <= {m_max}",
    )
