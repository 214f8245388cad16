"""Bernstein polynomials b_i, B_i, B: roots, identity verification, gamma ratios.

The factor-level polynomial is b(a) = a(a + d/2)...(a + (r-1)d/2); raising the
determinant to the k-th power gives B(a) = b(ka)b(ka-1)...b(ka-k+1), and the
case polynomial is the product over factors, of degree 4 with B(0) = 0 and
leading coefficient A = prod k_i^{k_i r_i}.  All of them are MultiPolys in
the one variable a.

verify_bernstein_identity checks Delta^k(d/dz) Delta^{k a} = C * B(a) *
Delta^{k a - k} exactly, by full symbolic expansion of both sides for every
family (no sampling, no seed); the coordinate-dependent constant C must be
independent of a.

The ratio a_{m+1}/a_m of the norm constants has a Bernstein form and a
Gindikin gamma-ratio form.  Both are built as (num, den) polynomials in a
formal m, and a_ratio_report compares them cross-multiplied, so the identity
is proved for every m at once.
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
from focklab.polyalg import MultiPoly, VarSet, apply_diff_op, product, rising
from focklab.report import CheckReport, check_report, terms_failure
from focklab.sl2 import validate_q

A_RING = VarSet.flat(("a",))  # the Bernstein variable a
M_RING = VarSet.flat(("m",))  # the formal degree m of the graded pieces


def b_poly(factor: SimpleFactorDescriptor, x: MultiPoly | None = None) -> MultiPoly:
    """b(x) = x (x + d/2) ... (x + (r-1) d/2), degree r; x defaults to the variable a."""
    x = MultiPoly.variable(A_RING, 0) if x is None else x
    return product(x.vars, (x + MultiPoly.constant(x.vars, Fraction(y * factor.degree, 2))
                            for y in range(factor.rank)))


def big_b_poly(factor: SimpleFactorDescriptor, x: MultiPoly | None = None) -> MultiPoly:
    """B(x) = b(kx) b(kx-1) ... b(kx-k+1), degree k*r; x defaults to the variable a."""
    x = MultiPoly.variable(A_RING, 0) if x is None else x
    return product(x.vars, (b_poly(factor, x.scale(factor.mult) - MultiPoly.constant(x.vars, j))
                            for j in range(factor.mult)))


def case_b_poly(case: CaseDescriptor) -> MultiPoly:
    return product(A_RING, (big_b_poly(f) for f in case.factors))


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
        out.extend(f.eta0_shift + r for r in factor_b_roots(f))
    return out


def roots_factorization_ok(case: CaseDescriptor) -> bool:
    """B equals A * prod (a - root) over the structural root multiset, exactly."""
    a = MultiPoly.variable(A_RING, 0)
    rebuilt = product(A_RING, (a - MultiPoly.constant(A_RING, root) for root in case_b_roots(case)))
    return case_b_poly(case) == rebuilt.scale(case.bernstein_lead)


# -- Bernstein identity verification ----------------------------------------


def identity_stem(factor: SimpleFactorDescriptor) -> str:
    """The id stem of factor's identity reports: bernstein.identity.<family>[<size>][.k<k>]."""
    sized = factor.family in (Family.SPIN, Family.SYM, Family.FULL, Family.SKEW)
    return (f"bernstein.identity.{factor.family.value}{factor.size if sized else ''}"
            + (f".k{factor.mult}" if factor.mult > 1 else ""))


def verify_bernstein_identity(
    factor: SimpleFactorDescriptor, alphas=(1, 2, 3)
) -> Iterator[CheckReport]:
    """Check Delta^k(d) Delta^{k a} = C B(a) Delta^{k a - k} with constant C.

    Yields one report per alpha.  Both sides are expanded in full and
    compared term by term.  C is read off one monomial at the smallest alpha,
    must be identical for every alpha tested, and is given in each report's
    details as C=...; an alpha whose constant drifts fails.
    """
    delta = determinant_poly(factor)
    k = factor.mult
    symbol = dual_determinant_symbol(factor) ** k
    B = big_b_poly(factor)
    stem = identity_stem(factor)
    constant: Fraction | None = None
    # the right side's Delta^{k a - k} is the previous alpha's target power
    target, previous = None, None

    for alpha in alphas:
        bval = B.eval((alpha,))
        failure = ""
        rhs = target if previous == alpha - 1 else delta ** (k * alpha - k)
        target, previous = delta ** (k * alpha), alpha
        lhs = apply_diff_op(symbol, target)
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
        yield check_report(f"{stem}.{alpha}", failure=failure, details=f"C={constant}")


# -- a_m ratios ---------------------------------------------------------------


def gindikin_ratio_poly(factor: SimpleFactorDescriptor, lam: MultiPoly) -> MultiPoly:
    """Gamma_Omega(lam + k) / Gamma_Omega(lam) = prod_{j<r} (lam - j d/2)_k for a polynomial lam.

    The transcendental prefactor of the Gindikin gamma function cancels in
    every ratio the engine consumes.
    """
    return product(lam.vars, (
        rising(lam - MultiPoly.constant(lam.vars, Fraction(j * factor.degree, 2)), factor.mult)
        for j in range(factor.rank)))


def a_ratio_polys(case: CaseDescriptor, q) -> tuple[MultiPoly, MultiPoly]:
    """a_{m+1}/a_m as (num, den) polynomials in m, from the Bernstein form of the norm constants.

    num = prod B_i(-m - q_i/k_i - n_i/(k_i r_i)), den the same with 2 n_i/(k_i r_i).
    """
    q = validate_q(case, q)
    m = MultiPoly.variable(M_RING, 0)
    xs = [(f, MultiPoly.constant(M_RING, -f.eta0(qi)) - m) for f, qi in zip(case.factors, q)]
    return (product(M_RING, (big_b_poly(f, x) for f, x in xs)),
            product(M_RING, (big_b_poly(f, x - MultiPoly.constant(M_RING, f.eta0_shift))
                             for f, x in xs)))


def a_ratio_gindikin_polys(case: CaseDescriptor, q) -> tuple[MultiPoly, MultiPoly]:
    """The same ratio through Gindikin gamma ratios (independent oracle).

    num = prod Gamma_Omega(lam_i + k_i) / Gamma_Omega(lam_i) at lam_i = k_i m + q_i + n_i/r_i,
    den the same at lam_i + n_i/r_i.
    """
    q = validate_q(case, q)
    m = MultiPoly.variable(M_RING, 0)
    lams = [(f, m.scale(f.mult) + MultiPoly.constant(M_RING, qi + f.n_over_r))
            for f, qi in zip(case.factors, q)]
    return (product(M_RING, (gindikin_ratio_poly(f, lam) for f, lam in lams)),
            product(M_RING, (gindikin_ratio_poly(f, lam + MultiPoly.constant(M_RING, f.n_over_r))
                             for f, lam in lams)))


def a_ratio_report(case: CaseDescriptor, q) -> CheckReport:
    """a_ratio_polys against a_ratio_gindikin_polys as rational functions of a formal m.

    Cross-multiplied, the two (num, den) pairs must be the same polynomial,
    so the ratios agree at every m off the poles.
    """
    b_num, b_den = a_ratio_polys(case, q)
    g_num, g_den = a_ratio_gindikin_polys(case, q)
    return check_report(
        "bernstein.aratio", case, q, failure=terms_failure(b_num * g_den - g_num * b_den),
        details=f"all m: degree {b_num.total_degree()} ratios in m, cross-multiplied")
