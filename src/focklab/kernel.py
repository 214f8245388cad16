"""Spectral parameters, kernel coefficient series, and the Meijer-G layer.

Case discrimination and root bookkeeping are exact (Fractions throughout):
eta0 comes from the admissibility condition, the remaining roots of the
degree-4 Bernstein polynomial B give (alpha2, alpha3) or the primed triple,
and the shifted polynomial Btilde supplies the four b-roots feeding the
Meijer parameters alpha = (eta0-1, eta0), beta_j = eta0 + b_j - 1.

The G-function G^{4,0}_{2,4} (always reducible to G^{3,0}_{1,3}: one beta
equals one alpha in every catalog row) is evaluated by direct Mellin-Barnes
quadrature along two vertical contours strictly right of all numerator-Gamma
poles, each integrated by the trapezoidal rule.  The rule converges
exponentially for this analytic, super-exponentially decaying integrand; its
step h comes from the exact Poisson aliasing identity and is sized so the
aliasing error stays below the evaluator's own roundoff floor (see
MeijerEvaluator).  The Gamma products on the nodes are tabulated once per
contour: a vectorized float log-Gamma (recurrence shift, then Stirling's
series with its remainder bound, DLMF 5.11) gives each node's value and
relative error bound, and mpmath at elevated working precision recomputes the
leading nodes, where the weights matter, until the float tail's summed error
bound is below a tenth of the roundoff floor.  The nodes are uniform, so
each G(u) evaluation is a polynomial in one phase on the unit circle, summed
by baby-step/giant-step with about 2 sqrt(n) exponentials for n nodes, for one
u or a chunk of a grid at a time; repeated beta parameters cost nothing
because the integrand stays smooth on the contour.  The parameters are real,
so the integrand on t < 0 is the conjugate of that on t > 0 and only the
nodes t >= 0 are tabulated.  Each table is keyed on the parameters relative
to its contour (b - min b, a - min b and the contour offset c + min b): by
the shift identity u^sigma G(u; a, b) = G(u; a + sigma, b + sigma)
(DLMF 16.19.2), parameter sets that differ by a common shift, such as q and
q + 4 in case (1), share their tables.  Near u = 0, where the contour sum
loses accuracy, G comes from its residue series (DLMF 16.17.2) for parameter
sets without log terms, and raises ValueError for the others.

The moments int G(u) u^m du are taken by the trapezoidal rule in log u
with a certified error bound (MeijerEvaluator.moment), and the case-(1)
Bergman cross-check reduces to them through exact Beta integrals.

The exact c_m series is built by its three-root recurrence and checked
against the closed Pochhammer form at every m (see c_sequence).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterator

from focklab.bernstein import (
    UniPoly,
    a_ratio,
    big_b_poly,
    btilde_roots,
    case_b_poly,
    case_b_roots,
    pochhammer,
)
from focklab.fock import beta_integral
from focklab.jordan import CaseDescriptor, build_case
from focklab.report import CheckReport, q_strings
from focklab.sl2 import eta0_of, forced_eta0


class DegenerateSeriesError(ArithmeticError):
    """A Pochhammer denominator parameter is a non-positive integer."""


# -- spectral parameters -------------------------------------------------------


@dataclass(frozen=True)
class SpectralParams:
    case_id: str
    q: tuple[Fraction, ...]
    eta0: Fraction
    kind: str  # "case1" (B(1-eta0) = 0) or "case2"
    roots: tuple[Fraction, ...]  # (alpha2, alpha3) or (a1', a2', a3')
    b_roots: tuple[Fraction, ...]  # roots of Btilde, descending

    @property
    def alphas_prime(self) -> tuple[Fraction, Fraction, Fraction]:
        """Primed triple; in case 1 it is (1 - eta0, alpha2, alpha3)."""
        if self.kind == "case2":
            return self.roots  # type: ignore[return-value]
        return (1 - self.eta0,) + self.roots  # type: ignore[return-value]


def _remove_once(roots: list[Fraction], value: Fraction) -> bool:
    if value in roots:
        roots.remove(value)
        return True
    return False


def _split_roots(case: CaseDescriptor, eta0: Fraction) -> tuple[str, tuple[Fraction, ...]]:
    """(kind, remaining roots of B, descending) once 0 and, if a root, 1 - eta0 go."""
    roots = sorted(case_b_roots(case), reverse=True)
    if not _remove_once(roots, Fraction(0)):
        raise AssertionError("B(0) = 0 must hold")
    kind = "case1" if _remove_once(roots, 1 - eta0) else "case2"
    return kind, tuple(roots)


def spectral_params(case: CaseDescriptor, q) -> SpectralParams:
    q = tuple(Fraction(x) for x in q)
    eta0 = eta0_of(case, q)
    kind, roots = _split_roots(case, eta0)
    b = tuple(sorted(btilde_roots(case), reverse=True))
    return SpectralParams(case.label, q, eta0, kind, roots, b)


# -- kernel coefficient series ---------------------------------------------------


@dataclass
class KernelSeries:
    case_id: str
    q: tuple[Fraction, ...]
    kind: str  # "OneF2" or "TwoF3"
    coeffs: list[Fraction] = field(default_factory=list)


def c_closed(sp: SpectralParams, m: int) -> Fraction:
    """Closed-form c_m = (eta0+1)_m (1)_m / (prod (eta0+a_j')_m m!)."""
    num = pochhammer(sp.eta0 + 1, m) * pochhammer(Fraction(1), m)
    den = Fraction(math.factorial(m))
    for a in sp.alphas_prime:
        den *= pochhammer(sp.eta0 + a, m)
    if den == 0:
        raise DegenerateSeriesError(f"degenerate Pochhammer at m={m}")
    return num / den


def c_ratio(sp: SpectralParams, m: int) -> Fraction:
    num = m + sp.eta0 + 1
    den = Fraction(1)
    for a in sp.alphas_prime:
        den *= m + sp.eta0 + a
    if den == 0:
        raise DegenerateSeriesError(f"recurrence pole at m={m}")
    return Fraction(num) / den


def c_sequence(case: CaseDescriptor, q, m_max: int = 50) -> KernelSeries:
    """Kernel coefficients, closed form asserted equal to the recurrence.

    The closed form of c_closed is carried along as running integer
    Pochhammer products instead of being rebuilt for every m: each parameter
    is n/L over the common denominator L, so (n/L)_m = prod_k (n + k L) / L^m
    and c_m = N_m / D_m with N_m, D_m integers.  Every m <= m_max is checked
    exactly by cross-multiplication, N_m den(c_m) == D_m num(c_m).
    """
    sp = spectral_params(case, q)
    lcm = math.lcm(sp.eta0.denominator,
                   *(a.denominator for a in sp.alphas_prime))
    n_top = int((sp.eta0 + 1) * lcm)
    n_bottom = [int((sp.eta0 + a) * lcm) for a in sp.alphas_prime]
    coeffs = [Fraction(1)]
    big_n, big_d = 1, 1  # closed form c_m = big_n / big_d; c_0 = 1 on both sides
    for m in range(m_max):
        coeffs.append(coeffs[-1] * c_ratio(sp, m))
        # (eta0+1)_m (1)_m over prod (eta0+a_j')_m m!: one more factor of each,
        # with the L^-1 of each Pochhammer step collected as one net factor L
        big_n *= (n_top + m * lcm) * (lcm + m * lcm) * lcm
        for n in n_bottom:
            big_d *= n + m * lcm
        big_d *= m + 1
        if big_d == 0:
            raise DegenerateSeriesError(f"degenerate Pochhammer at m={m + 1}")
        c = coeffs[-1]
        if big_n * c.denominator != big_d * c.numerator:
            raise AssertionError(f"closed form disagrees with recurrence at m={m + 1}")
    kind = "OneF2" if sp.kind == "case1" else "TwoF3"
    return KernelSeries(case.label, sp.q, kind, coeffs)


def kernel_eval(case: CaseDescriptor, q, u, terms: int | None = None, tol: float = 1e-15):
    """Sum of c_m u^m with a rigorous ratio-majorant tail bound; complex u ok.

    The step ratio |c_{m+1} u / c_m| = |u| (m + eta0 + 1) / prod |m + eta0 + a_j'|
    is majorized, for m past every pole, by rho(m) = |u| (m + a) / (m - c)^3
    with a = eta0 + 1 and c the largest parameter offset; rho is decreasing in
    m, so once rho(m) < 1/2 the tail is geometrically bounded by
    |term_m| rho / (1 - rho).
    """
    sp = spectral_params(case, q)
    a = float(sp.eta0 + 1)
    c_off = max(
        [0.0]
        + [float(-(sp.eta0 + aj)) for aj in sp.alphas_prime]
        + [float(-(sp.eta0 + 1))]
    )
    total = 0.0 + 0.0j if isinstance(u, complex) else 0.0
    term = 1.0 + 0.0j if isinstance(u, complex) else 1.0
    abs_u = abs(u)
    m = 0
    budget = terms if terms is not None else 500
    while True:
        total += term
        nxt = term * (complex(c_ratio(sp, m)) * u if isinstance(u, complex)
                      else float(c_ratio(sp, m)) * u)
        if m > c_off + 1:
            rho = abs_u * (m + abs(a)) / (m - c_off) ** 3
            if rho < 0.5 and abs(term) * rho / (1 - rho) <= tol * max(abs(total), 1.0):
                break
        term = nxt
        m += 1
        if m > budget:
            raise ArithmeticError("series term budget exhausted before tail bound met")
    return total


# -- root tables ----------------------------------------------------------------


def _f(a, b=1) -> Fraction:
    return Fraction(a, b)


def _case1_rows():
    """(case builder, q1 pin, expected (eta0, 1-eta0, {alpha2, alpha3})).

    Row (10)'s alpha2 is -d1/2 (the printed -2 d1/2 contradicts B's exact
    factorization and the final Meijer table's beta2 = q1 + 3 d1/2 + 1).
    """
    rows = []
    rows.append((build_case(1), 0, lambda c: (_f(1, 4), _f(3, 4), {_f(1, 2), _f(1, 4)})))
    for p in (2, 3, 4, 5):
        rows.append(
            (build_case(2, p=p), 0,
             lambda c, p=p: (_f(p, 4), 1 - _f(p, 4), {_f(1, 2), _f(1, 2) - _f(p, 4)}))
        )
    rows.append((build_case(3), 0, lambda c: (_f(1, 2), _f(1, 2), {_f(0), _f(1, 2)})))
    rows.append((build_case(4), 0, lambda c: (_f(1, 2), _f(1, 2), {_f(0)})))
    rows.append((build_case(5), 0, lambda c: (_f(1), _f(0), {_f(0)})))
    for p in (3, 5):
        rows.append(
            (build_case(6, p=p), 0,
             lambda c, p=p: (_f(p, 2), 1 - _f(p, 2), {_f(1, 2), _f(0)}))
        )
    for p in (2, 4):
        rows.append(
            (build_case(7, p=p), 0,
             lambda c, p=p: (_f(p, 2), 1 - _f(p, 2), {_f(0)}))
        )
    for p1, p2 in ((2, 2), (4, 2), (3, 3)):
        rows.append(
            (build_case(8, p1=p1, p2=p2), 0,
             lambda c, p1=p1, p2=p2: (_f(p1, 2), 1 - _f(p1, 2), {_f(0), 1 - _f(p2, 2)}))
        )
    for variant, d in (("a", 1), ("b", 2), ("c", 4)):
        rows.append(
            (build_case(9, variant=variant), 0,
             lambda c, d=d: (1 + _f(3 * d, 2), -_f(3 * d, 2), {-_f(d), -_f(d, 2)}))
        )
    for variant, d in (("a", 1), ("b", 2), ("c", 4), ("d", 8)):
        rows.append(
            (build_case(10, variant=variant), 0,
             lambda c, d=d: (1 + _f(d), -_f(d), {-_f(d, 2), _f(0)}))
        )
    return rows


def _case2_rows():
    """(case builder, q1 samples, expected (eta0(q1), {a1', a2', a3'})).

    Row (10) carries two corrections: the printed eta0/alpha1' columns are
    transposed, and alpha2' is -d1/2 (same factorization argument as case 1).
    """
    rows = []
    rows.append(
        (build_case(1), (4, 8),
         lambda c, q1: (_f(q1, 4) + _f(1, 4), [_f(3, 4), _f(1, 2), _f(1, 4)]))
    )
    for p in (2, 3, 4):
        rows.append(
            (build_case(2, p=p), (2, 4),
             lambda c, q1, p=p: (_f(q1, 2) + _f(p, 4),
                                 [_f(1, 2) - _f(p, 4), _f(1, 2), 1 - _f(p, 4)]))
        )
    rows.append(
        (build_case(3), (2, 4),
         lambda c, q1: (_f(q1, 2) + _f(1, 2), [_f(1, 2), _f(0), _f(1, 2)]))
    )
    rows.append(
        (build_case(4), (2, 4),
         lambda c, q1: (_f(q1, 2) + _f(1, 2), [_f(0), _f(1, 2), _f(0)]))
    )
    rows.append((build_case(5), (1, 2), lambda c, q1: (_f(q1) + 1, [_f(0)] * 3)))
    for p in (3, 5):
        rows.append(
            (build_case(6, p=p), (1, 2),
             lambda c, q1, p=p: (_f(q1) + _f(p, 2), [_f(0), _f(1, 2), 1 - _f(p, 2)]))
        )
    for p in (2, 4):
        rows.append(
            (build_case(7, p=p), (1, 2),
             lambda c, q1, p=p: (_f(q1) + _f(p, 2), [1 - _f(p, 2), _f(0), _f(0)]))
        )
    for p1, p2 in ((2, 2), (4, 2)):
        rows.append(
            (build_case(8, p1=p1, p2=p2), (1, 2),
             lambda c, q1, p1=p1, p2=p2: (_f(q1) + _f(p1, 2),
                                          [1 - _f(p1, 2), _f(0), 1 - _f(p2, 2)]))
        )
    for variant, d in (("a", 1), ("b", 2), ("c", 4)):
        rows.append(
            (build_case(9, variant=variant), (1, 2),
             lambda c, q1, d=d: (_f(q1) + 1 + _f(3 * d, 2),
                                 [-_f(3 * d, 2), -_f(d), -_f(d, 2)]))
        )
    for variant, d in (("a", 1), ("b", 2), ("c", 4), ("d", 8)):
        rows.append(
            (build_case(10, variant=variant), (1, 2),
             lambda c, q1, d=d: (_f(q1) + 1 + _f(d), [-_f(d), -_f(d, 2), _f(0)]))
        )
    return rows


def roots_table_suite() -> Iterator[CheckReport]:
    """Both root tables, every row, exact comparison.

    A row pins q1 alone, and root extraction only needs eta0, so the
    half-integer q bookkeeping of case (4) never enters here.
    """
    for case, q1, expected in _case1_rows():
        eta0 = forced_eta0(case, q1)
        kind, rest = _split_roots(case, eta0)
        exp_eta0, exp_one_minus, exp_set = expected(case)
        ok = (
            kind == "case1"
            and eta0 == exp_eta0
            and 1 - eta0 == exp_one_minus
            and set(rest) == exp_set
        )
        yield CheckReport(
            id=f"kernel.table1.{case.label}"
            + (f".p{case.params}" if case.params else ""),
            case_id=case.label, q=[str(q1)],
            status="pass" if ok else "fail",
            residual="0" if ok else f"got eta0={eta0} roots={rest} kind={kind}",
            details=f"expected eta0={exp_eta0} roots={sorted(exp_set)}",
        )
    for case, q1_samples, expected in _case2_rows():
        for q1 in q1_samples:
            eta0 = forced_eta0(case, q1)
            kind, rest = _split_roots(case, eta0)
            exp_eta0, exp_list = expected(case, q1)
            ok = (
                kind == "case2"
                and eta0 == exp_eta0
                and sorted(rest) == sorted(exp_list)
            )
            yield CheckReport(
                id=f"kernel.table2.{case.label}.q{q1}"
                + (f".p{case.params}" if case.params else ""),
                case_id=case.label, q=[str(q1)],
                status="pass" if ok else "fail",
                residual="0" if ok else f"got eta0={eta0} roots={rest} kind={kind}",
                details=f"expected eta0={exp_eta0} roots={sorted(exp_list)}",
            )


# -- Meijer parameters -----------------------------------------------------------


@dataclass(frozen=True)
class MeijerParams:
    alpha: tuple[Fraction, Fraction]
    beta: tuple[Fraction, Fraction, Fraction, Fraction]

    @property
    def reduced(self) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        """Cancel one beta against alpha2 = eta0: G^{4,0}_{2,4} -> G^{3,0}_{1,3}."""
        betas = list(self.beta)
        if self.alpha[1] not in betas:
            raise AssertionError("expected alpha/beta cancellation is missing")
        betas.remove(self.alpha[1])
        return (self.alpha[0],), tuple(betas)


def _meijer_params_at(case: CaseDescriptor, eta0: Fraction) -> MeijerParams:
    """alpha = (eta0 - 1, eta0), beta_j = eta0 + b_j - 1 over the roots b_j of Btilde."""
    beta = tuple(sorted((eta0 + bj - 1 for bj in btilde_roots(case)), reverse=True))
    return MeijerParams((eta0 - 1, eta0), beta)  # type: ignore[arg-type]


def meijer_params(case: CaseDescriptor, q) -> MeijerParams:
    return _meijer_params_at(case, eta0_of(case, q))


def _meijer_rows():
    """Final-table rows: (case, q1 samples, expected (alpha1, alpha2, betas))."""
    rows = []
    rows.append(
        (build_case(1), (0, 4),
         lambda q: (_f(q, 4) - _f(3, 4), _f(q, 4) + _f(1, 4),
                    [_f(q, 4) - _f(1, 2), _f(q, 4) - _f(1, 4), _f(q, 4), _f(q, 4) + _f(1, 4)]))
    )
    for p in (2, 3, 4):
        rows.append(
            (build_case(2, p=p), (0, 2),
             lambda q, p=p: (_f(q, 2) + _f(p, 4) - 1, _f(q, 2) + _f(p, 4),
                             [_f(q, 2) + _f(p, 2) - 1, _f(q, 2) + _f(p, 4) - _f(1, 2),
                              _f(q, 2) + _f(p, 2) - _f(1, 2), _f(q, 2) + _f(p, 4)]))
        )
    rows.append(
        (build_case(3), (0, 2),
         lambda q: (_f(q, 2) - _f(1, 2), _f(q, 2) + _f(1, 2),
                    [_f(q, 2), _f(q, 2), _f(q, 2) + _f(1, 2), _f(q, 2) + _f(1, 2)]))
    )
    rows.append(
        (build_case(4), (0, 2),
         lambda q: (_f(q, 2) - _f(1, 2), _f(q, 2) + _f(1, 2),
                    [_f(q, 2), _f(q, 2) + _f(1, 2), _f(q, 2) + _f(1, 2), _f(q, 2) + _f(1, 2)]))
    )
    rows.append(
        (build_case(5), (0, 3),
         lambda q: (_f(q), _f(q) + 1, [_f(q) + 1] * 4))
    )
    for p in (3, 5):
        rows.append(
            (build_case(6, p=p), (0, 1),
             lambda q, p=p: (_f(q) + _f(p, 2) - 1, _f(q) + _f(p, 2),
                             [_f(q) + p - 1, _f(q) + _f(p, 2),
                              _f(q) + _f(p, 2) - _f(1, 2), _f(q) + _f(p, 2)]))
        )
    for p in (2, 4):
        rows.append(
            (build_case(7, p=p), (0, 1),
             lambda q, p=p: (_f(q) + _f(p, 2) - 1, _f(q) + _f(p, 2),
                             [_f(q) + p - 1] + [_f(q) + _f(p, 2)] * 3))
        )
    for p1, p2 in ((2, 2), (4, 2)):
        rows.append(
            (build_case(8, p1=p1, p2=p2), (0, 1),
             lambda q, p1=p1, p2=p2: (_f(q) + _f(p1, 2) - 1, _f(q) + _f(p1, 2),
                                      [_f(q) + p1 - 1, _f(q) + _f(p1, 2),
                                       _f(q) + _f(p1 + p2, 2) - 1, _f(q) + _f(p1, 2)]))
        )
    for variant, d in (("a", 1), ("b", 2), ("c", 4)):
        rows.append(
            (build_case(9, variant=variant), (0, 1),
             lambda q, d=d: (_f(q) + _f(3 * d, 2), _f(q) + _f(3 * d, 2) + 1,
                             [_f(q) + 3 * d + 1, _f(q) + _f(5 * d, 2) + 1,
                              _f(q) + 2 * d + 1, _f(q) + _f(3 * d, 2) + 1]))
        )
    for variant, d in (("a", 1), ("b", 2), ("c", 4), ("d", 8)):
        rows.append(
            (build_case(10, variant=variant), (0, 1),
             lambda q, d=d: (_f(q) + d, _f(q) + d + 1,
                             [_f(q) + 2 * d + 1, _f(q) + _f(3 * d, 2) + 1,
                              _f(q) + d + 1, _f(q) + d + 1]))
        )
    return rows


def meijer_param_table_suite() -> Iterator[CheckReport]:
    for case, q1_samples, expected in _meijer_rows():
        for q1 in q1_samples:
            mp = _meijer_params_at(case, forced_eta0(case, q1))
            a1, a2, betas = expected(q1)
            ok = (
                mp.alpha == (a1, a2)
                and sorted(mp.beta) == sorted(betas)
            )
            try:
                mp.reduced
                cancel = True
            except AssertionError:
                cancel = False
            yield CheckReport(
                id=f"meijer.params.{case.label}.q{q1}",
                case_id=case.label, q=[str(q1)],
                status="pass" if (ok and cancel) else "fail",
                residual="0" if ok else f"got {mp.alpha} {mp.beta}",
                details=f"expected alpha=({a1},{a2}) beta={sorted(betas)}; "
                f"cancellation={'yes' if cancel else 'NO'}",
            )


def q0_reduction_check(case: CaseDescriptor) -> CheckReport:
    """For all-zero q: Btilde(a) = B(a - eta0) as an exact polynomial identity."""
    q = tuple(Fraction(0) for _ in case.factors)
    eta0 = eta0_of(case, q)  # raises if q=0 is inadmissible for this case
    btilde = UniPoly.const(1)
    for f in case.factors:
        shift = Fraction(f.dim, f.mult * f.rank)
        btilde = btilde * big_b_poly(f).compose_affine(1, -shift)
    shifted = case_b_poly(case).compose_affine(1, -eta0)
    ok = btilde == shifted
    return CheckReport(
        id=f"kernel.q0reduction.{case.label}", case_id=case.label,
        q=q_strings(q), status="pass" if ok else "fail",
    )


# -- Meijer-G evaluation -----------------------------------------------------------


# the float tail of a contour table may carry at most this share of w_abs in
# its summed error bound: a tenth of the roundoff floor 1e-16 w_abs u^(-c),
# which noise_estimate charges ten times over
TAIL_SHARE = 1e-17

@lru_cache(maxsize=64)
def _contour_table(b_rel: tuple[Fraction, ...], a_rel: tuple[Fraction, ...],
                   offset: Fraction, precision: int, log_u_budget: float) -> dict:
    """The trapezoidal table of one contour, for parameters relative to it.

    With c = offset - min b, F(c + i t) = prod Gamma(b_rel_j + offset + i t)
    / prod Gamma(a_rel_j + offset + i t) for b_rel = b - min b and
    a_rel = a - min b, and the distance from the contour to the rightmost
    pole is d = offset.  T, omega, h, the nodes and F on them depend on
    nothing else, so every parameter set that differs by a common shift
    shares this table (see MeijerEvaluator).  Only the nodes t_k = k h,
    k >= 0, are tabulated: weight h/pi for k > 0 and h/(2 pi) at k = 0.

    F comes from two paths (focklab.gammaratio).  gamma_ratio_float gives F
    and a relative error bound eps_k at every node; k0 is the smallest index
    with sum_{k >= k0} eps_k |fw_k| <= TAIL_SHARE w_lo, where
    w_lo = sum (1 - eps_k) |fw_k| bounds w_abs from below.  The nodes k < k0,
    where the weights matter, are recomputed with mpmath (gamma_ratio_mp),
    and every float value there must lie within its eps_k of the mpmath one,
    or the build raises.  So the weights fw_k, k < k0, are the mpmath ones,
    and the float tail k >= k0 is off from the exact weights by at most
    tail_bound <= TAIL_SHARE w_abs = 1e-17 w_abs in total.

    The n weights fw_k are stored once, in the block layout of the
    baby-step/giant-step sum: with size = ceil(sqrt n) and
    count = ceil(n / size), blocks[b, a] = fw_{a size + b}, zero past k = n - 1.
    steps holds -i b h for b < size, then -i a size h for a < count.
    The arrays are read-only, since every evaluator with this key holds them.
    """
    import numpy as np

    from focklab.gammaratio import gamma_ratio_float, gamma_ratio_mp

    decay = len(b_rel) - len(a_rel)
    omega = float(sum(b_rel) - sum(a_rel) + decay * (offset - Fraction(1, 2)))
    target = (precision + 4) * math.log(10) + log_u_budget + max(omega, 0.0) * 4.0 + 8.0
    T = max(10.0, 2.0 * target / (decay * math.pi))
    d = float(offset)
    h = 2.0 * math.pi / ((precision + 4) * math.log(10) / d + log_u_budget)
    nodes = h * np.arange(math.ceil(T / h) + 1)
    # Re s of each Gamma argument, exact: b_j + c = b_rel_j + offset
    b_re = [x + offset for x in b_rel]
    a_re = [x + offset for x in a_rel]
    f_float, eps = gamma_ratio_float(b_re, a_re, nodes)
    # F(c - i t) = conj F(c + i t): the k < 0 half of the two-sided rule is
    # the conjugate of the k > 0 half, so its weight folds onto k > 0
    fw_float = f_float * (h / math.pi)
    fw_float[0] /= 2.0
    err = eps * np.abs(fw_float)
    w_lo = float(((1.0 - eps) * np.abs(fw_float)).sum())
    tails = np.append(np.cumsum(err[::-1])[::-1], 0.0)  # tails[k] = sum_{j >= k} err_j
    k0 = int(np.argmax(tails <= TAIL_SHARE * w_lo))
    f_mp = np.array(gamma_ratio_mp(b_re, a_re, nodes[:k0], precision), dtype=complex)
    off = np.abs(f_float[:k0] - f_mp) > eps[:k0] * np.abs(f_mp)
    if off.any():
        k = int(np.argmax(off))
        raise AssertionError(
            f"float Gamma ratio outside its bound at node {k}: {f_float[k]} vs "
            f"mpmath {f_mp[k]}, relative bound {eps[k]:.1e}")
    fw = np.concatenate([f_mp, f_float[k0:]]) * (h / math.pi)
    fw[0] /= 2.0
    w_abs = float(np.abs(fw).sum())
    n = len(nodes)
    size = math.isqrt(n - 1) + 1
    count = -(-n // size)
    padded = np.zeros(size * count, dtype=complex)
    padded[:n] = fw
    blocks = np.ascontiguousarray(padded.reshape(count, size).T)
    steps = -1j * h * np.concatenate([np.arange(size), size * np.arange(count)])
    for arr in (nodes, blocks, steps):
        arr.flags.writeable = False
    return {"nodes": nodes, "blocks": blocks, "steps": steps, "w_abs": w_abs,
            "log_w_abs": math.log(w_abs), "k0": k0, "tail_bound": float(tails[k0])}


# u per pass of MeijerEvaluator.eval_grid: bounds its (chunk, size + count)
# phase array whatever the grid length
EVAL_CHUNK = 512

# below u = e^SERIES_LOG_U, G of a parameter set without log terms comes from
# its residue series, whose summed tail there is at most SERIES_TAIL of each
# leading term; the moment grid of such a set starts at SERIES_LOG_U
SERIES_LOG_U = -12.0
SERIES_TAIL = 1e-17

# the log-u trapezoid of MeijerEvaluator.moment: its step and its last node
MOMENT_STEP = 0.25
MOMENT_LOG_U_MAX = 8.0


def _contour_sum(ct: dict, log_u):
    """Re sum_k fw_k e^{-i t_k log u} for a float log u or an array of them.

    Baby-step/giant-step (see MeijerEvaluator): sum_a w^a sum_b blocks[b, a] z^b.
    """
    import numpy as np

    size = ct["blocks"].shape[0]
    phases = np.exp(np.multiply.outer(log_u, ct["steps"]))
    return np.einsum("...b,ba,...a->...", phases[..., :size], ct["blocks"],
                     phases[..., size:]).real


@lru_cache(maxsize=64)
def _residue_series(b: tuple[Fraction, ...], a: tuple[Fraction, ...],
                    precision: int) -> tuple[tuple[float, float, tuple[float, ...]], ...]:
    """Slater's residue sum of G^{q,0}_{p,q}(u; a; b), b_j apart by non-integers.

    G(u) = sum_k A_k u^{b_k} pF(q-1)(1 + b_k - a; 1 + b_k - b_l, l != k; s u)
    with A_k = prod_{l != k} Gamma(b_l - b_k) / prod_j Gamma(a_j - b_k) and
    s = (-1)^(p - q) (DLMF 16.17.2, https://dlmf.nist.gov/16.17).  Returns
    (b_k, A_k, (t_0, t_1, ...)) per k, with the series coefficients t_i cut
    where sum_{i >= n} |t_i| u^i <= SERIES_TAIL for every u <= e^SERIES_LOG_U.
    The A_k are Gamma values at rational points, from mpmath at
    max(20, precision + 8) digits; the t_i are exact rationals, rounded.

    The cut: for i past every pole, each step ratio |t_{j+1} u / t_j|, j >= i,
    is at most rho(i) = u_max prod_r max(1, (i + |A_r|) / (i + D_r)) /
    (prod_{l >= p} (i + D_l) (i + 1)), the numerator offsets A_r = 1 + b_k - a_r
    paired with the first p denominator offsets D_l = 1 + b_k - b_l; so once
    rho(i) < 1 the tail from term i is at most |t_i| u_max^i / (1 - rho(i)).
    """
    import mpmath as mp

    u_max = math.exp(SERIES_LOG_U)
    sign = -1 if (len(b) - len(a)) % 2 else 1
    out = []
    with mp.workdps(max(20, precision + 8)):
        for k, bk in enumerate(b):
            rest = b[:k] + b[k + 1:]
            coeff = mp.mpf(1)
            for x in rest:
                coeff *= mp.gamma(mp.mpf((x - bk).numerator) / (x - bk).denominator)
            for x in a:
                coeff *= mp.rgamma(mp.mpf((x - bk).numerator) / (x - bk).denominator)
            num = [1 + bk - x for x in a]
            den = [1 + bk - x for x in rest]
            terms, t, i = [], Fraction(1), 0
            while True:
                if i + min(den) > 0:
                    rho = u_max / (i + 1)
                    for j, d in enumerate(den):
                        rho *= max(1, (i + abs(num[j])) / (i + d)) if j < len(num) else 1 / (i + d)
                    if rho < 1 and abs(t) * u_max ** i / (1 - rho) <= SERIES_TAIL:
                        break
                terms.append(float(t))
                step = Fraction(sign, i + 1)
                for x in num:
                    step *= x + i
                for x in den:
                    step /= x + i
                t *= step
                i += 1
            out.append((float(bk), float(coeff), tuple(terms)))
    return tuple(out)


class MeijerEvaluator:
    """G^{m,0}-type evaluator via a fixed vertical Mellin-Barnes contour.

    G(u) = (1/2pi) * integral over t of F(c + i t) u^{-c - i t} dt, where
    F(s) = prod Gamma(beta_j + s) / prod Gamma(alpha_j + s) and the contour
    Re s = c sits strictly right of every pole of the numerator Gammas.
    Super-exponential Gamma decay (|F| ~ |t|^w e^{-pi |t|} after the 3-vs-1
    cancellation) lets the line be truncated at |t| <= T, and on it the
    integral is taken by the trapezoidal rule: nodes t_k = k h, |k| <= ceil(T/h),
    every weight h.  The parameters are real, so F(c - i t) = conj F(c + i t)
    and the sum is real: it needs the nodes k >= 0 only, with weight 2h on
    k > 0 and h at k = 0.  F is tabulated there once, as the weights fw_k:
    with mpmath at working precision on the leading nodes k < k0, and from a
    float Stirling path with a per-node relative bound on the rest, whose
    summed error is at most 1e-17 w_abs, a tenth of the roundoff floor below
    (see _contour_table).

    Evaluation.  With z = e^{-i h ln u} on the unit circle,

        G(u) = u^{-c} Re sum_{k < n} fw_k z^k,

    a polynomial in z.  It is summed by baby-step/giant-step (Paterson and
    Stockmeyer, SIAM J. Comput. 2, 1973): with size = ceil(sqrt n) and
    k = a size + b,

        sum_k fw_k z^k = sum_a w^a sum_b fw_{a size + b} z^b,  w = z^size,

    so one u costs size + count ~ 2 sqrt(n) complex exponentials instead of
    n, and one multiply-add per node.  Each power is computed directly,
    z^b = e^{-i (b h) ln u} and w^a = e^{-i (a size h) ln u}, not by repeated
    multiplication, whose rounding would grow with the exponent: each phase
    then carries a rounding error of order 1e-16 |t_k ln u|, as a direct
    e^{-i t_k ln u} does, and the roundoff model of noise_estimate covers
    it.  eval_grid sums an array of u, EVAL_CHUNK at a time so that its
    (chunk, size + count) phase array stays small whatever the grid length,
    and eval is eval_grid on one u.  The contraction (_contour_sum) is an
    einsum on one thread: a matrix product (@) would hand it to BLAS
    threads, which add CPU time on top of the wall time.

    Near u = 0.  On the near contour the roundoff floor 1e-15 w_abs u^{-c}
    grows faster than G itself as u falls.  For a parameter set whose b_j
    differ pairwise by non-integers, G below e^SERIES_LOG_U comes from the
    residue series of _residue_series instead, accurate to its own floor
    of 1e-15 times its terms' magnitudes; there log_u_floor = SERIES_LOG_U.
    b_j an integer apart put log u terms into G there, which the series
    does not carry, so for such a set (case 5, case 9a) the contour serves
    down to e^-log_u_budget = e^log_u_floor and every u below raises
    ValueError.

    Shared tables.  The shift identity u^sigma G(u; a, b) = G(u; a + sigma,
    b + sigma) (DLMF 16.19.2, https://dlmf.nist.gov/16.19) holds on the
    contour itself: F(c + i t) depends on a, b and c only through a - min b,
    b - min b and the offset c + min b.  Each contour sits at a fixed offset,
    5/4 or 5/4 + shift, so its table (nodes and weighted F) is keyed on
    the relative parameters, the offset, precision and log_u_budget, and
    built once per key (_contour_table); the evaluator keeps only its own c.

    Step size.  Poisson summation gives the exact aliasing identity for the
    untruncated rule on Re s = c:

        G_h(u) = sum over integer k of e^{2 pi k c / h} G(u e^{2 pi k / h}).

    The k = 0 term is G(u); the others are the error, and with
    d = c + min beta, the distance from the contour to the rightmost pole,
    and the step

        h = 2 pi / ((precision + 4) ln 10 / d + log_u_budget)

    both leading ones are negligible for every |ln u| <= log_u_budget,
    measured against the scale w_abs u^{-c} of the roundoff floor
    1e-16 w_abs u^{-c} (see noise_estimate):

    - k = -1 samples G near 0, where G(v) = O(v^{min beta}); relative to
      u^{-c} it is O(u^d e^{-2 pi d / h}) <= 10^{-(precision+4)}, which binds
      at large u;
    - k = +1 samples G at v = u e^{2 pi / h} >= e^{(precision+4) ln 10 / d},
      far out on its super-exponentially decaying tail; this is the term
      that binds at small u, and the reason log_u_budget enters h.
    """

    def __init__(self, b_params, a_params, precision: int = 12,
                 log_u_budget: float = 26.0):
        self.b = [Fraction(x) for x in b_params]
        self.a = [Fraction(x) for x in a_params]
        self.precision = precision
        self.log_u_budget = log_u_budget
        min_b = min(self.b)
        self.decay = len(self.b) - len(self.a)
        if self.decay < 1:
            raise ValueError("need more numerator than denominator parameters")
        b_rel = tuple(sorted(x - min_b for x in self.b))
        a_rel = tuple(sorted(x - min_b for x in self.a))
        # a second contour well to the right keeps u^{-c} from amplifying
        # roundoff where G is exponentially small (large u); both lines are
        # right of every numerator pole, so they integrate to the same G
        shift = min(8 + Fraction(precision, 2), 24)
        self.contours = [
            dict(_contour_table(b_rel, a_rel, offset, precision, log_u_budget),
                 c=float(offset - min_b))
            for offset in (Fraction(5, 4), Fraction(5, 4) + shift)
        ]
        # b_j an integer apart merge poles of F, which puts log u terms into
        # G near u = 0; without them the residue series serves u below
        # e^SERIES_LOG_U, with them nothing serves u below the contour's range
        self.log_terms = any((x - y).denominator == 1
                             for i, x in enumerate(self.b) for y in self.b[i + 1:])
        self.log_u_floor = -log_u_budget if self.log_terms else SERIES_LOG_U
        self._log_line_bounds: dict[Fraction, float] = {}

    @staticmethod
    def _log_scale(ct: dict, log_u):
        # log of the roundoff scale w_abs u^{-c}, compared in log space:
        # u^{-c} alone overflows a float for tiny u on the far contour
        return ct["log_w_abs"] - ct["c"] * log_u

    @staticmethod
    def _positive(us):
        import numpy as np

        us = np.asarray(us, dtype=float)
        if (us <= 0).any():
            raise ValueError("u must be positive")
        return us

    def _evaluate(self, us, log_us):
        """(G, its roundoff floor) at arrays of u and of their logs.

        Each u at or above e^log_u_floor takes the contour with the smaller
        roundoff scale; each u below it the residue series (_series), or
        ValueError for a set with log terms.  ValueError also where G(u) or
        its floor is not a finite float.  The phase array of _contour_sum
        grows with the number of u, so long grids come EVAL_CHUNK u at a time.
        """
        import numpy as np

        values = np.empty(len(us))
        noise = np.empty(len(us))
        below = log_us < self.log_u_floor
        if below.any() and self.log_terms:
            raise ValueError(
                f"u = {float(us[below][0])!r} is below e^-{self.log_u_budget:g}, the "
                "contour's range, and G has log terms there")
        with np.errstate(over="ignore", invalid="ignore"):
            if below.any():
                values[below], noise[below] = self._series(us[below])
            # argmin keeps the first contour on a tie
            pick = np.argmin([self._log_scale(ct, log_us) for ct in self.contours], axis=0)
            for i, ct in enumerate(self.contours):
                sel = (pick == i) & ~below
                if sel.any():
                    scale = us[sel] ** (-ct["c"])
                    values[sel] = _contour_sum(ct, log_us[sel]) * scale
                    noise[sel] = 1e-15 * ct["w_abs"] * scale
        bad = ~(np.isfinite(values) & np.isfinite(noise))
        if bad.any():
            raise ValueError(f"u = {float(us[bad][0])!r} is out of range: G(u) or its "
                             "roundoff floor is not a finite float")
        return values, noise

    def _series(self, us):
        """(G, its roundoff floor) at an array of u from the residue series.

        The floor, 1e-15 times the sum of the terms' magnitudes, covers the
        rounding of every term and the cut tail, at most SERIES_TAIL of them.
        """
        import numpy as np

        values = np.zeros(len(us))
        size = np.zeros(len(us))
        for bk, ak, ts in _residue_series(tuple(self.b), tuple(self.a), self.precision):
            power = us ** bk
            poly = np.zeros(len(us))
            poly_abs = np.zeros(len(us))
            for t in reversed(ts):
                poly = poly * us + t
                poly_abs = poly_abs * us + abs(t)
            values += ak * power * poly
            size += abs(ak) * power * poly_abs
        return values, 1e-15 * size

    def eval(self, u: float) -> float:
        """G(u); ValueError where eval_grid raises one for it."""
        return float(self.eval_grid([u])[0])

    def eval_grid(self, us):
        """G at every u of a 1-D sequence, as an array, EVAL_CHUNK u at a time (see _evaluate)."""
        import numpy as np

        us = self._positive(us)
        out = np.empty(len(us))
        for start in range(0, len(us), EVAL_CHUNK):
            u = us[start:start + EVAL_CHUNK]
            out[start:start + EVAL_CHUNK] = self._evaluate(u, np.log(u))[0]
        return out

    def noise_estimate(self, u: float) -> float:
        """Roundoff floor of eval(u) (absolute); ValueError where eval raises one."""
        import numpy as np

        us = self._positive([u])
        return float(self._evaluate(us, np.log(us))[1][0])

    @cached_property
    def _moment_grid(self):
        """(x, G(e^x), its floor) at x = log_u_floor + k MOMENT_STEP up to MOMENT_LOG_U_MAX."""
        import numpy as np

        count = round((MOMENT_LOG_U_MAX - self.log_u_floor) / MOMENT_STEP)
        x = self.log_u_floor + MOMENT_STEP * np.arange(count + 1)
        return (x, *self._evaluate(np.exp(x), x))

    def moment(self, m: int) -> tuple[float, float]:
        """(integral of G(u) u^m du, a bound on its absolute error).

        The trapezoidal rule in x = log u with step h = MOMENT_STEP over the
        whole line, h sum_k e^{(m+1) x_k} G(e^{x_k}) on the nodes
        x_k = log_u_floor + k h, k any integer.
        The nodes from log_u_floor to MOMENT_LOG_U_MAX take G, as eval_grid
        would, from one evaluation per evaluator, which every m reuses.  Below it, for a
        set without log terms, each residue-series term A u^beta sums over
        the nodes in closed form, h e^{alpha x0} / (e^{alpha h} - 1) with
        alpha = beta + m + 1; no endpoint correction enters, since the rule
        stays the bi-infinite one.  The error bound is the sum of

        - the propagated roundoff, h sum_k e^{(m+1) x_k} noise_estimate(e^{x_k}),
          and the series' own floor;
        - the aliasing (_aliasing), exact by Poisson summation;
        - the nodes above MOMENT_LOG_U_MAX (_upper_tail), and for a set with
          log terms those below log_u_floor (_lower_tail), each bounded by a
          Mellin-Barnes line: |G(u)| <= u^{-c} W(c) (_log_line_l1).

        The rule converges geometrically in 1/h for this analytic integrand
        (Trefethen and Weideman, SIAM Review 56 (2014) 385-458).
        """
        import numpy as np

        x, g, noise = self._moment_grid
        weight = MOMENT_STEP * np.exp((m + 1) * x)
        value = float((weight * g).sum())
        err = float((weight * noise).sum()) + self._aliasing(m) + self._upper_tail(m)
        if self.log_terms:
            return value, err + self._lower_tail(m)
        low, low_err = self._series_moment(m)
        return value + low, err + low_err

    def _series_moment(self, m: int) -> tuple[float, float]:
        """The nodes below log_u_floor from the residue series: (sum, its floor)."""
        x0, h = self.log_u_floor, MOMENT_STEP
        value = size = 0.0
        for bk, ak, ts in _residue_series(tuple(self.b), tuple(self.a), self.precision):
            if bk + m + 1 <= 0:
                raise ValueError(f"moment {m} diverges at u = 0")
            for i, t in enumerate(ts):
                alpha = bk + i + m + 1
                term = ak * t * h * math.exp(alpha * x0) / math.expm1(alpha * h)
                value += term
                size += abs(term)
        return value, 1e-15 * size

    def _log_line_l1(self, c: Fraction) -> float:
        """log of a bound W(c) on (1/2pi) int |F(c + i t)| dt, so |G(u)| <= u^{-c} W(c).

        For c right of every numerator pole.  |F| is bounded node by node by
        log_abs_gamma_ratio_float and summed by the trapezoidal rule with
        step 1/8 out to where it has fallen e^40 below its peak (F(c - i t) is
        the conjugate of F(c + i t)); the sum is doubled to cover the rule's
        error and the tail.
        """
        if c not in self._log_line_bounds:
            import numpy as np

            from focklab.gammaratio import log_abs_gamma_ratio_float

            step = 0.125
            for t_max in (16, 64, 256, 1024, 4096):
                ts = step * np.arange(int(t_max / step) + 1)
                logs, delta = log_abs_gamma_ratio_float(
                    [x + c for x in self.b], [x + c for x in self.a], ts)
                logs += delta
                peak = float(logs.max())
                if logs[-1] < peak - 40:
                    break
            else:
                raise ArithmeticError(f"|F| has not decayed by t = {t_max} on Re s = {c}")
            weights = np.exp(logs - peak)
            weights[0] /= 2
            self._log_line_bounds[c] = peak + math.log(2 * step * float(weights.sum()) / math.pi)
        return self._log_line_bounds[c]

    def _upper_tail(self, m: int) -> float:
        """Bound on the nodes above MOMENT_LOG_U_MAX, best of a few lines.

        On Re s = c = m + 1 + d, d > 0: h sum_{k >= 1} e^{(m+1) x_k} |G(e^{x_k})|
        <= h W(c) e^{-d x_max} / (e^{d h} - 1), x_k = x_max + k h.
        """
        h, x_max = MOMENT_STEP, MOMENT_LOG_U_MAX
        return math.exp(min(
            self._log_line_l1(Fraction(m + 1 + d)) - d * x_max + math.log(h / math.expm1(d * h))
            for d in (2, 4, 8, 16, 32, 64) if m + 1 + d > -min(self.b)))

    def _lower_tail(self, m: int) -> float:
        """Bound on the nodes below log_u_floor, best of a few lines near the poles.

        On Re s = c = d - min b with alpha = m + 1 - c > 0: h sum_{k >= 1}
        e^{(m+1) x_k} |G(e^{x_k})| <= h W(c) e^{alpha x0} / (e^{alpha h} - 1),
        x_k = x0 - k h.  inf when no such line exists.
        """
        h, x0 = MOMENT_STEP, self.log_u_floor
        logs = []
        for d in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            c = d - min(self.b)
            alpha = float(m + 1 - c)
            if alpha > 0:
                logs.append(self._log_line_l1(c) + alpha * x0
                            + math.log(h / math.expm1(alpha * h)))
        return math.exp(min(logs)) if logs else math.inf

    def _aliasing(self, m: int) -> float:
        """Bound on the aliasing error of the bi-infinite rule.

        By Poisson summation that error is exactly sum_{n != 0} F(m + 1 + 2 pi i n / h),
        F the Mellin transform of G; F is real on the real axis, so it is at
        most 2 sum_{n >= 1} |F(m + 1 + 2 pi i n / h)|.  Four terms are
        bounded node by node by log_abs_gamma_ratio_float, the rest by the
        geometric series of the last two: |F| falls like e^{-pi t} there.
        """
        import numpy as np

        from focklab.gammaratio import log_abs_gamma_ratio_float

        ts = 2 * math.pi / MOMENT_STEP * np.arange(1, 5)
        logs, delta = log_abs_gamma_ratio_float(
            [x + m + 1 for x in self.b], [x + m + 1 for x in self.a], ts)
        logs += delta
        ratio = math.exp(logs[-1] - logs[-2])
        if ratio >= 1:
            return math.inf
        return 2 * (float(np.exp(logs).sum()) + math.exp(logs[-1]) * ratio / (1 - ratio))

    def moment_closed(self, m: int) -> float:
        """prod Gamma(beta_j + m + 1) / prod Gamma(alpha_j + m + 1), exact route."""
        import mpmath as mp

        old = mp.mp.dps
        mp.mp.dps = max(20, self.precision + 8)
        try:
            out = mp.mpf(1)
            for bj in self.b:
                out *= mp.gamma(mp.mpf(bj.numerator) / bj.denominator + m + 1)
            for aj in self.a:
                out /= mp.gamma(mp.mpf(aj.numerator) / aj.denominator + m + 1)
            return float(out)
        finally:
            mp.mp.dps = old


@lru_cache(maxsize=64)
def _evaluator_cached(b_params: tuple, a_params: tuple, precision: int) -> MeijerEvaluator:
    return MeijerEvaluator(b_params, a_params, precision)


def moment_check(
    case: CaseDescriptor, q, m_max: int = 5, precision: int = 12,
    rel_tol: float = 1e-10,
) -> Iterator[CheckReport]:
    """Trapezoid moments of G vs Gamma-ratio closed forms and (c a)_m.

    Checks, for m = 0..m_max: (i) integral G(u) u^m du equals
    prod Gamma(beta_j+m+1)/prod Gamma(alpha_j+m+1) to rel_tol, and within
    the moment's own error bound (MeijerEvaluator.moment); (ii) the exact
    Pochhammer identity c_m a_m / a_0 = (eta0)_m (eta0+1)_m / prod (eta0+b_j)_m;
    (iii) the moments match 1/(C (c a)_m) with C fitted at m = 0, to rel_tol.
    Yields the report of (ii) first, then one per moment; the evaluator is
    built just before moment 0, whose report carries that time.
    """
    sp = spectral_params(case, q)
    qs = q_strings(q)

    # (ii) exact identity first; r[m] = c_m a_m / a_0 is reused by (iii)
    r = []
    a_rel = Fraction(1)
    exact_ok = True
    for m in range(m_max + 1):
        r.append(c_closed(sp, m) * a_rel)
        a_rel *= a_ratio(case, q, m)
        rhs_num = pochhammer(sp.eta0, m) * pochhammer(sp.eta0 + 1, m)
        rhs_den = Fraction(1)
        for bj in sp.b_roots:
            rhs_den *= pochhammer(sp.eta0 + bj, m)
        exact_ok = exact_ok and r[m] == rhs_num / rhs_den
    yield CheckReport(
        id=f"meijer.camoment.{case.label}.{'_'.join(qs)}",
        case_id=case.label, q=qs,
        status="pass" if exact_ok else "fail",
        details="exact (c a)_m Pochhammer identity",
    )

    a_red, b_red = meijer_params(case, q).reduced
    ev = _evaluator_cached(tuple(b_red), tuple(a_red), precision)
    mu0 = None
    for m in range(m_max + 1):
        mu, err_bound = ev.moment(m)
        g = ev.moment_closed(m)
        rel = abs(mu - g) / abs(g)
        if m == 0:
            mu0 = mu
        # (iii): mu_m / mu_0 must equal 1/r[m] with r[m] the exact ratio above
        rel_ca = abs(mu / mu0 - 1.0 / float(r[m])) / (1.0 / float(r[m]))
        ok = rel <= rel_tol and rel_ca <= rel_tol and abs(mu - g) <= err_bound
        yield CheckReport(
            id=f"meijer.moment.{case.label}.{'_'.join(qs)}.{m}",
            case_id=case.label, q=qs,
            status="pass" if ok else "fail",
            residual=f"{max(rel, rel_ca):.3e}", tolerance=f"{rel_tol:.0e}",
            details=f"trapezoid={mu:.12e} err_bound={err_bound:.1e} "
            f"gamma={g:.12e} C={1.0 / mu0:.6e}",
        )


# -- weight and sign scan -----------------------------------------------------------


def sign_scan(
    case: CaseDescriptor, q, u_min: float = 1e-3, u_max: float = 60.0,
    grid: int = 240, precision: int = 12,
) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
    """Evaluate G on a log grid of at least 2 points; return (samples, sign-change brackets)."""
    if grid < 2:
        raise ValueError(f"grid must have at least 2 points, got {grid}")
    params = meijer_params(case, q)
    a_red, b_red = params.reduced
    ev = _evaluator_cached(tuple(b_red), tuple(a_red), precision)
    us = [u_min * (u_max / u_min) ** (i / (grid - 1)) for i in range(grid)]
    vals = list(zip(us, map(float, ev.eval_grid(us))))
    brackets = []
    for (u0, g0), (u1, g1) in zip(vals, vals[1:]):
        if g0 == 0.0 or g1 == 0.0:
            continue
        if (g0 > 0) != (g1 > 0):
            brackets.append((u0, u1))
    return vals, brackets


def sign_scan_report(case: CaseDescriptor, q, **kw) -> CheckReport:
    vals, brackets = sign_scan(case, q, **kw)
    qs = q_strings(q)
    return CheckReport(
        id=f"weight.sign.{case.label}.{'_'.join(qs)}",
        case_id=case.label, q=qs,
        status="pass" if brackets else "fail",
        residual=f"{len(brackets)} sign changes",
        details=f"first bracket={brackets[0] if brackets else None}",
    )


# -- case-(1) Bergman cross-check ------------------------------------------------------


def bergman_norm_case1(
    q: int, components: list[tuple[int, dict[int, complex]]],
    precision: int = 12, rel_tol: float = 1e-10,
) -> CheckReport:
    """Thm-2.5 graded sum vs the G-weighted integral, case (1).

    components: list of (m, {j: coefficient}) graded pieces (at most 3).
    On the fiber chart u = |w~|^2 H(z)^4 (w~ = w^4) the weighted norm is
    pi C int int P(u) sum_m u^{m + q/4} |phi_m(t)|^2 (1+t)^{-(4m+q+2)} dt du
    with P(u) = u^{-q/4} G(u); for q = 0 this is exactly the stated weight.
    Each t-integral is a Beta integral (fock.beta_integral, n = 4m + q), and
    by Fubini each piece's u-integral is the Meijer moment
    mu_m = int G(u) u^m du (MeijerEvaluator.moment): the norm is
    pi C sum_m mu_m sum_j |c_j|^2 j! (n-j)! / (n+1)!.  Both sides are
    normalized by the phi = 1 value, which also fits C; the graded side is
    summed exactly and rounded once.  err_bound carries the moments' error
    bounds through that ratio, and the check fails when the sides differ by
    more than rel_tol or by more than err_bound.
    """
    if len(components) > 3:
        raise ValueError("at most 3 graded components")
    case = build_case(1)
    qvec = (Fraction(q),)
    sp = spectral_params(case, qvec)
    params = meijer_params(case, qvec)
    a_red, b_red = params.reduced
    ev = _evaluator_cached(tuple(b_red), tuple(a_red), precision)

    def graded_value(comps) -> float:
        total = Fraction(0)
        for m, coeffs in comps:
            n = 4 * m + q
            norm = sum(Fraction(abs(c) ** 2) / math.comb(n, j) for j, c in coeffs.items())
            total += norm / c_closed(sp, m)
        return float(total)

    def weighted_value(comps) -> tuple[float, float]:
        value = err = 0.0
        for m, coeffs in comps:
            mu, mu_err = ev.moment(m)
            beta = math.pi * float(sum(Fraction(abs(c) ** 2) * beta_integral(j, 4 * m + q)
                                       for j, c in coeffs.items()))
            value += mu * beta
            err += mu_err * beta
        return value, err

    base = [(0, {0: 1.0})]  # phi = 1
    r_base, e_base = weighted_value(base)
    g_base = graded_value(base)  # = 1
    c_fit = g_base / r_base
    r_raw, e_raw = weighted_value(components)
    r_phi = r_raw * c_fit
    # |r/b - (r + dr)/(b + db)| <= (|dr| + |r/b| |db|) / (|b| - |db|)
    err_bound = g_base * (e_raw + abs(r_raw / r_base) * e_base) / (abs(r_base) - e_base)
    g_phi = graded_value(components)
    rel = abs(r_phi - g_phi) / abs(g_phi)
    ok = rel <= rel_tol and abs(r_phi - g_phi) <= err_bound
    return CheckReport(
        id="bergman.case1",
        case_id="1", q=[str(q)],
        status="pass" if ok else "fail",
        residual=f"{rel:.3e}", tolerance=f"{rel_tol:.0e}",
        details=f"graded={g_phi:.10e} trapezoid={r_phi:.10e} err_bound={err_bound:.1e} "
        f"C={c_fit / math.pi:.6e}",
    )
