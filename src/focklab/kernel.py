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
MeijerEvaluator).  The Gamma products on the nodes are precomputed once with
mpmath at elevated working precision.  The nodes are uniform, so each G(u)
evaluation is a polynomial in one phase on the unit circle, summed by
baby-step/giant-step with about 2 sqrt(n) exponentials for n nodes, for one u
or a chunk of a grid at a time; repeated beta parameters cost nothing because
the integrand stays smooth on the contour.  The parameters are real, so the
integrand on t < 0 is the conjugate of that on t > 0 and only the nodes t >= 0
are tabulated.  Each table is keyed on the parameters relative to its contour
(b - min b, a - min b and the contour offset c + min b): by the shift
identity u^sigma G(u; a, b) = G(u; a + sigma, b + sigma) (DLMF 16.19.2),
parameter sets that differ by a common shift, such as q and q + 4 in
case (1), share their tables.

The exact c_m series is built by its three-root recurrence and checked
against the closed Pochhammer form at every m (see c_sequence).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
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


def quad_counted(f, a, b, **kw) -> tuple[float, float, int]:
    """scipy's quad as (value, absolute error estimate, integrand evaluations).

    full_output silences quad's IntegrationWarning, so it is raised here.
    """
    from scipy.integrate import IntegrationWarning, quad

    val, err, info, *message = quad(f, a, b, full_output=1, **kw)
    if message:
        warnings.warn(message[0], IntegrationWarning, stacklevel=2)
    return val, err, info["neval"]


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
    The n weights fw_k are stored once, in the block layout of the
    baby-step/giant-step sum: with size = ceil(sqrt n) and
    count = ceil(n / size), blocks[b, a] = fw_{a size + b}, zero past k = n - 1.
    steps holds -i b h for b < size, then -i a size h for a < count.
    The arrays are read-only, since every evaluator with this key holds them.
    """
    import mpmath as mp
    import numpy as np

    decay = len(b_rel) - len(a_rel)
    omega = float(sum(b_rel) - sum(a_rel) + decay * (offset - Fraction(1, 2)))
    target = (precision + 4) * math.log(10) + log_u_budget + max(omega, 0.0) * 4.0 + 8.0
    T = max(10.0, 2.0 * target / (decay * math.pi))
    d = float(offset)
    h = 2.0 * math.pi / ((precision + 4) * math.log(10) / d + log_u_budget)
    nodes = h * np.arange(math.ceil(T / h) + 1)
    with mp.workdps(max(20, precision + 8)):
        # Re s of each Gamma argument, exact: b_j + c = b_rel_j + offset
        b_re = [mp.mpf((x + offset).numerator) / (x + offset).denominator for x in b_rel]
        a_re = [mp.mpf((x + offset).numerator) / (x + offset).denominator for x in a_rel]
        fvals = []
        for t in nodes:
            f = mp.mpf(1)
            for x in b_re:
                f *= mp.gamma(mp.mpc(x, t))
            for x in a_re:
                f *= mp.rgamma(mp.mpc(x, t))
            fvals.append(complex(f))
    # F(c - i t) = conj F(c + i t): the k < 0 half of the two-sided rule is
    # the conjugate of the k > 0 half, so its weight folds onto k > 0
    fw = np.array(fvals) * (h / math.pi)
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
            "log_w_abs": math.log(w_abs)}


# u per pass of MeijerEvaluator.eval_grid: bounds its (chunk, size + count)
# phase array whatever the grid length
EVAL_CHUNK = 512


def _contour_sum(ct: dict, log_u):
    """Re sum_k fw_k e^{-i t_k log u} for a float log u or an array of them.

    Baby-step/giant-step (see MeijerEvaluator): sum_a w^a sum_b blocks[b, a] z^b.
    """
    import numpy as np

    size = ct["blocks"].shape[0]
    phases = np.exp(np.multiply.outer(log_u, ct["steps"]))
    return np.einsum("...b,ba,...a->...", phases[..., :size], ct["blocks"],
                     phases[..., size:]).real


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
    k > 0 and h at k = 0.  F is tabulated there once, with mpmath at working
    precision, as the weights fw_k.

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
    it.  eval sums one u; eval_grid sums an array of u, EVAL_CHUNK at
    a time so that its (chunk, size + count) phase array stays small
    whatever the grid length, each u on the contour eval would pick.  Both
    go through one routine (_contour_sum), whose contraction is an einsum
    on one thread: a matrix product (@) would hand it to BLAS threads, which
    add CPU time on top of the wall time.

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

    @staticmethod
    def _log_scale(ct: dict, log_u):
        # log of the roundoff scale w_abs u^{-c}, compared in log space:
        # u^{-c} alone overflows a float for tiny u on the far contour
        return ct["log_w_abs"] - ct["c"] * log_u

    def _pick(self, log_u: float):
        # the contour with the smaller roundoff scale
        return min(self.contours, key=lambda ct: self._log_scale(ct, log_u))

    def eval(self, u: float) -> float:
        if u <= 0:
            raise ValueError("u must be positive")
        log_u = math.log(u)
        ct = self._pick(log_u)
        return float(_contour_sum(ct, log_u)) * u ** (-ct["c"])

    def eval_grid(self, us):
        """G at every u of a 1-D sequence, as an array, EVAL_CHUNK u at a time.

        Each u takes the contour eval would pick for it.
        """
        import numpy as np

        us = np.asarray(us, dtype=float)
        if (us <= 0).any():
            raise ValueError("u must be positive")
        out = np.empty(len(us))
        for start in range(0, len(us), EVAL_CHUNK):
            u, part = us[start:start + EVAL_CHUNK], out[start:start + EVAL_CHUNK]
            log_u = np.log(u)
            # argmin keeps the first contour on a tie, as min does in _pick
            pick = np.argmin([self._log_scale(ct, log_u) for ct in self.contours], axis=0)
            for i, ct in enumerate(self.contours):
                sel = pick == i
                if sel.any():
                    part[sel] = _contour_sum(ct, log_u[sel]) * u[sel] ** (-ct["c"])
        return out

    def noise_estimate(self, u: float) -> float:
        """Roundoff floor of eval(u) (absolute)."""
        ct = self._pick(math.log(u))
        return 1e-15 * ct["w_abs"] * u ** (-ct["c"])

    def moment(self, m: int, rel_tol: float = 1e-9) -> tuple[float, float, int]:
        """(integral of G(u) u^m du, quad's absolute error estimate, its evaluations).

        Computed in s = sqrt(u) by adaptive quadrature.
        """

        def f(s):
            if s <= 0:
                return 0.0
            return 2.0 * s ** (2 * m + 1) * self.eval(s * s)

        # in s = sqrt(u): integrand ~ s^power exp(-decay_s * s) with
        # power = 2m + 1 + 2*theta; truncate well past the peak
        theta = (float(sum(self.b) - sum(self.a))) / 2.0
        power = max(2 * m + 1 + 2 * theta, 1.0)
        s_peak = power / 2.0
        s_max = s_peak + 30.0 + 0.9 * power
        return quad_counted(
            f, 0.0, s_max, epsabs=0.0, epsrel=rel_tol, limit=400,
            points=[1.0, max(2.0, s_peak / 2), max(4.0, s_peak), max(8.0, 2 * s_peak)],
        )

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
    rel_tol: float = 1e-6,
) -> Iterator[CheckReport]:
    """Quadrature moments of G vs Gamma-ratio closed forms and (c a)_m.

    Checks, for m = 0..m_max: (i) integral G(u) u^m du equals
    prod Gamma(beta_j+m+1)/prod Gamma(alpha_j+m+1) to rel_tol; (ii) the exact
    Pochhammer identity c_m a_m / a_0 = (eta0)_m (eta0+1)_m / prod (eta0+b_j)_m;
    (iii) the quadrature moments match 1/(C (c a)_m) with C fitted at m = 0.
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
        mu, quad_err, neval = ev.moment(m)
        g = ev.moment_closed(m)
        rel = abs(mu - g) / abs(g)
        if m == 0:
            mu0 = mu
        # (iii): mu_m / mu_0 must equal 1/r[m] with r[m] the exact ratio above
        rel_ca = abs(mu / mu0 - 1.0 / float(r[m])) / (1.0 / float(r[m]))
        ok = rel <= rel_tol and rel_ca <= rel_tol
        yield CheckReport(
            id=f"meijer.moment.{case.label}.{'_'.join(qs)}.{m}",
            case_id=case.label, q=qs,
            status="pass" if ok else "fail",
            residual=f"{max(rel, rel_ca):.3e}", tolerance=f"{rel_tol:.0e}",
            details=f"quad={mu:.12e} quad_err={quad_err:.1e} neval={neval} "
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
    precision: int = 12, rel_tol: float = 1e-4,
) -> CheckReport:
    """Thm-2.5 graded sum vs radial 2D quadrature with the G-weight, case (1).

    components: list of (m, {j: coefficient}) graded pieces (at most 3).
    The quadrature runs on the fiber chart u = |w~|^2 H(z)^4 (w~ = w^4): the
    norm is pi * C * int int S(u, t) P(u) (1+t)^(-4m-2-4q~) ... assembled below
    with P(u) = u^{-q/4} G(u); for q = 0 this is exactly the stated weight.
    Both sides are normalized by the phi = 1 value, which also fits C.  The
    largest absolute error estimate of every quad call, inner and outer, is
    reported as quad_err, and their integrand evaluations summed as neval.
    """
    if len(components) > 3:
        raise ValueError("at most 3 graded components")
    case = build_case(1)
    qvec = (Fraction(q),)
    sp = spectral_params(case, qvec)
    params = meijer_params(case, qvec)
    a_red, b_red = params.reduced
    ev = _evaluator_cached(tuple(b_red), tuple(a_red), precision)
    q_tilde = Fraction(q, 4)
    quad_err = 0.0
    neval = 0

    def quad_tracked(*args, **kw) -> float:
        nonlocal quad_err, neval
        val, err, calls = quad_counted(*args, **kw)
        quad_err = max(quad_err, err)
        neval += calls
        return val

    def graded_value(comps) -> float:
        total = 0.0
        for m, coeffs in comps:
            n = 4 * m + q
            norm = sum(abs(c) ** 2 / math.comb(n, j) for j, c in coeffs.items())
            total += norm / float(c_closed(sp, m))
        return total

    def quad_value(comps) -> float:
        def inner(u: float) -> float:
            def f_t(t: float) -> float:
                s = 0.0
                for m, coeffs in comps:
                    poly_t = sum(abs(c) ** 2 * t**j for j, c in coeffs.items())
                    expo = -4.0 * (m + float(q_tilde) + 1.0) + 2.0
                    s += u ** (m + float(q_tilde)) * poly_t * (1.0 + t) ** expo
                return s

            return quad_tracked(f_t, 0.0, math.inf, epsabs=1e-13, epsrel=1e-10, limit=200)

        def f_u(s: float) -> float:
            if s <= 0:
                return 0.0
            u = s * s
            profile = ev.eval(u) * u ** (-float(q_tilde))
            return 2.0 * s * profile * inner(u)

        s_max = max(40.0, (precision + 4) * math.log(10) / 2.0 + 16.0)
        return math.pi * quad_tracked(f_u, 0.0, s_max, epsabs=0.0, epsrel=1e-9, limit=300,
                                      points=[1.0, 4.0, 9.0])

    base = [(0, {0: 1.0})]  # phi = 1
    r_base = quad_value(base)
    g_base = graded_value(base)  # = 1
    c_fit = g_base / r_base
    r_phi = quad_value(components) * c_fit
    g_phi = graded_value(components)
    rel = abs(r_phi - g_phi) / abs(g_phi)
    return CheckReport(
        id="bergman.case1",
        case_id="1", q=[str(q)],
        status="pass" if rel <= rel_tol else "fail",
        residual=f"{rel:.3e}", tolerance=f"{rel_tol:.0e}",
        details=f"graded={g_phi:.10e} quadrature={r_phi:.10e} C={c_fit / math.pi:.6e} "
        f"quad_err={quad_err:.1e} neval={neval}",
    )
