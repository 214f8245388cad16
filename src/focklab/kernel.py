"""Spectral parameters, kernel coefficient series, and the Meijer-G layer.

Case discrimination and root bookkeeping are exact (Fractions throughout):
eta0 comes from the admissibility condition, the roots of the degree-4
Bernstein polynomial B other than one 0 give the primed triple (1 - eta0,
alpha2, alpha3 in root table 1), and the shifted polynomial Btilde supplies
the four b-roots feeding the Meijer parameters alpha = (eta0-1, eta0),
beta_j = eta0 + b_j - 1.

The weight G^{4,0}_{2,4} reduces to G^{3,0}_{1,3} (one beta equals alpha2 in
every catalog row), represented once by its Mellin symbol F(s) = prod
Gamma(beta_j + s) / Gamma(alpha1 + s) (MeijerParams.symbol), through which
every numeric path reads F, one Gamma per residue class of its parameters
mod 1: MeijerEvaluator takes G below e^-12 from its residue series (DLMF
16.17.2), then by Mellin-Barnes quadrature on one contour, and far out from
its asymptotic series (DLMF 16.11), each built once per class of symbols a
common shift apart (see MeijerEvaluator); the moments int G(u) u^m du =
F(m + 1) come with a certified error bound, and the case-(1) Bergman
cross-check reduces to them through exact Beta integrals.  That G takes both
signs is proved from the exact sign of F at two rationals
(MellinSymbol.sign_change) and located on a grid.

The exact c_m series is the 1F2 or 2F3 coefficient sequence of its Pochhammer
parameters (SpectralParams.c_step): from c_0 = 1, each c_{m+1} / c_m is the
quotient of products pochhammer_ratio forms on integers (DLMF 16.2).
moment_check proves the (c a)_m law against F's step as a polynomial
identity in a formal m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from typing import Iterator

from focklab.bernstein import (
    A_RING,
    M_RING,
    a_ratio_polys,
    big_b_poly,
    btilde_roots,
    case_b_poly,
    case_b_roots,
)
from focklab.fock import beta_integral
from focklab.gammaratio import MellinSymbol, mpq
from focklab.jordan import CaseDescriptor, build_case
from focklab.polyalg import MultiPoly, product
from focklab.report import CheckReport, check_report, terms_failure
from focklab.sl2 import eta0_of, forced_eta0


# -- spectral parameters -------------------------------------------------------


@dataclass(frozen=True)
class SpectralParams:
    eta0: Fraction
    roots: tuple[Fraction, ...]  # the primed triple a': B's roots, descending, one 0 removed

    @property
    def kind(self) -> str:
        """The kernel series' hypergeometric type: OneF2 when B(1 - eta0) = 0
        (root table 1: a' holds 1 - eta0, so the step's m + 1 is the series'
        own m!), TwoF3 otherwise (root table 2)."""
        return "OneF2" if 1 - self.eta0 in self.roots else "TwoF3"

    @property
    def c_step(self) -> tuple[tuple[Fraction], tuple[Fraction, ...]]:
        """(upper, lower) of c_{m+1} / c_m = (m + eta0 + 1) / prod_j (m + eta0 + a_j')."""
        return (self.eta0 + 1,), tuple(self.eta0 + a for a in self.roots)


def _spectral_params_at(case: CaseDescriptor, eta0: Fraction) -> SpectralParams:
    """eta0 with B's roots, descending, once one 0 goes (B(0) = 0 must hold)."""
    roots = sorted(case_b_roots(case), reverse=True)
    if 0 not in roots:
        raise AssertionError("B(0) = 0 must hold")
    roots.remove(0)
    return SpectralParams(eta0, tuple(roots))


def spectral_params(case: CaseDescriptor, q) -> SpectralParams:
    return _spectral_params_at(case, eta0_of(case, q))


# -- kernel coefficient series ---------------------------------------------------


@dataclass
class KernelSeries:
    kind: str  # "OneF2" or "TwoF3"
    coeffs: list[Fraction]


def pochhammer_step(*xs: Fraction) -> MultiPoly:
    """prod_j (x_j + m), the step (x_j)_{m+1} / (x_j)_m of a Pochhammer product, in m."""
    return product(M_RING, (MultiPoly(M_RING, {(1,): 1, (0,): x}) for x in xs))


def pochhammer_ratio(upper, lower, m) -> Fraction:
    """prod_j (m + upper_j) / prod_j (m + lower_j) at an integer or rational m.

    The step of (upper)_m / (lower)_m from m to m + 1.  Every factor is taken
    in integers over the common denominator of m and the parameters, and one
    Fraction is formed at the end; a vanishing lower factor raises
    ZeroDivisionError.
    """
    d = math.lcm(m.denominator, *(x.denominator for x in (*upper, *lower)))
    dm = m.numerator * (d // m.denominator)
    num = math.prod(dm + x.numerator * (d // x.denominator) for x in upper)
    den = math.prod(dm + x.numerator * (d // x.denominator) for x in lower)
    return Fraction(num * d ** len(lower), den * d ** len(upper))


def c_sequence(case: CaseDescriptor, q, m_max: int = 50) -> KernelSeries:
    """Kernel coefficients c_0..c_m_max from c_0 = 1 and the step SpectralParams.c_step,
    so c_m = (eta0 + 1)_m / prod_j (eta0 + a_j')_m."""
    sp = spectral_params(case, q)
    upper, lower = sp.c_step
    coeffs = [Fraction(1)]
    for m in range(m_max):
        coeffs.append(coeffs[-1] * pochhammer_ratio(upper, lower, m))
    return KernelSeries(sp.kind, coeffs)


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
    def params(case):
        return f".p{case.params}" if case.params else ""

    for case, q1, expected in _case1_rows():
        sp = _spectral_params_at(case, forced_eta0(case, q1))
        exp_eta0, exp_one_minus, exp_set = expected(case)
        rest = list(sp.roots)
        if sp.kind == "OneF2":
            rest.remove(1 - sp.eta0)
        ok = (sp.kind == "OneF2" and sp.eta0 == exp_eta0
              and 1 - sp.eta0 == exp_one_minus and set(rest) == exp_set)
        yield check_report(
            "kernel.table1", case, (q1,), params(case), q_in_id=False,
            failure=None if ok else f"got eta0={sp.eta0} roots={sp.roots} kind={sp.kind}",
            details=f"expected eta0={exp_eta0} roots={sorted(exp_set)}",
        )
    for case, q1_samples, expected in _case2_rows():
        for q1 in q1_samples:
            sp = _spectral_params_at(case, forced_eta0(case, q1))
            exp_eta0, exp_list = expected(case, q1)
            ok = sp.kind == "TwoF3" and sp.eta0 == exp_eta0 and sorted(sp.roots) == sorted(exp_list)
            yield check_report(
                "kernel.table2", case, (q1,), f".q{q1}{params(case)}", q_in_id=False,
                failure=None if ok else f"got eta0={sp.eta0} roots={sp.roots} kind={sp.kind}",
                details=f"expected eta0={exp_eta0} roots={sorted(exp_list)}",
            )


# -- Meijer parameters -----------------------------------------------------------


@dataclass(frozen=True)
class MeijerParams:
    alpha: tuple[Fraction, Fraction]
    beta: tuple[Fraction, Fraction, Fraction, Fraction]

    @property
    def symbol(self) -> MellinSymbol:
        """The Mellin symbol of the weight, once one beta cancels alpha2 = eta0:
        G^{4,0}_{2,4} -> G^{3,0}_{1,3}, F(s) = prod Gamma(beta_j + s) / Gamma(alpha1 + s)."""
        betas = list(self.beta)
        if self.alpha[1] not in betas:
            raise AssertionError("expected alpha/beta cancellation is missing")
        betas.remove(self.alpha[1])
        return MellinSymbol(tuple(betas), (self.alpha[0],))


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
            ok = mp.alpha == (a1, a2) and sorted(mp.beta) == sorted(betas)
            cancel = mp.alpha[1] in mp.beta  # what MeijerParams.symbol needs
            broken = ([] if ok else [f"got {mp.alpha} {mp.beta}"]) + (
                [] if cancel else [f"alpha2 = {mp.alpha[1]} not in beta"])
            yield check_report(
                "meijer.params", case, (q1,), f".q{q1}", failure="; ".join(broken), q_in_id=False,
                details=f"expected alpha=({a1},{a2}) beta={sorted(betas)}; "
                f"cancellation={'yes' if cancel else 'NO'}",
            )


def q0_reduction_check(case: CaseDescriptor) -> CheckReport:
    """For all-zero q: Btilde(a) = B(a - eta0) as an exact polynomial identity."""
    q = tuple(Fraction(0) for _ in case.factors)
    eta0 = eta0_of(case, q)  # raises if q=0 is inadmissible for this case
    btilde = product(A_RING, (big_b_poly(f).shift((-f.eta0_shift,)) for f in case.factors))
    return check_report("kernel.q0reduction", case, q, q_in_id=False,
                        failure=terms_failure(btilde - case_b_poly(case).shift((-eta0,))))


# -- Meijer-G evaluation -----------------------------------------------------------


# the float tail of a contour table may carry at most this share of w_abs in
# its summed error bound: a tenth of the roundoff floor 1e-16 w_abs u^(-c),
# which the floor of eval_grid charges ten times over
TAIL_SHARE = 1e-17

# the contour serves at most |ln u| <= LOG_U_BUDGET: its step h keeps aliasing
# under the roundoff floor there (see MeijerEvaluator); below, the residue
# series serves, and above, from a switch point on, the asymptotic series
LOG_U_BUDGET = 12.0


@lru_cache(maxsize=64)
def _contour_table(rel: MellinSymbol, offset: Fraction, precision: int) -> dict:
    """The trapezoidal table of one contour, for the symbol rel relative to it.

    With c = offset - min b, F(c + i t) = rel(offset + i t), and the contour
    lies d = offset right of the rightmost pole; nothing else enters, so a
    shift class shares the table.  Only the nodes t_k = k h, k >= 0, are
    tabulated: weight h/pi for k > 0 and h/(2 pi) at k = 0.

    rel.line gives F and a relative error bound eps_k at every node; k0 is
    the smallest index with sum_{k >= k0} eps_k |fw_k| <= TAIL_SHARE w_lo,
    where w_lo = sum (1 - eps_k) |fw_k| bounds w_abs from below.  The nodes
    k < k0, where the weights matter, are recomputed with rel.line_mp, and
    every float value there must lie within its eps_k of the mpmath one, or
    the build raises.  So the weights fw_k, k < k0, are the mpmath ones,
    and the float tail k >= k0 is off from the exact weights by at most
    tail_bound <= TAIL_SHARE w_abs = 1e-17 w_abs in total.

    The n weights fw_k are stored once, in the block layout of the
    baby-step/giant-step sum: with size = ceil(sqrt n) and
    count = ceil(n / size), blocks[b, a] = fw_{a size + b}, zero past k = n - 1.
    steps holds -i b h for b < size, then -i a size h for a < count.
    The arrays are read-only, since every evaluator with this key holds them.
    """
    import numpy as np

    decay = len(rel.b) - len(rel.a)
    omega = float(sum(rel.b) - sum(rel.a) + decay * (offset - Fraction(1, 2)))
    target = (precision + 4) * math.log(10) + LOG_U_BUDGET + max(omega, 0.0) * 4.0 + 8.0
    T = max(10.0, 2.0 * target / (decay * math.pi))
    d = float(offset)
    h = 2.0 * math.pi / ((precision + 4) * math.log(10) / d + LOG_U_BUDGET)
    nodes = h * np.arange(math.ceil(T / h) + 1)
    f_float, eps = rel.line(offset, nodes)
    # F(c - i t) = conj F(c + i t): the k < 0 half of the two-sided rule is
    # the conjugate of the k > 0 half, so its weight folds onto k > 0
    weights = np.full(len(nodes), h / math.pi)
    weights[0] /= 2.0
    fw_float = f_float * weights
    err = eps * np.abs(fw_float)
    w_lo = float(((1.0 - eps) * np.abs(fw_float)).sum())
    tails = np.append(np.cumsum(err[::-1])[::-1], 0.0)  # tails[k] = sum_{j >= k} err_j
    k0 = int(np.argmax(tails <= TAIL_SHARE * w_lo))
    f_mp = np.array(rel.line_mp(offset, nodes[:k0], precision), dtype=complex)
    off = np.abs(f_float[:k0] - f_mp) > eps[:k0] * np.abs(f_mp)
    if off.any():
        k = int(np.argmax(off))
        raise AssertionError(
            f"float Gamma ratio outside its bound at node {k}: {f_float[k]} vs "
            f"mpmath {f_mp[k]}, relative bound {eps[k]:.1e}")
    fw = np.concatenate([f_mp, f_float[k0:]]) * weights
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
            "k0": k0, "tail_bound": float(tails[k0])}


# u per pass of MeijerEvaluator.eval_grid: bounds its (chunk, size + count)
# phase array whatever the grid length
EVAL_CHUNK = 512

# the residue series takes poles until the Mellin-Barnes line left of them
# bounds the rest, at u = e^-LOG_U_BUDGET, by SERIES_TAIL of its largest term
SERIES_TAIL = 1e-17

# the log-u trapezoid of MeijerEvaluator.moment: its step, at which aliasing
# stays under 3.2e-31 |mu| on every feasible pair up to m = 12
MOMENT_STEP = 0.125

# _upper_tail's line is Re s = m + 1 + UPPER_TAIL_SHIFT: of shifts 2, 4, ..., 64
# this one bounds best on every feasible pair up to m = 12
UPPER_TAIL_SHIFT = 64

# G's asymptotic series is cut at its smallest of this many terms (_expansion)
ASYMPTOTIC_TERMS = 64

# relative tolerance of every trapezoid moment against its exact value
# (moment_check) and of the Bergman cross-check (bergman_norm_case1)
REL_TOL = 1e-10


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
def _residues(symbol: MellinSymbol, precision: int
              ) -> tuple[Fraction, float, tuple[tuple[Fraction, tuple[float, ...]], ...]]:
    """The residue series of G^{q,0}_{p,q}(u; a; b) near u = 0, poles of any order.

    Built for the relative symbol (F shifted by -min b), as _contour_table
    is; the evaluator shifts c and the exponents back (_residue_series).
    G(u) is the sum of Res F(s) u^{-s} over the poles of F right of a line
    Re s = c through no pole, plus the Mellin-Barnes integral on that line,
    at most u^{-c} W(c) (_log_line_l1; DLMF 16.17.2, in its confluent
    limit).  Returns (c, log W(c), poles); the pole at s = -e (e exact) adds
    u^e sum_d c_d (log u)^d, c_d = f_{-1-d} (-1)^d / d! from the Laurent
    series F(s + eps) = sum_k f_k eps^k.

    The b_j are grouped by value mod 1; a group's poles are s0 - n, n >= 0,
    s0 = -min of the group.  A walk starts from F's Taylor series
    (MellinSymbol.taylor) at a point s = s0 + k right of every Gamma pole,
    at max(20, precision + 8) digits, and F's exact step F(s - 1 + eps) =
    F(s + eps) prod (a + s - 1 + eps) / prod (b_j + s - 1 + eps) leads it down
    to s0 and on from pole to pole; it divides by eps once per b_j of the
    group (so r terms from eps^0 keep f_-1 known for a group of r) and
    multiplies by eps at each zero of 1/Gamma(a + s), so a pole's order
    counts both: case (5)'s F = s Gamma(1 + s)^2 has double poles, and case
    (10d) with q = (0, 8) none above s = -13.

    The lines c sit mid-way in the widest gap between the poles mod 1 and
    step left one at a time, taking every pole right of c, until at
    u = e^-B, B = LOG_U_BUDGET, e^{B c} W(c) is at most SERIES_TAIL times
    the largest term.
    """
    import mpmath as mp

    def times_linear(series, c: Fraction, power: int):
        # (low, [f_low, f_low+1, ...]) times (c + eps)^power, power = +-1,
        # to the same top order
        low, f = series
        if c == 0:
            return low + power, f
        c = mpq(c)
        if power > 0:
            return low, [c * x + y for x, y in zip(f, [0] + f[:-1])]
        out = []
        for x in f:
            out.append((x - (out[-1] if out else 0)) / c)
        return low, out

    def walk(s0: Fraction, length: int):
        # from a point s = s0 + k where every Gamma argument is positive
        s = s0 + max(0, math.floor(-min(symbol.a + symbol.b) - s0) + 1)
        series = (0, symbol.taylor(s, length))
        while True:
            if s <= s0:
                low, f = series
                yield s, tuple(float(f[-1 - d - low] * (-1) ** d / math.factorial(d))
                               for d in range(-low))
            step = symbol.shifted(s - 1)
            steps = [(x, 1) for x in step.a] + [(x, -1) for x in step.b]
            series = reduce(lambda sr, cp: times_linear(sr, *cp), steps, series)
            s -= 1

    groups = {x % 1: [y for y in symbol.b if (y - x) % 1 == 0] for x in symbol.b}
    fracs = sorted((-x) % 1 for x in groups)
    gap, start = max((nxt - f, f) for f, nxt in zip(fracs, fracs[1:] + [fracs[0] + 1]))
    c = start + gap / 2 + math.floor(-min(symbol.b) - start - gap / 2)
    taken, logs = [], []
    with mp.workdps(max(20, precision + 8)):
        walks = [walk(-min(g), len(g)) for g in groups.values()]
        heads = [next(w) for w in walks]
        for _ in range(64):
            for i, w in enumerate(walks):
                while heads[i][0] > c:
                    s, coeffs = heads[i]
                    size = sum(abs(x) * LOG_U_BUDGET ** d for d, x in enumerate(coeffs))
                    if size > 0:
                        taken.append((-s, coeffs))
                        logs.append(LOG_U_BUDGET * float(s) + math.log(size))
                    heads[i] = next(w)
            log_w = _log_line_l1(symbol, c)
            if logs and LOG_U_BUDGET * float(c) + log_w <= math.log(SERIES_TAIL) + max(logs):
                return c, log_w, tuple(taken)
            c -= 1
    raise ArithmeticError(f"no line left of {len(taken)} poles bounds the residue series' rest")


@lru_cache(maxsize=64)
def _asymptotic(rel: MellinSymbol):
    """(lambda, M): G(u) ~ e^{-2x} sum_k M_k x^{lambda - k}, x = sqrt u, k <= ASYMPTOTIC_TERMS.

    lambda = sum b - a - 1/2 and M_0 = sqrt(pi) (DLMF 16.11(ii); Luke, The
    Special Functions and Their Approximations I, 5.7, 1969).  The series in
    G's equation u (theta - a + 1) G = prod_j (theta - b_j) G, theta = u d/du
    (DLMF 16.21.1), leaves n M_n = -(M_{n-1} e1 + M_{n-2} e0), e1 and e0
    symmetric in y_j = (lambda - n + 1) / 2 - b_j.  As in floats some M_n lose
    1e-3, it runs on integers: with D even and every D y_j integral, E1 =
    D^2 e1, E0 = D^3 e0, R_n = -(R_{n-1} E1 + (n - 1) D R_{n-2} E0) and M_n /
    M_0 = R_n / (n! D^{2n}), rounded once.  A common shift keeps M and moves
    lambda by twice it: callers pass F shifted by -min b.
    """
    import numpy as np

    (a,) = rel.a
    lam = sum(rel.b) - a - Fraction(1, 2)
    ys = [(lam + 1) / 2 - b for b in rel.b]  # y_j at n = 0
    d = 2 * math.lcm(*(y.denominator for y in ys))
    half, ys = d // 2, [y.numerator * (d // y.denominator) for y in ys]
    rows, scale, ratios = [0, 1], 1, [1.0]  # R_{-1}, R_0; n! D^{2n}; M_n / M_0
    for n in range(1, ASYMPTOTIC_TERMS + 1):
        y1, y2, y3 = (y - n * half for y in ys)
        e1 = y1 * y2 + y1 * y3 + y2 * y3 + half * (y1 + y2 + y3 + half)
        e0 = -(y1 + half) * (y2 + half) * (y3 + half)
        rows.append(-(rows[-1] * e1 + (n - 1) * d * rows[-2] * e0))
        scale *= n * d * d
        ratios.append(rows[-1] / scale)
    coeffs = math.sqrt(math.pi) * np.array(ratios)
    coeffs.flags.writeable = False
    return lam, coeffs


def _node_sum(alpha: float, d: int, x0: float, h: float) -> float:
    """h sum_{k >= 1} e^{alpha x_k} x_k^d over x_k = x0 - k h, alpha > 0, closed form.

    x_k^d expands binomially in k, and with q = e^{-alpha h} the sums
    L_j = sum_{k >= 1} k^j q^k obey (1 - q) L_j = q (1 + sum_{i < j} C(j, i) L_i)
    (shift k by one).  For x0 < 0 every term has the sign (-1)^d: nothing cancels.
    """
    q, sums = math.exp(-alpha * h), []
    for j in range(d + 1):
        sums.append(q * (1 + sum(math.comb(j, i) * s for i, s in enumerate(sums)))
                    / -math.expm1(-alpha * h))
    return h * math.exp(alpha * x0) * sum(math.comb(d, j) * x0 ** (d - j) * (-h) ** j * s
                                          for j, s in enumerate(sums))


@lru_cache(maxsize=4096)
def _log_line_l1(symbol: MellinSymbol, c: Fraction) -> float:
    """log of a bound W(c) on (1/2pi) int |F(c + i t)| dt, so the Mellin-Barnes
    integral on Re s = c is at most u^{-c} W(c) in absolute value.

    For a line through no pole of the numerator Gammas.  |F| is bounded node
    by node by MellinSymbol.log_abs_line and summed by the trapezoidal rule
    with step 1/8 out to where it has fallen e^40 below its peak (F(c - i t)
    is the conjugate of F(c + i t)); the sum is doubled to cover the rule's
    error and the tail.  W of F(s + sigma) at c is W of F at c + sigma, so
    callers pass the relative symbol (F shifted by -min b) and share the cache.
    """
    import numpy as np

    step = 0.125
    for t_max in (16, 64, 256, 1024, 4096):
        ts = step * np.arange(int(t_max / step) + 1)
        logs, delta = symbol.log_abs_line(c, ts)
        logs += delta
        peak = float(logs.max())
        if logs[-1] < peak - 40:
            break
    else:
        raise ArithmeticError(f"|F| has not decayed by t = {t_max} on Re s = {c}")
    weights = np.exp(logs - peak)
    weights[0] /= 2
    return peak + math.log(2 * step * float(weights.sum()) / math.pi)


class MeijerEvaluator:
    """G(u), the function with Mellin symbol F, via one vertical Mellin-Barnes contour.

    G(u) = (1/2pi) * integral over t of F(c + i t) u^{-c - i t} dt on a line
    Re s = c strictly right of every pole of the numerator Gammas.
    Super-exponential Gamma decay (|F| ~ |t|^w e^{-pi |t|} after the 3-vs-1
    cancellation) lets the line be truncated at |t| <= T, and on it the
    integral is taken by the trapezoidal rule: nodes t_k = k h, every weight
    h.  F(c - i t) = conj F(c + i t), so the sum is real and needs the nodes
    k >= 0 only, with weight 2h on k > 0 and h at k = 0.  F is tabulated
    there once, as the weights fw_k (see _contour_table): from the symbol's
    mpmath line on the leading nodes, and from its bounded float line on the
    rest, whose summed error is at most a tenth of the roundoff floor.

    Evaluation.  With z = e^{-i h ln u}, G(u) = u^{-c} Re sum_{k < n} fw_k z^k
    is summed by baby-step/giant-step (Paterson and Stockmeyer, SIAM J.
    Comput. 2, 1973): sum_a w^a sum_b fw_{a size + b} z^b, size = ceil(sqrt n),
    w = z^size.  Each power is computed directly, z^b = e^{-i (b h) ln u}, so
    its rounding is that of a direct e^{-i t_k ln u}, which the roundoff floor
    covers.  eval_grid sums EVAL_CHUNK u at a time (eval is it on one u), by
    an einsum on one thread, where a matrix product would add BLAS threads.

    Beyond the contour.  Its roundoff floor 1e-15 w_abs u^{-c} outgrows G as
    u falls, and as u grows.  Below e^-LOG_U_BUDGET G comes from its residue
    series (_residues; a pole of order r gives u^{-s} times a polynomial of
    degree r - 1 in log u), whose floor is 1e-15 times the terms' magnitudes
    plus the bound u^{-c} W(c) on the line left of the poles taken.  From
    ln u = switch <= LOG_U_BUDGET on, the first ln u = k MOMENT_STEP > 0 where
    its floor is below the contour's, G comes from its asymptotic series.

    Shared tables.  u^sigma G(u; a, b) = G(u; a + sigma, b + sigma) (DLMF
    16.19.2, https://dlmf.nist.gov/16.19): F(c + i t) is the relative symbol
    (F shifted by -min b) at c + min b + i t.  So the contour table (offset
    5/4), the residue series, the line bounds W(c) and the asymptotic series
    are built once per shift class; the evaluator shifts back exactly.

    Step size.  By Poisson summation the untruncated rule on Re s = c gives
    G_h(u) = sum_k e^{2 pi k c / h} G(u e^{2 pi k / h}) over every integer k.
    With d = c + min beta, the distance from the contour to the rightmost
    pole, h = 2 pi / ((precision + 4) ln 10 / d + LOG_U_BUDGET) makes both
    leading k != 0 terms negligible against the roundoff floor 1e-16 w_abs
    u^{-c} for every |ln u| <= LOG_U_BUDGET, the range the contour serves:

    - k = -1 samples G near 0, where G(v) = O(v^{min beta}); relative to
      u^{-c} it is O(u^d e^{-2 pi d / h}) <= 10^{-(precision+4)} for
      ln u <= LOG_U_BUDGET, and unbounded above it, which is why the contour
      never serves u above e^LOG_U_BUDGET;
    - k = +1 samples G at v = u e^{2 pi / h} >= e^{(precision+4) ln 10 / d},
      far out on its super-exponentially decaying tail; this is the term
      that binds at small u, and the reason LOG_U_BUDGET enters h.
    """

    def __init__(self, symbol: MellinSymbol, precision: int = 12):
        import numpy as np

        self.symbol = symbol
        self.precision = precision
        self._shift = min_b = min(symbol.b)
        self._rel, offset = symbol.shifted(-min_b), Fraction(5, 4)
        self.contours = [dict(_contour_table(self._rel, offset, precision),
                              c=float(offset - min_b))]
        lam, self._coeffs = _asymptotic(self._rel)
        self._lam, self._min_b = float(lam), float(min_b)
        log_us = MOMENT_STEP * np.arange(1, round(LOG_U_BUDGET / MOMENT_STEP) + 1)
        ct = self.contours[0]
        better = (self._expansion(np.exp(log_us), log_us)[1]
                  < 1e-15 * ct["w_abs"] * np.exp(-ct["c"] * log_us))
        self.switch = float(log_us[np.argmax(better)]) if better.any() else LOG_U_BUDGET

    def _evaluate(self, us, log_us):
        """(G, its roundoff floor) at arrays of u and of their logs: below
        e^-LOG_U_BUDGET from the residue series (_series), from e^switch on from
        the asymptotic series (_expansion), between from the contour, with floor
        1e-15 w_abs u^{-c}.  ValueError where G(u) or its floor is not finite."""
        import numpy as np

        values = np.empty(len(us))
        noise = np.empty(len(us))
        below = log_us < -LOG_U_BUDGET
        far = log_us >= self.switch
        mid = ~(below | far)
        ct = self.contours[0]
        with np.errstate(over="ignore", invalid="ignore"):
            for sel, part in ((below, self._series), (far, self._expansion)):
                if sel.any():
                    values[sel], noise[sel] = part(us[sel], log_us[sel])
            scale = us[mid] ** (-ct["c"])
            values[mid] = _contour_sum(ct, log_us[mid]) * scale
            noise[mid] = 1e-15 * ct["w_abs"] * scale
        bad = ~(np.isfinite(values) & np.isfinite(noise))
        if bad.any():
            raise ValueError(f"u = {float(us[bad][0])!r} is out of range: G(u) or its "
                             "roundoff floor is not a finite float")
        return values, noise

    def _expansion(self, us, log_us):
        """(G, its floor) at arrays of u and of their logs: u^{min b} e^E
        sum_{k < K} M_k x^{-k}, x = sqrt u, E = lambda ln x - 2x (_asymptotic of
        the relative symbol), cut at its smallest term k = K < ASYMPTOTIC_TERMS.
        The floor, scaling with u^{min b}, is twice the larger of terms K and
        K + 1 (a term can dip far below its neighbours), plus 1e-15 (1 + |E| +
        2x) sum_{k < K} |term k| for rounding.  That it bounds the truncation
        error is validated against dps-30 mpmath, not proved: on the 36
        feasible pairs at ln u = 2 to 8 step 1/4, e^10 and 1e5 (972 points) no
        error exceeded 0.56 of it.
        """
        import numpy as np

        x, ln_x = np.sqrt(us), log_us / 2
        exponent = self._lam * ln_x - 2 * x
        k = np.arange(len(self._coeffs))
        terms = self._coeffs * np.exp(np.multiply.outer(-ln_x, k))
        mags = np.abs(terms)
        cut = np.argmin(mags[:, :-1], axis=1)
        kept = np.where(k < cut[:, None], terms, 0.0)
        size = 1e-15 * (1 + np.abs(exponent) + 2 * x) * np.abs(kept).sum(axis=1)
        rows = np.arange(len(cut))
        omitted = np.maximum(mags[rows, cut], mags[rows, cut + 1])
        scale = np.exp(exponent + self._min_b * log_us)  # u^{min b} e^E, no overflow
        return scale * kept.sum(axis=1), scale * (2 * omitted + size)

    def _series(self, us, log_us):
        """(G, its floor) at arrays of u and of their logs from the residue series:
        1e-15 times the terms' magnitudes plus u^{-c} W(c), the bound on the rest."""
        import numpy as np

        c, log_w, poles = self._residue_series
        values = size = 0.0
        abs_log = np.abs(log_us)
        for e, coeffs in poles:
            poly = poly_abs = 0.0
            for x in reversed(coeffs):
                poly = poly * log_us + x
                poly_abs = poly_abs * abs_log + abs(x)
            power = us ** e
            values += power * poly
            size += power * poly_abs
        return values, 1e-15 * size + np.exp(log_w - float(c) * log_us)

    @cached_property
    def _residue_series(self):
        """_residues of the relative symbol shifted back, as G(u) = u^{min b} G_rel(u)."""
        c, log_w, poles = _residues(self._rel, self.precision)
        return c - self._shift, log_w, tuple((float(e + self._shift), d) for e, d in poles)

    def eval(self, u: float) -> float:
        """G(u); ValueError where eval_grid raises one for it."""
        return float(self.eval_grid([u])[0][0])

    def eval_grid(self, us):
        """(G, its absolute roundoff floor) at every u of a 1-D sequence, as
        arrays, EVAL_CHUNK u at a time (see _evaluate)."""
        import numpy as np

        us = np.asarray(us, dtype=float)
        if (us <= 0).any():
            raise ValueError("u must be positive")
        values = np.empty(len(us))
        noise = np.empty(len(us))
        for start in range(0, len(us), EVAL_CHUNK):
            u = us[start:start + EVAL_CHUNK]
            chunk = slice(start, start + EVAL_CHUNK)
            values[chunk], noise[chunk] = self._evaluate(u, np.log(u))
        return values, noise

    @cached_property
    def _moment_grid(self):
        """(x, G(e^x), its floor) at x = -LOG_U_BUDGET + k MOMENT_STEP up to LOG_U_BUDGET."""
        import numpy as np

        count = round(2 * LOG_U_BUDGET / MOMENT_STEP)
        x = -LOG_U_BUDGET + MOMENT_STEP * np.arange(count + 1)
        return (x, *self._evaluate(np.exp(x), x))

    def moment(self, m: int) -> tuple[float, float]:
        """(integral of G(u) u^m du = F(m + 1), a bound on its absolute error).

        The trapezoidal rule in x = log u with step h = MOMENT_STEP over the
        whole line: h sum_k e^{(m+1) x_k} G(e^{x_k}), x_k = x0 + k h, x0 =
        -LOG_U_BUDGET.  The nodes up to LOG_U_BUDGET take G from one grid
        that every m reuses; below x0 each residue-series term u^e (log u)^d
        sums in closed form (_node_sum).  m need not be an integer.  The
        error bound (moment_check fails one that is not finite) is the sum of

        - the propagated roundoff, h sum_k e^{(m+1) x_k} f(e^{x_k}) with f the
          floor of _evaluate, and the series' own floor;
        - the aliasing (_aliasing), exact by Poisson summation;
        - the nodes above LOG_U_BUDGET (_upper_tail), and below x0 the
          rest of the residue series, each bounded by a Mellin-Barnes line:
          |G(u)| <= u^{-c} W(c) (_log_line_l1).

        The rule converges geometrically in 1/h for this analytic integrand
        (Trefethen and Weideman, SIAM Review 56 (2014) 385-458).
        """
        import numpy as np

        x, g, noise = self._moment_grid
        weight = MOMENT_STEP * np.exp((m + 1) * x)
        value = float((weight * g).sum())
        err = float((weight * noise).sum()) + self._aliasing(m) + self._upper_tail(m)
        low, low_err = self._series_moment(m)
        return value + low, err + low_err

    def _series_moment(self, m: int) -> tuple[float, float]:
        """The nodes below -LOG_U_BUDGET from the residue series: (sum, error bound).

        The bound is the series' floor plus the rest on its line Re s = c:
        h W(c) sum_{k >= 1} e^{(m + 1 - c) x_k}.
        """
        c, log_w, poles = self._residue_series
        x0, h = -LOG_U_BUDGET, MOMENT_STEP
        value = size = 0.0
        for e, coeffs in poles:
            if e + m + 1 <= 0:
                raise ValueError(f"moment {m} diverges at u = 0")
            for d, x in enumerate(coeffs):
                term = x * _node_sum(e + m + 1, d, x0, h)
                value += term
                size += abs(term)
        return value, 1e-15 * size + _node_sum(m + 1 - float(c), 0, x0, h) * math.exp(log_w)

    def _upper_tail(self, m: int) -> float:
        """Bound on the nodes above LOG_U_BUDGET, on one line Re s = c = m + 1 + d.

        With d = UPPER_TAIL_SHIFT, h sum_{k >= 1} e^{(m+1) x_k} |G(e^{x_k})|
        <= W(c) h sum_{k >= 1} e^{-d x_k}, x_k = LOG_U_BUDGET + k h: _node_sum
        in -x, whose factor e^{-d LOG_U_BUDGET} would underflow, in log space.
        """
        d = UPPER_TAIL_SHIFT
        if m + 1 + d <= -min(self.symbol.b):
            raise ValueError(f"moment {m}: a pole lies on or right of its upper-tail line")
        log_w = _log_line_l1(self._rel, Fraction(m + 1 + d) + self._shift)
        return math.exp(log_w - d * LOG_U_BUDGET + math.log(_node_sum(d, 0, 0.0, MOMENT_STEP)))

    def _aliasing(self, m: int) -> float:
        """Bound on the aliasing error of the bi-infinite rule.

        By Poisson summation that error is exactly sum_{n != 0} F(m + 1 + 2 pi i n / h),
        F the Mellin transform of G; F is real on the real axis, so it is at
        most 2 sum_{n >= 1} |F(m + 1 + 2 pi i n / h)|.  Four terms are
        bounded node by node by MellinSymbol.log_abs_line, the rest by the
        geometric series of the last two: |F| falls like e^{-pi t} there.
        """
        import numpy as np

        ts = 2 * math.pi / MOMENT_STEP * np.arange(1, 5)
        logs, delta = self.symbol.log_abs_line(m + 1, ts)
        logs += delta
        ratio = math.exp(logs[-1] - logs[-2])
        if ratio >= 1:
            return math.inf
        return 2 * (float(np.exp(logs).sum()) + math.exp(logs[-1]) * ratio / (1 - ratio))


@lru_cache(maxsize=64)
def _evaluator_cached(symbol: MellinSymbol, precision: int) -> MeijerEvaluator:
    return MeijerEvaluator(symbol, precision)


def meijer_evaluator(case: CaseDescriptor, q, precision: int = 12) -> MeijerEvaluator:
    """The shared evaluator of the weight of (case, q), one per symbol and precision."""
    return _evaluator_cached(meijer_params(case, q).symbol, precision)


def moment_check(
    case: CaseDescriptor, q, m_max: int = 5, precision: int = 12,
) -> Iterator[CheckReport]:
    """Trapezoid moments of G vs its Mellin symbol F and (c a)_m.

    Checks (ii) the exact identity c_{m+1} a_{m+1} / (c_m a_m) =
    F(m+1) / F(m+2) = (alpha1+m+1) / prod (beta_j+m+1), the step of the
    weight's own symbol, as rational functions of a formal m, so that with
    c_0 = 1, c_m a_m / a_0 = F(1) / F(m+1) for every m; then, for
    m = 0..m_max: (i) integral G(u) u^m du equals F(m+1) to REL_TOL, and
    within the moment's own error bound, which must be finite
    (MeijerEvaluator.moment); (iii) the
    moments match 1/(C (c a)_m) with C fitted at m = 0, to REL_TOL.  Yields
    the report of (ii) first, then one per moment; the evaluator is built
    just before moment 0, whose report carries that time.
    """
    symbol = meijer_params(case, q).symbol

    # (ii) cross-multiplied: c_ratio * a_ratio == rhs
    upper, lower = spectral_params(case, q).c_step
    a_num, a_den = a_ratio_polys(case, q)
    step = symbol.shifted(1)
    yield check_report(
        "meijer.camoment", case, q, failure=terms_failure(
            pochhammer_step(*upper) * a_num * pochhammer_step(*step.b)
            - pochhammer_step(*step.a) * pochhammer_step(*lower) * a_den),
        details="exact (c a)_m Pochhammer identity, all m")
    # r[m] = c_m a_m / a_0 from the right-hand side, reused by (iii)
    r = [Fraction(1)]
    for m in range(m_max):
        r.append(r[-1] * pochhammer_ratio(step.a, step.b, m))

    ev = _evaluator_cached(symbol, precision)
    mu0 = None
    for m in range(m_max + 1):
        mu, err_bound = ev.moment(m)
        g = symbol.at(m + 1, precision)
        rel = abs(mu - g) / abs(g)
        if m == 0:
            mu0 = mu
        # (iii): mu_m / mu_0 must equal 1/r[m] with r[m] the exact ratio above
        rel_ca = abs(mu / mu0 - 1.0 / float(r[m])) / (1.0 / float(r[m]))
        finite = math.isfinite(err_bound)  # an infinite bound would accept any error
        ok = finite and rel <= REL_TOL and rel_ca <= REL_TOL and abs(mu - g) <= err_bound
        residual = f"{max(rel, rel_ca):.3e}" if finite else f"err_bound={err_bound} not finite"
        yield check_report(
            "meijer.moment", case, q, f".{m}", failure=None if ok else residual,
            residual=residual, tolerance=f"{REL_TOL:.0e}",
            details=f"trapezoid={mu:.12e} err_bound={err_bound:.1e} "
            f"gamma={g:.12e} C={1.0 / mu0:.6e}",
        )


# -- weight and sign scan -----------------------------------------------------------


def sign_scan(
    case: CaseDescriptor, q, grid: int = 240, precision: int = 12,
) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
    """Evaluate G on a log grid of at least 2 points; return (samples, sign-change brackets).

    A sample with |G| within its roundoff floor (see _evaluate) has no sign:
    a bracket spans two consecutive samples above their floors whose signs
    differ, so roundoff around a small G counts as no sign change.
    """
    import numpy as np

    if grid < 2:
        raise ValueError(f"grid must have at least 2 points, got {grid}")
    ev = meijer_evaluator(case, q, precision)
    u_min, u_max = 1e-3, 60.0
    us = [u_min * (u_max / u_min) ** (i / (grid - 1)) for i in range(grid)]
    values, noise = ev.eval_grid(us)
    above = np.flatnonzero(np.abs(values) > noise)
    positive = values[above] > 0
    brackets = [(us[above[k]], us[above[k + 1]])
                for k in np.flatnonzero(positive[:-1] != positive[1:])]
    return list(zip(us, values.tolist())), brackets


def sign_scan_report(case: CaseDescriptor, q, **kw) -> CheckReport:
    """G changes sign: proved exactly from its Mellin symbol (sign_change) and
    located by sign_scan; the report passes only when both hold."""
    vals, brackets = sign_scan(case, q, **kw)
    proof = meijer_params(case, q).symbol.sign_change()
    residual = f"{len(brackets)} sign changes"
    return check_report(
        "weight.sign", case, q, failure=None if brackets and proof else residual,
        residual=residual,
        details=(f"exact: F({proof[0]}) < 0 < F({proof[1]})" if proof
                 else "no exact sign change of F") +
        f"; first bracket={brackets[0] if brackets else None}",
    )


# -- case-(1) Bergman cross-check ------------------------------------------------------


def bergman_norm_case1(
    q: int, components: list[tuple[int, dict[int, complex]]],
    precision: int = 12,
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
    bounds through that ratio; the check fails when it is not finite or the
    sides differ by more than it or by more than REL_TOL.
    """
    if len(components) > 3:
        raise ValueError("at most 3 graded components")
    case = build_case(1)
    qvec = (Fraction(q),)
    ev = meijer_evaluator(case, qvec, precision)
    c_m = c_sequence(case, qvec, m_max=max((m for m, _ in components), default=0)).coeffs

    def graded_value(comps) -> float:
        total = Fraction(0)
        for m, coeffs in comps:
            n = 4 * m + q
            norm = sum(Fraction(abs(c) ** 2) / math.comb(n, j) for j, c in coeffs.items())
            total += norm / c_m[m]
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
    finite = math.isfinite(err_bound)
    ok = finite and rel <= REL_TOL and abs(r_phi - g_phi) <= err_bound
    residual = f"{rel:.3e}" if finite else f"err_bound={err_bound} not finite"
    return check_report(
        "bergman.case1", case, qvec, failure=None if ok else residual, residual=residual,
        tolerance=f"{REL_TOL:.0e}", case_in_id=False, q_in_id=False,
        details=f"graded={g_phi:.10e} trapezoid={r_phi:.10e} err_bound={err_bound:.1e} "
        f"C={c_fit / math.pi:.6e}",
    )
