"""Admissibility constant eta0, delta sequence, and the symbol-level sl2 identity.

The grading constraint q_i/k_i + n_i/(k_i r_i) = eta0 (one equation per factor)
is solved exactly over the rationals; integrality of q_i/k_i is diagnosed
separately (strict lattice vs the order-2-cover half-integer relaxation).

The commutator identity [rho(E), rho(F)] = rho(H) reduces, through
Harish-Chandra images of the Maass operators, to a polynomial identity
p_m(lambda) = sum(lambda) - sum(m_i k_i r_i)/2 in the variables lambda and a
formal m.  pm_identity_check verifies it with exact rational coefficients
after clearing the delta denominators, so the quantifier "for all m" is
discharged in one shot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from focklab.jordan import CaseDescriptor, SimpleFactorDescriptor
from focklab.polyalg import MultiPoly, VarSet, product, rising
from focklab.report import CheckReport, check_report, terms_failure


# -- admissible q -------------------------------------------------------------


@dataclass
class AdmissibleQ:
    """Solution set of the eta0 system for one case, with integrality flags."""

    case_id: str
    constraint: str
    eta0_affine: tuple[Fraction, Fraction]  # eta0 = slope*q1 + intercept
    q_relations: list[tuple[Fraction, Fraction]]  # q_i = a*q1 + b
    strict_feasible: bool
    cover_feasible: bool
    integrality: list[str]
    minimal_q: list[tuple[Fraction, ...]]

    @property
    def feasible(self) -> bool:
        return self.strict_feasible or self.cover_feasible

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "constraint": self.constraint,
            "eta0": f"{self.eta0_affine[0]}*q1 + {self.eta0_affine[1]}",
            "q_relations": [f"q{i + 1} = {a}*q1 + {b}" for i, (a, b) in enumerate(self.q_relations)],
            "strict_feasible": self.strict_feasible,
            "cover_feasible": self.cover_feasible,
            "feasible": self.feasible,
            "integrality": list(self.integrality),
            "minimal_q": [[str(x) for x in q] for q in self.minimal_q],
        }


def validate_q(case: CaseDescriptor, q) -> tuple[Fraction, ...]:
    if len(q) != case.s:
        raise ValueError(f"q has {len(q)} components, case {case.label} has {case.s} factors")
    return tuple(Fraction(x) for x in q)


def expand_q(case: CaseDescriptor, q) -> tuple[Fraction, ...]:
    """The full q vector of `q`, given in full or as the free component q1 alone.

    q1 alone is completed through solve_eta0's relations, and a full vector
    must satisfy them.  The result must lie on solve_eta0's cover lattice,
    which contains the strict one; otherwise ValueError.
    """
    if len(q) == case.s:
        full = validate_q(case, q)
        eta0_of(case, full)
    elif len(q) == 1:
        q1 = Fraction(q[0])
        full = tuple(a * q1 + b for a, b in solve_eta0(case).q_relations)
    else:
        raise ValueError(f"case {case.label} takes {case.s} q components or the free "
                         f"q1 alone, not {len(q)}")
    if not _lattice_ok(list(full), [f.mult for f in case.factors], half=True):
        raise ValueError(f"q = ({', '.join(map(str, full))}) is not admissible for case "
                         f"{case.label}: each q_i and q_i/k_i must be a non-negative "
                         "half-integer (see admissible-q)")
    return full


def eta0_of(case: CaseDescriptor, q) -> Fraction:
    """The common value q_i/k_i + n_i/(k_i r_i); raises if q is inconsistent."""
    q = validate_q(case, q)
    vals = {f.eta0(qi) for f, qi in zip(case.factors, q)}
    if len(vals) != 1:
        raise ValueError(f"q={q} does not satisfy the eta0 condition: {sorted(vals)}")
    return vals.pop()


def forced_eta0(case: CaseDescriptor, q1) -> Fraction:
    """The first factor's eta0, q1/k1 + n1/(k1 r1), an affine function of q1.

    Table rows pin q1 alone, and delta_constants reads it on every q: on an
    admissible q it is eta0_of, and on a q that the other factors reject it
    is the value the negative controls must see fail.
    """
    return case.factors[0].eta0(q1)


def _lattice_ok(q: list[Fraction], ks: list[int], half: bool) -> bool:
    for qi, k in zip(q, ks):
        if qi < 0:
            return False
        ratio = qi / k
        if half:
            if (2 * ratio).denominator != 1 or (2 * qi).denominator != 1:
                return False
        else:
            if ratio.denominator != 1 or qi.denominator != 1:
                return False
    return True


def solve_eta0(case: CaseDescriptor) -> AdmissibleQ:
    """Solve the affine system exactly and report integrality diagnostics.

    Parametrized by q1: q_i = (k_i/k_1) q1 + (k_i n_1/(k_1 r_1) - n_i/r_i).
    strict lattice: q_i in N and q_i/k_i in Z; cover lattice relaxes both to
    half-integers (order-2 coverings).  Infeasibility is a result, not an
    error.

    Both lattices are periodic in q1 = t/2: t -> t + 2 k_1 adds 1 to every
    q_i/k_i and k_i to every q_i, so each integrality condition depends on
    t mod 2 k_1 alone.  With q_i = a_i q1 + b_i, every q_i is >= 0 from t_min
    on, the largest of 0 and every ceil(-2 b_i / a_i), and below it some q_i
    is not.  Four periods from t_min hold every residue four times, so they
    decide both flags exactly and hold the first four points of each lattice.
    """
    f1 = case.factors[0]
    ks = [f.mult for f in case.factors]
    eta_slope = Fraction(1, f1.mult)
    eta_icpt = f1.eta0_shift
    rel = [(Fraction(f.mult, f1.mult), f.mult * (eta_icpt - f.eta0_shift))
           for f in case.factors]

    strict_list: list[tuple[Fraction, ...]] = []
    cover_list: list[tuple[Fraction, ...]] = []
    t_min = max(0, *(math.ceil(-2 * b / a) for a, b in rel))
    for t in range(t_min, t_min + 8 * f1.mult):  # four periods of q1 = t/2
        q1 = Fraction(t, 2)
        q = [a * q1 + b for a, b in rel]
        if _lattice_ok(q, ks, half=False):
            strict_list.append(tuple(q))
        elif _lattice_ok(q, ks, half=True):
            cover_list.append(tuple(q))

    integrality = []
    for i, ((a, b), f) in enumerate(zip(rel, case.factors), start=1):
        integrality.append(
            f"q{i} = {a}*q1 + {b}; q{i}/k{i} integral iff q1 in "
            f"{_residue_description(a, b, f.mult)}"
        )
    constraint = " ; ".join(
        f"q{i + 1}/{f.mult} + {f.eta0_shift} = eta0"
        for i, f in enumerate(case.factors)
    )
    minimal = strict_list[:4] if strict_list else cover_list[:4]
    return AdmissibleQ(
        case_id=case.label,
        constraint=constraint,
        eta0_affine=(eta_slope, eta_icpt),
        q_relations=rel,
        strict_feasible=bool(strict_list),
        cover_feasible=bool(cover_list),
        integrality=integrality,
        minimal_q=minimal,
    )


def _residue_description(a: Fraction, b: Fraction, k: int) -> str:
    sols = [t for t in range(4 * k * a.denominator + 1) if ((a * t + b) / k).denominator == 1 and (a * t + b) >= 0]
    if not sols:
        return "{} (never)"
    if len(sols) == 1:
        return f"{{{sols[0]}}}"
    step = sols[1] - sols[0]
    return f"{sols[0]} + {step}*N"


def feasible_q_values(case: CaseDescriptor, count: int = 2) -> list[tuple[Fraction, ...]]:
    """First `count` feasible q vectors (strict lattice, cover fallback)."""
    return solve_eta0(case).minimal_q[:count]


# -- delta sequence -----------------------------------------------------------


def delta_constants(case: CaseDescriptor, q) -> tuple[Fraction, Fraction]:
    """(kappa, eta0) of delta_m = kappa / ((m + eta0)(m + eta0 + 1)).

    kappa = 1/A with A = prod k_i^{k_i r_i}, the normalization under which
    both pm_identity_check and the operator relations close (kappa = A fails
    on case 1, where A = 256).  eta0 is the first factor's (forced_eta0): it
    equals eta0_of on every admissible q, and on any other q the relations
    built from it must fail.
    """
    return Fraction(1, case.bernstein_lead), forced_eta0(case, validate_q(case, q)[0])


# -- Harish-Chandra images ------------------------------------------------------


def hc_ring(case: CaseDescriptor) -> VarSet:
    """Variables (m, lambda^{(i)}_j) for the symbol identity."""
    names = ["m"]
    for i, f in enumerate(case.factors, start=1):
        for j in range(1, f.rank + 1):
            names.append(f"l{i}_{j}")
    return VarSet.flat(names)


def maass_hc_image(
    factor: SimpleFactorDescriptor,
    alpha,
    ring: VarSet,
    lam_idx: list[int],
    negate: bool = False,
) -> MultiPoly:
    """gamma_alpha(lambda) = prod_j [lambda_j - k*alpha + (n/r - 1)/2]_k.

    alpha is a Fraction or a MultiPoly over `ring` (affine in the formal m),
    and lambda_j the variables lam_idx of `ring`.  With negate=True the image
    is evaluated at -lambda (the adjoint rule gamma(D*)(lambda) = gamma(D)(-lambda)).
    """
    assert len(lam_idx) == factor.rank
    if isinstance(alpha, MultiPoly):
        alpha_poly = alpha
    else:
        alpha_poly = MultiPoly.constant(ring, Fraction(alpha))
    # the falling factorial [x]_k is the rising one (x - k + 1)_k
    start = MultiPoly.constant(ring, Fraction(factor.n_over_r - 1, 2) - factor.mult + 1)
    start = start - alpha_poly.scale(factor.mult)
    lams = (MultiPoly.variable(ring, idx) for idx in lam_idx)
    return product(ring, (rising((-lam if negate else lam) + start, factor.mult) for lam in lams))


def pm_identity_check(case: CaseDescriptor, q) -> CheckReport:
    """Verify p_m(lambda) = sum(lambda) - sum(m_i k_i r_i)/2 as a polynomial.

    delta takes the first factor's eta0 (delta_constants), so on a q that
    violates the eta0 condition the identity must fail, with the residual
    polynomial's term count as the report's residual.
    """
    ring = hc_ring(case)
    m_var = MultiPoly.variable(ring, 0)
    lam_blocks: list[list[int]] = []
    t = 1
    for f in case.factors:
        lam_blocks.append(list(range(t, t + f.rank)))
        t += f.rank

    kappa, eta0 = delta_constants(case, q)
    A = case.bernstein_lead

    one = MultiPoly.constant(ring, 1)

    def m_of(pos: int) -> MultiPoly:
        qi = Fraction(q[pos])
        return m_var + MultiPoly.constant(ring, qi / case.factors[pos].mult)

    def gamma_product_pos(alpha_of_pos, negate: bool) -> MultiPoly:
        return product(ring, (
            maass_hc_image(f, alpha_of_pos(pos), ring=ring, lam_idx=idxs, negate=negate)
            for pos, (f, idxs) in enumerate(zip(case.factors, lam_blocks))))

    g_minus1 = gamma_product_pos(lambda pos: Fraction(-1), negate=False)
    g_zero = gamma_product_pos(lambda pos: Fraction(0), negate=False)
    g_star_m1 = gamma_product_pos(lambda pos: -(m_of(pos) + one), negate=True)
    g_star_m = gamma_product_pos(lambda pos: -m_of(pos), negate=True)

    e = MultiPoly.constant(ring, eta0)
    clear = (m_var + e - one) * (m_var + e) * (m_var + e + one)
    lhs = (
        (m_var + e - one) * (g_minus1 - g_star_m1)
        + (m_var + e + one) * (g_star_m - g_zero)
    ).scale(kappa * A)

    sum_lam = MultiPoly.zero(ring)
    for idxs in lam_blocks:
        for idx in idxs:
            sum_lam = sum_lam + MultiPoly.variable(ring, idx)
    sum_mkr = MultiPoly.zero(ring)
    for pos, f in enumerate(case.factors):
        sum_mkr = sum_mkr + m_of(pos).scale(Fraction(f.mult * f.rank, 2))
    rhs = clear.scale(A) * (sum_lam - sum_mkr)

    return check_report("sl2.pm", case, q, failure=terms_failure(lhs - rhs),
                        details=f"kappa=1/A; eta0={eta0}")


# -- Lemma 3.5 ----------------------------------------------------------------


def lemma35_solved_form(partition, gammas, b) -> tuple[Fraction, Fraction, Fraction]:
    """(alpha, beta, c) of the solved form for a common b."""
    b = Fraction(b)
    if b == 0 or b == -1 or b == -2:
        raise ValueError("solved form needs b not in {0, -1, -2}")
    alpha = 1 / ((b + 1) * (b + 2))
    beta = 1 / (b * (b + 1))
    c = sum((Fraction(g) for gs in gammas for g in gs), Fraction(0)) - 2 * b
    return alpha, beta, c


def lemma35_check(
    partition,
    gammas,
    bs,
    alpha,
    beta,
    c,
) -> CheckReport:
    """Expand the four-shift identity; the residual is its difference's term count.

    The affine target is sum_i p_i*T_i + c (part sizes p_i): with the stated
    alpha, beta the T_i-coefficient of the left side is the part size, not 1.
    """
    ell = len(partition)
    if sum(partition) != 4:
        raise ValueError("partition must sum to 4")
    if any(len(g) != p - 1 for g, p in zip(gammas, partition)):
        raise ValueError("gamma list for part i must have length p_i - 1")
    ring = VarSet.flat([f"T{i + 1}" for i in range(ell)])
    # f = prod_i T_i prod_{g in gammas_i} (T_i + g)
    f_poly = product(ring, (
        MultiPoly.variable(ring, i) + MultiPoly.constant(ring, Fraction(g))
        for i, (_, gs) in enumerate(zip(partition, gammas)) for g in (0, *gs)))

    bs = [Fraction(b) for b in bs]
    alpha, beta, c = Fraction(alpha), Fraction(beta), Fraction(c)
    f_up = f_poly.shift([Fraction(1)] * ell)
    f_down = f_poly.shift([-b - 1 for b in bs])
    f_b = f_poly.shift([-b for b in bs])
    lhs = (f_up - f_down).scale(alpha) + (f_b - f_poly).scale(beta)
    target = MultiPoly.constant(ring, c)
    for i, p in enumerate(partition):
        target = target + MultiPoly.variable(ring, i).scale(p)
    return check_report(
        f"sl2.lemma35.{'-'.join(map(str, partition))}", failure=terms_failure(lhs - target),
        details=f"b={[str(b) for b in bs]} alpha={alpha} beta={beta} c={c}")
