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

from dataclasses import dataclass
from fractions import Fraction

from focklab.jordan import CaseDescriptor, SimpleFactorDescriptor
from focklab.polyalg import MultiPoly, VarSet
from focklab.report import CheckReport, Stopwatch, q_strings


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

    def eta0_for(self, q) -> Fraction:
        a, b = self.eta0_affine
        return a * Fraction(q[0]) + b

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
    """Complete a single free component q1 to the full vector via the relations."""
    if len(q) == case.s:
        return validate_q(case, q)
    if len(q) != 1:
        raise ValueError("q must have one component (the free parameter) or all of them")
    adm = solve_eta0(case)
    q1 = Fraction(q[0])
    full = tuple(a * q1 + b for a, b in adm.q_relations)
    if any(x < 0 for x in full):
        raise ValueError(f"q1={q1} gives a negative component: {full}")
    return full


def eta0_of(case: CaseDescriptor, q) -> Fraction:
    """The common value q_i/k_i + n_i/(k_i r_i); raises if q is inconsistent."""
    q = validate_q(case, q)
    vals = {
        Fraction(qi) / f.mult + Fraction(f.dim, f.mult * f.rank)
        for f, qi in zip(case.factors, q)
    }
    if len(vals) != 1:
        raise ValueError(f"q={q} does not satisfy the eta0 condition: {sorted(vals)}")
    return vals.pop()


def forced_eta0(case: CaseDescriptor, q) -> Fraction:
    """Factor-1 value of the eta0 expression (used for negative tests)."""
    validate_q(case, q)
    f = case.factors[0]
    return Fraction(q[0]) / f.mult + Fraction(f.dim, f.mult * f.rank)


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


def solve_eta0(case: CaseDescriptor, scan: int = 64) -> AdmissibleQ:
    """Solve the affine system exactly and report integrality diagnostics.

    Parametrized by q1: q_i = (k_i/k_1) q1 + (k_i n_1/(k_1 r_1) - n_i/r_i).
    strict lattice: q_i in N and q_i/k_i in Z; cover lattice relaxes both to
    half-integers (order-2 coverings).  Infeasibility is a result, not an
    error.
    """
    f1 = case.factors[0]
    ks = [f.mult for f in case.factors]
    eta_slope = Fraction(1, f1.mult)
    eta_icpt = Fraction(f1.dim, f1.mult * f1.rank)
    rel = []
    for f in case.factors:
        rel.append(
            (
                Fraction(f.mult, f1.mult),
                f.mult * eta_icpt - Fraction(f.dim, f.rank),
            )
        )

    strict_list: list[tuple[Fraction, ...]] = []
    cover_list: list[tuple[Fraction, ...]] = []
    for t in range(0, 2 * scan):
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
        f"q{i + 1}/{f.mult} + {Fraction(f.dim, f.mult * f.rank)} = eta0"
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
    adm = solve_eta0(case)
    if not adm.feasible:
        return []
    return adm.minimal_q[:count]


# -- delta sequence -----------------------------------------------------------


@dataclass
class DeltaSequence:
    """delta_m = kappa / ((m + eta0)(m + eta0 + 1)) for m = 0..m_max."""

    case_id: str
    q: tuple
    eta0: Fraction
    kappa: str  # "1/A" (resolved by operator calibration) or "A"
    values: list[Fraction]


def delta_sequence(
    case: CaseDescriptor, q, m_max: int = 10, kappa: str = "1/A", forced: bool = False
) -> DeltaSequence:
    """The delta sequence, A = prod k_i^{k_i r_i}; forced=True as in forced_eta0."""
    eta0 = forced_eta0(case, q) if forced else eta0_of(case, q)
    a = case.bernstein_lead
    kap = Fraction(1, a) if kappa == "1/A" else Fraction(a)
    values = [kap / ((m + eta0) * (m + eta0 + 1)) for m in range(m_max + 1)]
    return DeltaSequence(case.label, tuple(q), eta0, kappa, values)


# -- Harish-Chandra images ------------------------------------------------------


def hc_ring(case: CaseDescriptor) -> VarSet:
    """Variables (m, lambda^{(i)}_j) for the symbol identity."""
    names = ["m"]
    groups = [0]
    for i, f in enumerate(case.factors, start=1):
        for j in range(1, f.rank + 1):
            names.append(f"l{i}_{j}")
            groups.append(i)
    return VarSet(tuple(names), tuple(groups))


def _falling(x: MultiPoly, k: int) -> MultiPoly:
    out = MultiPoly.constant(x.vars, 1)
    for t in range(k):
        out = out * (x - MultiPoly.constant(x.vars, t))
    return out


def maass_hc_image(
    factor: SimpleFactorDescriptor,
    alpha,
    ring: VarSet | None = None,
    lam_idx: list[int] | None = None,
    negate: bool = False,
) -> MultiPoly:
    """gamma_alpha(lambda) = prod_j [lambda_j - k*alpha + (n/r - 1)/2]_k.

    alpha is a Fraction or a MultiPoly over `ring` (affine in the formal m).
    With negate=True the image is evaluated at -lambda (the adjoint rule
    gamma(D*)(lambda) = gamma(D)(-lambda)).
    """
    if ring is None:
        ring = VarSet(
            ("m",) + tuple(f"l1_{j}" for j in range(1, factor.rank + 1)),
            (0,) + (1,) * factor.rank,
        )
        lam_idx = list(range(1, 1 + factor.rank))
    assert lam_idx is not None and len(lam_idx) == factor.rank
    if isinstance(alpha, MultiPoly):
        alpha_poly = alpha
    else:
        alpha_poly = MultiPoly.constant(ring, Fraction(alpha))
    shift = Fraction(factor.n_over_r - 1, 2)
    out = MultiPoly.constant(ring, 1)
    for idx in lam_idx:
        lam = MultiPoly.variable(ring, idx)
        if negate:
            lam = -lam
        x = lam - alpha_poly.scale(factor.mult) + MultiPoly.constant(ring, shift)
        out = out * _falling(x, factor.mult)
    return out


def pm_identity_check(
    case: CaseDescriptor,
    q,
    kappa: str = "1/A",
    forced: bool = False,
) -> tuple[CheckReport, MultiPoly]:
    """Verify p_m(lambda) = sum(lambda) - sum(m_i k_i r_i)/2 as a polynomial.

    q may violate the eta0 condition only with forced=True (the eta0 of the
    first factor is then used); the residual polynomial is returned either
    way, so a necessity-direction test can exhibit a nonzero residual.
    """
    sw = Stopwatch()
    ring = hc_ring(case)
    m_var = MultiPoly.variable(ring, 0)
    lam_blocks: list[list[int]] = []
    t = 1
    for f in case.factors:
        lam_blocks.append(list(range(t, t + f.rank)))
        t += f.rank

    if forced:
        eta0 = forced_eta0(case, q)
    else:
        eta0 = eta0_of(case, q)
    A = case.bernstein_lead

    one = MultiPoly.constant(ring, 1)

    def m_of(pos: int) -> MultiPoly:
        qi = Fraction(q[pos])
        return m_var + MultiPoly.constant(ring, qi / case.factors[pos].mult)

    def gamma_product_pos(alpha_of_pos, negate: bool) -> MultiPoly:
        out = one
        for pos, (f, idxs) in enumerate(zip(case.factors, lam_blocks)):
            out = out * maass_hc_image(
                f, alpha_of_pos(pos), ring=ring, lam_idx=idxs, negate=negate
            )
        return out

    g_minus1 = gamma_product_pos(lambda pos: Fraction(-1), negate=False)
    g_zero = gamma_product_pos(lambda pos: Fraction(0), negate=False)
    g_star_m1 = gamma_product_pos(lambda pos: -(m_of(pos) + one), negate=True)
    g_star_m = gamma_product_pos(lambda pos: -m_of(pos), negate=True)

    e = MultiPoly.constant(ring, eta0)
    clear = (m_var + e - one) * (m_var + e) * (m_var + e + one)
    a_kappa = Fraction(1) if kappa == "1/A" else Fraction(A * A)

    lhs = (
        (m_var + e - one) * (g_minus1 - g_star_m1)
        + (m_var + e + one) * (g_star_m - g_zero)
    ).scale(a_kappa)

    sum_lam = MultiPoly.zero(ring)
    for idxs in lam_blocks:
        for idx in idxs:
            sum_lam = sum_lam + MultiPoly.variable(ring, idx)
    sum_mkr = MultiPoly.zero(ring)
    for pos, f in enumerate(case.factors):
        sum_mkr = sum_mkr + m_of(pos).scale(Fraction(f.mult * f.rank, 2))
    rhs = clear.scale(A) * (sum_lam - sum_mkr)

    residual = lhs - rhs

    # paper's shorthand for the right-hand side: sum X - (1/2) sum b; assert
    # it expands to sum(lambda) - sum(m_i k_i r_i)/2 exactly
    sum_x = MultiPoly.zero(ring)
    sum_b = MultiPoly.zero(ring)
    for pos, (f, idxs) in enumerate(zip(case.factors, lam_blocks)):
        c_i = Fraction(f.n_over_r - 1, 2 * f.mult)
        for idx in idxs:
            for kk in range(1, f.mult + 1):
                sum_x = sum_x + MultiPoly.variable(ring, idx).scale(
                    Fraction(1, f.mult)
                ) + MultiPoly.constant(ring, c_i - Fraction(kk - 1, f.mult))
        b_i = m_of(pos) + MultiPoly.constant(
            ring, Fraction(f.dim, f.mult * f.rank) - 1
        )
        sum_b = sum_b + b_i.scale(Fraction(f.mult * f.rank))
    shorthand_ok = (sum_x - sum_b.scale(Fraction(1, 2))) == (sum_lam - sum_mkr)

    qs = q_strings(q)
    rep = CheckReport(
        id=f"sl2.pm.{case.label}.{'_'.join(qs)}",
        case_id=case.label,
        q=qs,
        status="pass" if residual.is_zero() and shorthand_ok else "fail",
        residual="0" if residual.is_zero() else f"{len(residual.terms)} terms",
        details=f"kappa={kappa}; eta0={eta0}; gammaE-shorthand-identity={'ok' if shorthand_ok else 'BROKEN'}",
        elapsed_ms=sw.ms(),
    )
    return rep, residual


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
) -> tuple[CheckReport, MultiPoly]:
    """Expand the four-shift identity and report the residual polynomial.

    The affine target is sum_i p_i*T_i + c (part sizes p_i): with the stated
    alpha, beta the T_i-coefficient of the left side is the part size, not 1.
    """
    sw = Stopwatch()
    ell = len(partition)
    if sum(partition) != 4:
        raise ValueError("partition must sum to 4")
    if any(len(g) != p - 1 for g, p in zip(gammas, partition)):
        raise ValueError("gamma list for part i must have length p_i - 1")
    ring = VarSet.flat([f"T{i + 1}" for i in range(ell)])
    f_poly = MultiPoly.constant(ring, 1)
    for i, (p, gs) in enumerate(zip(partition, gammas)):
        ti = MultiPoly.variable(ring, i)
        f_poly = f_poly * ti
        for g in gs:
            f_poly = f_poly * (ti + MultiPoly.constant(ring, Fraction(g)))

    bs = [Fraction(b) for b in bs]
    alpha, beta, c = Fraction(alpha), Fraction(beta), Fraction(c)
    f_up = f_poly.shift([Fraction(1)] * ell)
    f_down = f_poly.shift([-b - 1 for b in bs])
    f_b = f_poly.shift([-b for b in bs])
    lhs = (f_up - f_down).scale(alpha) + (f_b - f_poly).scale(beta)
    target = MultiPoly.constant(ring, c)
    for i, p in enumerate(partition):
        target = target + MultiPoly.variable(ring, i).scale(p)
    residual = lhs - target
    rep = CheckReport(
        id=f"sl2.lemma35.{'-'.join(map(str, partition))}",
        status="pass" if residual.is_zero() else "fail",
        residual="0" if residual.is_zero() else f"{len(residual.terms)} terms",
        details=f"b={[str(b) for b in bs]} alpha={alpha} beta={beta} c={c}",
        elapsed_ms=sw.ms(),
    )
    return rep, residual
