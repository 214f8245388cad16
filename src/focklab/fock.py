"""Graded Fock spaces of rank-1-product cases; every operator a list of affine monomial rules.

The graded piece at level m >= 0 has monomial basis
e_{m,j} = prod z_i^{j_i} w_i^{N_i(m)}, with N_i(m) = k_i m + q_i and
0 <= j_i <= N_i(m).  Each operator is one `OperatorMatrix`, a short list of
`Rule`s, and nothing else: M, D, sigma, sigma^{-1}, rho(H) and the dk
generators are one rule each, rho(F) = M - delta D is two.  A rule sends

    e_{m,j} -> (-1)^{L(m,j)} c(m,j) e_{m+dm, S j + b0 + b1 m},

where c is an exact polynomial in (m, j_1..j_s) over delta's denominator
(kept as its roots in m), L is linear mod 2 and S = +-1.  Composing two
rules is one affine substitution (`MultiPoly.substitute`), so
rho(E) = sigma rho(F) sigma^{-1} is an honest conjugation done formally.
An image in a negative block is dropped, since D kills block 0; everywhere
else the falling factorials vanish exactly where an image would leave its block.

`commutator_check` proves [rho(H), rho(E)] = 2 rho(E), [rho(H), rho(F)] =
-2 rho(F) and [rho(E), rho(F)] = rho(H) on every block m >= 1.  It expands
AB - BA - cC into rules and groups them by target map (dm, S, b0, b1) and
the linear part of L.  The group coefficients must vanish as polynomials once
the denominators are cleared: distinct target maps and parity characters are
independent on the Zariski-dense index set, so this is sound and complete.
The rules of a group share dm, so on a block m >= 1 a group is either
dropped whole (m + dm < 0) or is its formal zero evaluated at m, provided m
is no pole of its rules.  So no rule may have an integer pole p >= 1 whose
target block p + dm is kept (>= 0); where delta has a pole at m = 1
(eta0 = 1) its rules land below block 0.

`sigma_involution_check` proves sigma^2 = (-1)^{sum N_i} and sigma sigma^{-1}
= sigma^{-1} sigma = 1 with the same prover.  sigma has dm = 0 and no poles,
so that holds on every block m >= 0.

`cyclicity_check` proves the module irreducible on every block m >= 0 (the
K-type argument): the dk rules make each block an irreducible module and no
two blocks isomorphic, and the two rules of rho(F) link every block to its
neighbours.  Each hypothesis is a polynomial identity or sign certificate at
formal m.  No check reads a column (`OperatorMatrix.apply`, the tests' oracle).

Operator-level construction is restricted to rank-1-product cases: there
sigma is an exact signed permutation of each graded block.  Other families
are covered at the Harish-Chandra-symbol level in sl2.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import add, mul, sub

from focklab.bernstein import beta_integral
from focklab.jordan import CaseDescriptor, Family, build_case
from focklab.polyalg import MultiPoly, Scalar, VarSet, exact_coeff, rising
from focklab.report import CheckReport, check_report
from focklab.sl2 import delta_constants, validate_q

Key = tuple[int, tuple[int, ...]]  # (m, z-exponents)
Vec = dict[Key, Scalar]


class FockSpace:
    """The graded pieces m >= 0 of O_{q,fin} for a rank-1-product case."""

    def __init__(self, case: CaseDescriptor, q):
        if any(f.family is not Family.RANK1 for f in case.factors):
            raise ValueError("operator construction needs a rank-1-product case")
        q = validate_q(case, q)
        if any(x < 0 or x.denominator != 1 for x in q):
            raise ValueError("k_i*m + q_i must be a non-negative integer")
        self.case = case
        self.ks = tuple(f.mult for f in case.factors)
        self.qs = tuple(int(x) for x in q)
        # rule coefficients are polynomials in (m, j_1..j_s)
        self.ring = VarSet.flat(("m",) + tuple(f"j{i}" for i in range(1, case.s + 1)))

    def degree_bounds(self, m: int) -> tuple[int, ...]:
        return tuple(k * m + q for k, q in zip(self.ks, self.qs))

    def var(self, idx: int) -> MultiPoly:
        return MultiPoly.variable(self.ring, idx)

    def const(self, c: Scalar) -> MultiPoly:
        return MultiPoly.constant(self.ring, c)


@dataclass(frozen=True)
class Rule:
    """e_{m,j} -> (-1)^{parity . (m, j)} num(m, j) / prod_r (m - r) e_{m+dm, s j + b0 + b1 m}.

    `num` is a polynomial over the space's ring (m, j_1..j_s), `poles` the
    roots r of the denominator, and `parity` the linear part of L mod 2; L's
    constant is folded into num's sign.
    """

    dm: int
    s: int
    b0: tuple[int, ...]
    b1: tuple[int, ...]
    parity: tuple[int, ...]
    num: MultiPoly
    poles: tuple[Fraction, ...] = ()

    def after(self, inner: Rule) -> Rule:
        """self o inner: self's coefficient at inner's image, one affine substitution."""
        ring = self.num.vars
        m = MultiPoly.variable(ring, 0)
        images = [m + MultiPoly.constant(ring, inner.dm)]
        for i, (c0, c1) in enumerate(zip(inner.b0, inner.b1), start=1):
            images.append(MultiPoly.variable(ring, i).scale(inner.s) + m.scale(c1)
                          + MultiPoly.constant(ring, c0))
        lm, *lj = self.parity
        flip = (lm * inner.dm + sum(a * c for a, c in zip(lj, inner.b0))) % 2
        num = inner.num * self.num.substitute(images)
        return Rule(
            dm=self.dm + inner.dm,
            s=self.s * inner.s,
            b0=tuple(self.s * c + d + e * inner.dm
                     for c, d, e in zip(inner.b0, self.b0, self.b1)),
            b1=tuple(self.s * c + d for c, d in zip(inner.b1, self.b1)),
            parity=((inner.parity[0] + lm + sum(a * c for a, c in zip(lj, inner.b1))) % 2,
                    *((a + b) % 2 for a, b in zip(inner.parity[1:], lj))),
            num=-num if flip else num,
            poles=inner.poles + tuple(r - inner.dm for r in self.poles),
        )

    def image(self, key: Key) -> tuple[Key, Scalar] | None:
        """(target, coefficient) of e_key, or None if it is zero or below block 0."""
        m, js = key
        if m + self.dm < 0:
            return None
        c = self.num.eval((m, *js))
        if c == 0:
            return None
        if self.poles:
            c = exact_coeff(c / math.prod(m - r for r in self.poles))
        if sum(map(mul, self.parity, (m, *js))) % 2:
            c = -c
        base = (c0 + c1 * m for c0, c1 in zip(self.b0, self.b1))
        target = tuple(map(add, js, base)) if self.s > 0 else tuple(map(sub, base, js))
        return (m + self.dm, target), c


class OperatorMatrix:
    """An operator on the graded Fock space: the sum of its affine monomial rules."""

    def __init__(self, rules):
        self.rules: tuple[Rule, ...] = tuple(rules)

    def __matmul__(self, other: OperatorMatrix) -> OperatorMatrix:
        return OperatorMatrix(a.after(b) for a in self.rules for b in other.rules)

    def __add__(self, other: OperatorMatrix) -> OperatorMatrix:
        return OperatorMatrix(self.rules + other.rules)

    def scale(self, c: Scalar) -> OperatorMatrix:
        return OperatorMatrix(replace(r, num=r.num.scale(c)) for r in self.rules)

    def apply(self, vec: Vec) -> Vec:
        """The image of a finite vector, each e_key's column evaluated from the rules."""
        out: Vec = {}
        for key, coeff in vec.items():
            for rule in self.rules:
                img = rule.image(key)
                if img is not None:
                    out[img[0]] = out.get(img[0], 0) + coeff * img[1]
        return {k: c for k, c in out.items() if c}


def _one_rule(space: FockSpace, num: MultiPoly, dm: int = 0, s: int = 1, b0=None, b1=None,
              parity=None) -> OperatorMatrix:
    zeros = (0,) * space.case.s
    return OperatorMatrix([Rule(dm, s, b0 or zeros, b1 or zeros, parity or (0,) + zeros, num)])


def mult_w(space: FockSpace) -> OperatorMatrix:
    """M, multiplication by prod w_i^{k_i}: e_{m,j} -> e_{m+1,j}."""
    return _one_rule(space, space.const(1), dm=1)


def diff_q(space: FockSpace) -> OperatorMatrix:
    """D, Q(d/dz) then division by prod w_i^{k_i}: e_{m,j} -> prod [j_i]_{k_i} e_{m-1,j-k}."""
    num = space.const(1)
    for i, k in enumerate(space.ks, start=1):
        num = num * rising(space.var(i) - space.const(k - 1), k)  # falling [j_i]_{k_i}
    return _one_rule(space, num, dm=-1, b0=tuple(-k for k in space.ks))


def rho_H(space: FockSpace) -> OperatorMatrix:
    """Diagonal: sum j_i - sum (k_i m + q_i) r_i / 2 (r_i = 1 here)."""
    weight = (space.const(Fraction(-sum(space.qs), 2))
              - space.var(0).scale(Fraction(sum(space.ks), 2)))
    for i in range(1, space.case.s + 1):
        weight = weight + space.var(i)
    return _one_rule(space, weight)


def sigma(space: FockSpace) -> OperatorMatrix:
    """psi -> prod (-z_i)^{N_i} psi(-1/z): e_{m,j} -> (-1)^{sum N_i + sum j_i} e_{m,N(m)-j}."""
    return _one_rule(space, space.const((-1) ** sum(space.qs)), s=-1, b0=space.qs,
                     b1=space.ks, parity=(sum(space.ks) % 2,) + (1,) * space.case.s)


def sigma_inverse(space: FockSpace) -> OperatorMatrix:
    """sigma^{-1} = (-1)^{sum N_i} sigma, the block sign of sigma^2 = (-1)^{sum N_i}."""
    return _one_rule(space, space.const(1), s=-1, b0=space.qs, b1=space.ks,
                     parity=(0,) + (1,) * space.case.s)


def rho_F(space: FockSpace) -> OperatorMatrix:
    """rho(F) = M - delta D, with delta applied in the target block.

    D lands in block m - 1, so its rule carries
    delta(m - 1) = kappa / ((m - 1 + eta0)(m + eta0)): poles 1 - eta0 and -eta0.
    """
    kap, eta0 = delta_constants(space.case, space.qs)
    (d,) = diff_q(space).rules
    return mult_w(space) + OperatorMatrix(
        [replace(d, num=d.num.scale(-kap), poles=(1 - eta0, -eta0))])


def rho_E(space: FockSpace, f: OperatorMatrix) -> OperatorMatrix:
    """rho(E) = sigma rho(F) sigma^{-1}, the rules of f conjugated formally."""
    return sigma(space) @ f @ sigma_inverse(space)


def dk_action(space: FockSpace, factor_index: int, generator: str) -> OperatorMatrix:
    """Per-factor sl2 on degree-<=N polynomials: e = d/dz, h = 2zd-N, f = z^2d-Nz.

    With these (spec-pinned) conventions e lowers the z-degree, so the exact
    relations are [e,f] = h, [h,e] = -2e, [h,f] = 2f.
    """
    if generator not in ("e", "f", "h"):
        raise ValueError(f"unknown generator {generator!r}")
    i = factor_index
    j = space.var(i + 1)
    n = space.var(0).scale(space.ks[i]) + space.const(space.qs[i])
    step = tuple(int(t == i) for t in range(space.case.s))
    if generator == "e":
        return _one_rule(space, j, b0=tuple(-x for x in step))
    if generator == "h":
        return _one_rule(space, j.scale(2) - n)
    return _one_rule(space, j - n, b0=step)


# -- checks -------------------------------------------------------------------


def _nonvanishing_group(space: FockSpace, rules) -> tuple[int, tuple | None]:
    """(groups, the first group whose coefficient does not vanish at formal m, or None).

    Rules are grouped by target map and parity character.  A group's
    coefficient sum_t num_t / den_t is zero iff its numerator over the least
    common denominator is the zero polynomial."""
    groups: dict[tuple, list[Rule]] = {}
    for r in rules:
        groups.setdefault((r.dm, r.s, r.b0, r.b1, r.parity), []).append(r)
    mv = space.var(0)
    for key, members in groups.items():
        common = Counter()
        for r in members:
            common |= Counter(r.poles)
        total = MultiPoly.zero(space.ring)
        for r in members:
            term = r.num
            for root, mult in (common - Counter(r.poles)).items():
                term = term * (mv - space.const(root)) ** mult
            total = total + term
        if not total.is_zero():
            return len(groups), key
    return len(groups), None


def _prove(space: FockSpace, kind: str, proved: str, expansions) -> CheckReport:
    """The report fock.<kind>.<case>.<q> on a list of (name, rules of left minus right side).

    No rule may have an integer pole p >= 1 on a kept block p + dm >= 0: at
    an integer m >= 1 the rules of a group, which share dm, are all dropped
    (m + dm < 0) or all evaluated, and a rule's value is its formal
    coefficient only off its poles.  Then every group of every expansion must
    vanish at formal m.  The first failure is the residual; a pass's details
    read `<proved>; <n> groups`.
    """
    failed = next((f"{name}: pole at m = {p} on a rule into block {p + r.dm}"
                   for name, rules in expansions for r in rules for p in r.poles
                   if p.denominator == 1 and p >= 1 and p + r.dm >= 0), None)
    n_groups = 0
    for name, rules in expansions:
        if failed:
            break
        n, bad = _nonvanishing_group(space, rules)
        n_groups += n
        if bad is not None:
            dm, s, b0, b1, parity = bad
            failed = f"{name}: rule group dm={dm} S={s} b0={b0} b1={b1} L={parity} does not vanish"
    return check_report(f"fock.{kind}", space.case, space.qs, failure=failed,
                        details="" if failed else f"{proved}; {n_groups} groups")


def commutator_check(case: CaseDescriptor, q) -> CheckReport:
    """Prove [rhoH,rhoE]=2rhoE, [rhoH,rhoF]=-2rhoF, [rhoE,rhoF]=rhoH on every block m >= 1.

    Each relation [A,B] = c C is expanded into the rules of AB - BA - cC,
    which `_prove` requires to have no pole on a kept block and to vanish
    group by group at formal m (see the module docstring).  That proves
    A(B e_k) - B(A e_k) - c C e_k = 0 at every e_k of every block m >= 1:
    each rule of rho(H), rho(E) and rho(F) moves by at most one block, so no
    intermediate block is negative there.  delta is normalized by kappa = 1/A
    and takes the first factor's eta0 (`delta_constants`), so on a q off the
    eta0 condition the relations must fail.
    """
    space = FockSpace(case, q)
    h, f = rho_H(space), rho_F(space)
    e = rho_E(space, f)
    return _prove(space, "comm", "kappa=1/A; all m >= 1 (no pole on a kept block)", [
        (name, (a @ b).rules + (b @ a).scale(-1).rules + c.scale(-scale).rules)
        for name, a, b, c, scale in (("[H,E]!=2E", h, e, e, 2), ("[H,F]!=-2F", h, f, f, -2),
                                     ("[E,F]!=H", e, f, h, 1))])


def sigma_involution_check(case: CaseDescriptor, q) -> CheckReport:
    """Prove sigma^2 = (-1)^{sum N_i} and sigma sigma^{-1} = sigma^{-1} sigma = 1 on every block.

    The block sign is one rule, (-1)^{sum q_i} (-1)^{m sum k_i}.  sigma and
    sigma^{-1} have dm = 0 and no poles, so each composite's rules give its
    columns on every block m >= 0, and each expansion of composite minus
    right side must vanish under the prover of `commutator_check` (`_prove`).
    """
    space = FockSpace(case, q)
    sig, inv = sigma(space), sigma_inverse(space)
    one = _one_rule(space, space.const(1))
    sign = _one_rule(space, space.const((-1) ** sum(space.qs)),
                     parity=(sum(space.ks) % 2,) + (0,) * case.s)
    return _prove(space, "sigma2", "all m >= 0", [
        (name, lhs.rules + rhs.scale(-1).rules)
        for name, lhs, rhs in (("sigma^2!=(-1)^N", sig @ sig, sign),
                               ("sigma sigma^-1!=1", sig @ inv, one),
                               ("sigma^-1 sigma!=1", inv @ sig, one))])


def _dk_failure(space: FockSpace) -> str | None:
    """Why the blocks may not be pairwise non-isomorphic irreducible dk-modules, or None.

    Per factor i, h_i must be the diagonal rule 2 j_i - N_i(m), and e_i, f_i
    nonzero multiples of j_i and j_i - N_i(m) that move j_i by -1 and +1.
    Then h separates the monomials of block m, and e_i and f_i vanish on its
    box only at its edges, so block m is the irreducible tensor product of the
    sl2 modules V(N_i(m)).  Some k_i > 0, so N(m) grows with m and no two
    blocks are isomorphic.
    """
    if not any(space.ks):
        return "every k_i = 0: the blocks are isomorphic"
    zeros = (0,) * space.case.s
    for i in range(space.case.s):
        j, n = space.var(i + 1), space.var(0).scale(space.ks[i]) + space.const(space.qs[i])
        (jexp,) = j.terms
        step = tuple(int(t == i) for t in range(space.case.s))
        ji, ni = f"j_{i + 1}", f"N_{i + 1}(m)"
        for g, b0, want, text in (("h", zeros, j.scale(2) - n, f"2 {ji} - {ni}"),
                                  ("e", tuple(-x for x in step), j, f"c {ji}"),
                                  ("f", step, j - n, f"c ({ji} - {ni})")):
            r, *more = dk_action(space, i, g).rules
            c = Fraction(r.num.terms.get(jexp, 0), want.terms[jexp])
            if (more or (r.dm, r.s, r.b0, r.b1, r.poles) != (0, 1, b0, zeros, ())
                    or any(r.parity) or not c or (g == "h" and c != 1)
                    or r.num != want.scale(c)):
                return f"{g}_{i + 1} is not the rule {text}"
    return None


def _link_failure(space: FockSpace) -> str | None:
    """Why rho(F) may not link every block m to m + 1 and, for m >= 1, to m - 1, or None.

    The dm = +1 rule must be M times a nonzero constant.  The dm = -1 rule
    must be nonzero at e_{m,N(m)} for every m >= 1: its poles lie below 1,
    and its numerator at j = N(m), m = 1 + t, has every coefficient of the
    sign of its nonzero constant term, so it keeps that sign on t >= 0.
    """
    rules = sorted(rho_F(space).rules, key=lambda r: r.dm)
    if [r.dm for r in rules] != [-1, 1]:
        return "rho(F) is not one lowering and one raising rule"
    down, up = rules
    zeros, origin = (0,) * space.case.s, (0,) * len(space.ring)
    if (up.s, up.b0, up.b1, up.poles) != (1, zeros, zeros, ()) or set(up.num.terms) != {origin}:
        return "F up is not M times a nonzero constant"
    if any(r >= 1 for r in down.poles):
        return f"F down has a pole at m >= 1: {down.poles}"
    m = space.var(0) + space.const(1)
    top = down.num.substitute(
        [m, *(m.scale(k) + space.const(q) for k, q in zip(space.ks, space.qs))])
    c0 = top.terms.get(origin, 0)
    if not c0 or any((c > 0) != (c0 > 0) for c in top.terms.values()):
        return "F down at j = N(m) may vanish for some m >= 1"
    return None


def cyclicity_check(case: CaseDescriptor, q) -> CheckReport:
    """Prove the Fock module irreducible on every block m >= 0 from its rules.

    (i) Under the dk generators each block is an irreducible module, and
    (ii) no two blocks are isomorphic (`_dk_failure`), so a dk-stable
    subspace is a sum of whole blocks.  (iii) rho(F) sends each block to a
    vector with a nonzero part in block m + 1 and, for m >= 1, in block
    m - 1 (`_link_failure`), so a nonzero rho(F)-stable sum of whole blocks
    holds them all.  No column is evaluated.
    """
    space = FockSpace(case, q)
    failed = _dk_failure(space) or _link_failure(space)
    return check_report(
        "fock.cyclic", case, space.qs, failure=failed,
        details="" if failed else "irreducible, all m >= 0; blocks (x)_i V(N_i(m)) "
                                  "under dk, linked by rho(F)",
    )


# -- case-(1) monomial norms ----------------------------------------------------


def monomial_norms_exact(q: int, m: int) -> list[Fraction]:
    """Kernel-expansion prediction 1/binom(4m+q, j) for case (1)."""
    n = 4 * m + q
    return [Fraction(1, math.comb(n, j)) for j in range(n + 1)]


def reproducing_check(q: int = 0, m_values=(0, 1, 2, 3)) -> CheckReport:
    """Case (1): exact Beta-integral norms against 1/binom(4m+q, j).

    ||z^j||^2_m = (1/a_m) * integral t^j (1+t)^{-(n+2)} dt with n = 4m + q and
    a_m the j = 0 integral.  Each integral is the Beta value of beta_integral,
    so each ratio is an exact rational, compared with the prediction of
    monomial_norms_exact by ==; the residual counts the mismatches.
    """
    mismatches = 0
    for m in m_values:
        n = 4 * m + q
        a_m = beta_integral(0, n)
        for j, pred in enumerate(monomial_norms_exact(q, m)):
            mismatches += beta_integral(j, n) / a_m != pred
    return check_report(
        "fock.norm.case1", build_case(1), (q,), failure=str(mismatches) if mismatches else None,
        tolerance="exact", details=f"m in {list(m_values)}; exact Beta integrals",
        case_in_id=False, q_in_id=False)
