"""Graded Fock blocks and the affine monomial rules of the operators, rank-1-product cases."""

import math
from dataclasses import replace
from fractions import Fraction as F
from itertools import product

import pytest

from focklab import checks, fock
from focklab.bernstein import beta_integral
from focklab.fock import (
    FockSpace,
    OperatorMatrix,
    commutator_check,
    cyclicity_check,
    diff_q,
    dk_action,
    monomial_norms_exact,
    mult_w,
    reproducing_check,
    rho_E,
    rho_F,
    rho_H,
    sigma,
    sigma_involution_check,
    sigma_inverse,
)
from focklab.jordan import build_case
from focklab.polyalg import MultiPoly, VarSet


def unit(key):
    return {key: F(1)}


def block_basis(space, m):
    """The keys (m, j) of block m, 0 <= j_i <= N_i(m)."""
    return [(m, js) for js in product(*(range(n + 1) for n in space.degree_bounds(m)))]


def test_truncation_rejects_non_rank1():
    case2 = build_case(2, p=3)
    with pytest.raises(ValueError):
        FockSpace(case2, (F(0),))


def test_block_dims_case1():
    space = FockSpace(build_case(1), (F(0),))
    assert [len(block_basis(space, m)) for m in range(5)] == [1, 5, 9, 13, 17]
    assert FockSpace(build_case(1), (F(4),)).degree_bounds(1) == (8,)


def test_op_M_examples():
    space5 = FockSpace(build_case(5), (F(0),) * 4)
    assert mult_w(space5).apply(unit((0, (0, 0, 0, 0)))) == {(1, (0, 0, 0, 0)): 1}
    space1 = FockSpace(build_case(1), (F(0),))
    assert mult_w(space1).apply(unit((1, (3,)))) == {(2, (3,)): 1}


def test_op_D_examples():
    d = diff_q(FockSpace(build_case(1), (F(0),)))
    assert d.apply(unit((1, (4,)))) == {(0, (0,)): 24}
    assert d.apply(unit((1, (3,)))) == {}
    assert d.apply(unit((0, (0,)))) == {}  # D kills block 0
    space5 = FockSpace(build_case(5), (F(0),) * 4)
    assert diff_q(space5).apply(unit((1, (1, 1, 1, 1)))) == {(0, (0, 0, 0, 0)): 1}


def test_op_rhoH_examples():
    space5 = FockSpace(build_case(5), (F(0),) * 4)
    # rho(H) 1 = 0 at m = 0 (zero entries are not stored)
    assert rho_H(space5).apply(unit((0, (0, 0, 0, 0)))) == {}
    h = rho_H(FockSpace(build_case(1), (F(0),)))
    assert h.apply(unit((1, (2,)))) == {}  # 2 - 4/2 = 0
    assert h.apply(unit((1, (4,)))) == {(1, (4,)): 2}


def test_op_sigma_examples():
    s = sigma(FockSpace(build_case(1), (F(0),)))
    assert s.apply(unit((1, (0,)))) == {(1, (4,)): 1}  # 1 -> z^4, sign +
    assert s.apply(unit((1, (4,)))) == {(1, (0,)): 1}
    space5 = FockSpace(build_case(5), (F(0),) * 4)
    col = sigma(space5).apply(unit((1, (1, 0, 0, 0))))
    assert col == {(1, (0, 1, 1, 1)): -1}  # spec example: sign -1


def _sigma_with_j1_sign_flipped(space):
    # sigma's sign character with the coefficient of j_1 flipped
    (r,) = sigma(space).rules
    return OperatorMatrix([replace(r, parity=(r.parity[0], 1 - r.parity[1], *r.parity[2:]))])


def test_sigma_involution_block_sign():
    for case, q in checks.COMMUTATOR_MATRIX:
        rep = sigma_involution_check(case, q)
        assert (rep.status, rep.details) == ("pass", "all m >= 0; 3 groups")


def test_sigma_involution_fails_with_one_sigma_sign_flipped(monkeypatch):
    # on case 5 k_2 + k_3 + k_4 is odd, so the flipped sigma squares to the wrong block sign
    monkeypatch.setattr(fock, "sigma", _sigma_with_j1_sign_flipped)
    rep = sigma_involution_check(build_case(5), (1, 1, 1, 1))
    assert rep.status == "fail"
    assert rep.residual.startswith("sigma^2!=(-1)^N: rule group dm=0 S=1 ")
    # on cases 1 and 3 every k_i and q_i is even, so sigma^2 keeps its sign,
    # but the unflipped sigma^{-1} no longer inverts it
    for case, q in checks.COMMUTATOR_MATRIX[:4]:
        rep = sigma_involution_check(case, q)
        assert rep.status == "fail" and rep.residual.startswith("sigma sigma^-1!=1: ")


def test_sigma_involution_reads_no_column(monkeypatch):
    monkeypatch.setattr(OperatorMatrix, "apply",
                        lambda *args: pytest.fail("column evaluated"))
    for case, q in checks.COMMUTATOR_MATRIX:
        assert sigma_involution_check(case, q).status == "pass"


@pytest.mark.parametrize(
    "case,q",
    [(build_case(1), (4,)), (build_case(3), (2, 2)), (build_case(5), (1, 1, 1, 1))],
    ids=["c1q4", "c3q22", "c5q1111"],
)
def test_sigma_inverse_undoes_sigma(case, q):
    space = FockSpace(case, q)
    sig, sig_inv = sigma(space), sigma_inverse(space)
    for key in (k for m in range(4) for k in block_basis(space, m)):  # every block m = 0..3
        assert sig_inv.apply(sig.apply(unit(key))) == unit(key)
        assert sig.apply(sig_inv.apply(unit(key))) == unit(key)


def test_rhoF_and_rhoE_case5():
    space = FockSpace(build_case(5), (F(0),) * 4)
    f = rho_F(space)
    # rho(F) 1 = w1 w2 w3 w4 (D kills constants)
    assert f.apply(unit((0, (0, 0, 0, 0)))) == {(1, (0, 0, 0, 0)): 1}
    e = rho_E(space, f)
    col = e.apply(unit((0, (0, 0, 0, 0))))
    assert col == {(1, (1, 1, 1, 1)): F(1)}  # multiplication by Q(z) w^k
    # E e_{m,j} = e_{m+1,j+1} - (m-j1)(m-j2)(m-j3)(m-j4)/(m(m+1)) e_{m-1,j}
    assert e.apply(unit((2, (0, 1, 2, 0)))) == {(3, (1, 2, 3, 1)): 1}  # (m - j3) = 0
    assert e.apply(unit((2, (1, 1, 0, 1)))) == {(3, (2, 2, 1, 2)): 1,
                                                 (1, (1, 1, 0, 1)): F(-2, 6)}


def test_rhoE_weight_bookkeeping_case1():
    space = FockSpace(build_case(1), (F(0),))
    e = rho_E(space, rho_F(space))
    h = rho_H(space)
    # rho(E) 1 = z^4 w^4: Euler eigenvalue +4, m +1, net H-weight +2
    v_e = e.apply(unit((0, (0,))))
    assert v_e == {(1, (4,)): F(1)}
    w_before = h.apply(unit((0, (0,))))
    assert w_before == {}
    w_after = h.apply(v_e)
    assert w_after == {(1, (4,)): F(2)}


def test_rule_composition_is_operator_composition():
    # each composed rule, evaluated at a key, is the composite of the column maps
    space = FockSpace(build_case(4), (1, 0, 0))
    ops = [mult_w(space), diff_q(space), rho_H(space), sigma(space), rho_F(space),
           dk_action(space, 0, "f"), dk_action(space, 2, "e")]
    for a in ops:
        for b in ops:
            ab = a @ b
            for key in (k for m in range(1, 3) for k in block_basis(space, m)):
                assert ab.apply(unit(key)) == a.apply(b.apply(unit(key)))


ETA0_ONE = [(build_case(5), (0, 0, 0, 0)), (build_case(4), (1, 0, 0))]


RHOE_PAIRS = list(checks.COMMUTATOR_MATRIX) + [ETA0_ONE[1]]


@pytest.mark.parametrize("case,q", RHOE_PAIRS,
                         ids=[f"c{c.label}q{''.join(map(str, q))}" for c, q in RHOE_PAIRS])
def test_composed_rhoE_matches_the_column_conjugation(case, q):
    # the formal conjugation (rule composition) against sigma(rho(F)(sigma^{-1} e))
    space = FockSpace(case, q)
    f = rho_F(space)
    e, sig, sig_inv = rho_E(space, f), sigma(space), sigma_inverse(space)
    for key in (k for m in range(5) for k in block_basis(space, m)):
        assert e.apply(unit(key)) == sig.apply(f.apply(sig_inv.apply(unit(key))))


NO_KEPT_POLE = "no pole on a kept block"
ETA0_POLE = "[H,E]!=2E: pole at m = 1 on a rule into block 0"

COMM_MATRIX = [
    (build_case(1), (0,)),
    (build_case(1), (4,)),
    (build_case(3), (0, 0)),
    (build_case(3), (2, 2)),
    (build_case(5), (0, 0, 0, 0)),
    (build_case(5), (1, 1, 1, 1)),
]


@pytest.mark.parametrize("case,q", COMM_MATRIX, ids=lambda x: str(x))
def test_commutators_small(case, q):
    rep = commutator_check(case, q)
    assert rep.status == "pass"
    assert rep.details == f"kappa=1/A; all m >= 1 ({NO_KEPT_POLE}); 7 groups"


def test_commutator_calibration_case1(kappa_a):
    assert commutator_check(build_case(1), (0,)).status == "pass"
    kappa_a(fock)
    bad = commutator_check(build_case(1), (0,))
    assert bad.status == "fail" and bad.residual.startswith("[E,F]!=H: rule group dm=0 ")
    # case 4 (A = 4, eta0 = 1) fails at formal m too, not through its pole
    bad = commutator_check(build_case(4), (1, 0, 0))
    assert bad.status == "fail" and bad.residual.startswith("[E,F]!=H: rule group dm=")
    assert bad.residual.endswith(" does not vanish")


def test_commutator_case4_consistent_solution():
    rep = commutator_check(build_case(4), (1, 0, 0))
    assert rep.status == "pass"


def test_commutator_case11_forced_fails():
    # the first factor's eta0 = 1/3 on a q the second factor rejects
    rep = commutator_check(build_case(11), (0, 0))
    assert rep.status == "fail" and "does not vanish" in rep.residual


def test_commutator_fails_on_perturbed_delta(monkeypatch):
    # delta's eta0 off by 1/1000: every delta_m is slightly wrong
    real = fock.delta_constants

    def shifted(*args):
        kap, eta0 = real(*args)
        return kap, eta0 + F(1, 1000)

    monkeypatch.setattr(fock, "delta_constants", shifted)
    for case, q in ((build_case(1), (0,)), (build_case(5), (0, 0, 0, 0))):
        rep = commutator_check(case, q)
        assert rep.status == "fail" and rep.residual.startswith("[E,F]!=H: rule group")


def test_commutator_fails_with_one_sigma_sign_flipped(monkeypatch):
    monkeypatch.setattr(fock, "sigma", _sigma_with_j1_sign_flipped)
    for case, q in checks.COMMUTATOR_MATRIX:
        rep = commutator_check(case, q)
        assert rep.status == "fail" and "does not vanish" in rep.residual


def test_commutator_check_reads_no_column(monkeypatch):
    monkeypatch.setattr(OperatorMatrix, "apply", lambda *args: pytest.fail("column evaluated"))
    monkeypatch.setattr(fock.Rule, "image", lambda *args: pytest.fail("column evaluated"))
    for case, q in RHOE_PAIRS:
        rep = commutator_check(case, q)
        # eta0 = 1 (case 5 at q = 0, case 4 at q = (1, 0, 0)) puts a pole of
        # delta(m - 2) at m = 1, on rules into block -1
        assert rep.status == "pass" and f"({NO_KEPT_POLE}); 7 groups" in rep.details


def test_commutator_fails_on_a_pole_in_a_kept_block(monkeypatch):
    # eta0 = 0 moves delta(m - 1)'s pole to m = 1, where D lands in block 0
    real = fock.delta_constants
    monkeypatch.setattr(fock, "delta_constants", lambda *args: (real(*args)[0], F(0)))
    entries = [e for e in checks.select(("operators",)) if e.name == "fock.comm"]
    assert len(entries) == 8
    for entry in entries:
        (rep,) = checks.run_entry(entry)
        assert rep.status == "fail" and rep.residual == ETA0_POLE, rep


def _relation_holds_on_columns(a, b, c, scale, key):
    """A(B e_key) - B(A e_key) - scale C e_key = 0, column by column."""
    e = unit(key)
    out = _sub(a.apply(b.apply(e)), b.apply(a.apply(e)))
    return _sub(out, _scale(c.apply(e), scale)) == {}


BLOCK1_MATRIX = [*((c, q, "1/A") for c, q in RHOE_PAIRS), *((c, q, "A") for c, q in ETA0_ONE)]


@pytest.mark.parametrize("case,q,kappa", BLOCK1_MATRIX,
                         ids=[f"c{c.label}q{int(''.join(map(str, q)))}-{k}"
                              for c, q, k in BLOCK1_MATRIX])
def test_block1_verdicts_match_the_column_oracle(case, q, kappa, kappa_a):
    # each relation's verdict from the check's own prover (no pole on a kept
    # block, every group zero at formal m) against its columns on block 1
    if kappa == "A":
        kappa_a(fock)
    space = FockSpace(case, q)
    h, f = rho_H(space), rho_F(space)
    e = rho_E(space, f)
    verdicts = []
    for a, b, c, scale in ((h, e, e, 2), (h, f, f, -2), (e, f, h, 1)):
        rules = (a @ b).rules + (b @ a).scale(-1).rules + c.scale(-scale).rules
        proved = fock._prove(space, "comm", "", [("relation", rules)]).status == "pass"
        assert proved == all(_relation_holds_on_columns(a, b, c, scale, key)
                             for key in block_basis(space, 1))
        verdicts.append(proved)
    # case 5 has A = 1, so kappa = A is the same operator there
    assert verdicts == [True, True, kappa == "1/A" or case.label == "5"]


def test_dk_relations():
    space = FockSpace(build_case(5), (F(1),) * 4)
    for i in range(4):
        e, f, h = (dk_action(space, i, g) for g in "efh")
        for key in block_basis(space, 1):
            v = unit(key)
            ef = _sub(e.apply(f.apply(v)), f.apply(e.apply(v)))
            assert ef == h.apply(v)
            he = _sub(h.apply(e.apply(v)), e.apply(h.apply(v)))
            assert he == _scale(e.apply(v), F(-2))  # e = d/dz lowers degree
            hf = _sub(h.apply(f.apply(v)), f.apply(h.apply(v)))
            assert hf == _scale(f.apply(v), F(2))
    # different factors commute
    e0 = dk_action(space, 0, "e")
    f1 = dk_action(space, 1, "f")
    for key in block_basis(space, 1):
        v = unit(key)
        assert e0.apply(f1.apply(v)) == f1.apply(e0.apply(v))


def test_dk_examples():
    space = FockSpace(build_case(1), (F(0),))
    h = dk_action(space, 0, "h")
    assert h.apply(unit((1, (0,)))) == {(1, (0,)): -4}  # weight -km on constants
    e = dk_action(space, 0, "e")
    assert e.apply(unit((1, (1,)))) == {(1, (0,)): 1}


ORACLE_PAIRS = [(build_case(1), (0,)), (build_case(3), (0, 0)), (build_case(5), (1, 1, 1, 1))]


def _by_block(space, ring, vec):
    """{m: the polynomial in z of vec's part in block m}; every key must lie in its block."""
    out = {}
    for (m, js), c in vec.items():
        assert all(0 <= j <= n for j, n in zip(js, space.degree_bounds(m)))
        out[m] = out.get(m, MultiPoly.zero(ring)) + MultiPoly(ring, {js: c})
    return out


def _honest(space, op, i, m, psi):
    """op (M, D, or e, f, h of factor i) on psi, a polynomial in z in block m: {block: image}."""
    if op == "M":
        out = {m + 1: psi}
    elif op == "D":  # Q(d/dz), then division by prod w_i^{k_i}; there is no block -1
        for v, k in enumerate(space.ks):
            for _ in range(k):
                psi = psi.diff(v)
        out = {m - 1: psi} if m > 0 else {}
    else:  # e = d/dz, h = 2 z d/dz - N, f = z^2 d/dz - N z
        zi, n = MultiPoly.variable(psi.vars, i), space.degree_bounds(m)[i]
        out = {m: {"e": psi.diff(i), "h": (zi * psi.diff(i)).scale(2) - psi.scale(n),
                   "f": zi * zi * psi.diff(i) - (zi * psi).scale(n)}[op]}
    return {b: p for b, p in out.items() if not p.is_zero()}


@pytest.mark.parametrize("case,q", ORACLE_PAIRS, ids=["c1q0", "c3q00", "c5q1111"])
def test_rules_match_the_operators_on_polynomials(case, q):
    # M, D and the dk generators applied to polynomials with MultiPoly products
    # and diff, and sigma psi = prod (-z_i)^{N_i} psi(-1/z) evaluated on a grid
    # of N_i + 1 points per variable, which fixes a polynomial of that degree
    space = FockSpace(case, q)
    ring = VarSet.flat(tuple(f"z{i}" for i in range(1, case.s + 1)))
    ops = [("M", 0, mult_w(space)), ("D", 0, diff_q(space))]
    ops += [(g, i, dk_action(space, i, g)) for i in range(case.s) for g in "efh"]
    sig = sigma(space)
    for m, js in (k for m in range(3) for k in block_basis(space, m)):
        psi = MultiPoly(ring, {js: 1})
        for op, i, rules in ops:
            got = _by_block(space, ring, rules.apply(unit((m, js))))
            assert got == _honest(space, op, i, m, psi), (op, i, m, js)
        ns = space.degree_bounds(m)
        ((block, got),) = _by_block(space, ring, sig.apply(unit((m, js)))).items()
        assert block == m
        for pt in product(*(range(1, n + 2) for n in ns)):
            want = psi.eval([F(-1, x) for x in pt]) * math.prod((-x) ** n for x, n in zip(pt, ns))
            assert got.eval(pt) == want, ("sigma", m, js, pt)


def _sub(a, b):
    out = dict(a)
    for k, c in b.items():
        nv = out.get(k, F(0)) - c
        if nv:
            out[k] = nv
        elif k in out:
            del out[k]
    return out


def _scale(v, c):
    return {k: x * c for k, x in v.items()}


@pytest.mark.parametrize(
    "case,q",
    [(build_case(1), (0,)), (build_case(1), (4,)),
     (build_case(3), (0, 0)), (build_case(5), (0, 0, 0, 0))],
    ids=["c1q0", "c1q4", "c3", "c5"],
)
def test_cyclicity(case, q, monkeypatch):
    # the proof reads rule polynomials at formal m, never a column
    monkeypatch.setattr(OperatorMatrix, "apply",
                        lambda *args: pytest.fail("column evaluated"))
    rep = cyclicity_check(case, q)
    assert rep.status == "pass" and rep.details.startswith("irreducible, all m >= 0; ")


def test_cyclicity_fails_when_rhoF_does_not_lower(monkeypatch):
    # kappa = 0: the blocks m >= 1 form an invariant subspace, which span
    # growth from block 0 cannot see, since M alone fills every block from it
    real = fock.delta_constants
    monkeypatch.setattr(fock, "delta_constants",
                        lambda *args, **kwargs: (0, real(*args, **kwargs)[1]))
    rep = cyclicity_check(build_case(5), (0, 0, 0, 0))
    assert rep.status == "fail"
    assert rep.residual == "F down at j = N(m) may vanish for some m >= 1"


def test_cyclicity_fails_with_f1_off_by_a_constant(monkeypatch):
    real = fock.dk_action

    def shifted(space, i, generator):
        op = real(space, i, generator)
        if (i, generator) != (0, "f"):
            return op
        (r,) = op.rules
        return OperatorMatrix([replace(r, num=r.num + space.const(1))])

    monkeypatch.setattr(fock, "dk_action", shifted)
    rep = cyclicity_check(build_case(1), (0,))
    assert rep.status == "fail" and rep.residual == "f_1 is not the rule c (j_1 - N_1(m))"


def test_monomial_norms_exact():
    norms = monomial_norms_exact(0, 1)
    assert norms[0] == 1
    assert norms[2] == F(1, 6)
    assert norms[4] == 1


def test_reproducing_check():
    rep = reproducing_check(q=0, m_values=(0, 1, 2, 3))
    assert rep.status == "pass"
    assert (rep.residual, rep.tolerance) == ("0", "exact")
    assert rep.details == "m in [0, 1, 2, 3]; exact Beta integrals"


def test_reproducing_check_fails_with_the_weight_exponent_off_by_one(monkeypatch):
    # (1+t)^-(n+3) gives 1/binom(n+1, j): every j >= 1 of m >= 1 mismatches
    real = fock.beta_integral
    monkeypatch.setattr(fock, "beta_integral", lambda j, n: real(j, n + 1))
    rep = reproducing_check(q=0, m_values=(0, 1, 2, 3))
    assert rep.status == "fail" and rep.residual == str(4 + 8 + 12)


def test_beta_integral_against_mpmath_quadrature():
    # int_0^inf t^j (1+t)^-(n+2) dt = j! (n-j)! / (n+1)!, against an
    # independent numerical integral
    import mpmath as mp

    assert beta_integral(0, 4) == F(1, 5) and beta_integral(2, 4) == F(1, 30)
    with mp.workdps(30):
        for n, j in ((0, 0), (4, 0), (4, 2), (9, 4), (14, 14)):
            ref = mp.quad(lambda t: t**j * (1 + t) ** -(n + 2), [0, 1, mp.inf])
            exact = beta_integral(j, n)
            assert abs(ref - mp.mpf(exact.numerator) / exact.denominator) < 1e-25 * ref
