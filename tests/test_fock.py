"""Graded Fock blocks and exact operator matrices for rank-1-product cases."""

from fractions import Fraction as F

import pytest

from focklab import fock
from focklab.fock import (
    Truncation,
    beta_integral,
    commutator_check,
    cyclicity_check,
    dk_action,
    monomial_norms_exact,
    op_D,
    op_M,
    op_rhoE,
    op_rhoF,
    op_rhoH,
    op_sigma,
    op_sigma_inverse,
    reproducing_check,
    sigma_involution_check,
)
from focklab.jordan import build_case


def unit(key):
    return {key: F(1)}


def test_truncation_rejects_non_rank1():
    case2 = build_case(2, p=3)
    with pytest.raises(ValueError):
        Truncation(case2, (F(0),), 3)


def test_block_dims_case1():
    tr = Truncation(build_case(1), (F(0),), 4)
    assert [tr.block_dim(m) for m in range(5)] == [1, 5, 9, 13, 17]
    tr = Truncation(build_case(1), (F(4),), 2)
    assert tr.degree_bounds(1) == (8,)


def test_op_M_examples():
    case5 = build_case(5)
    tr = Truncation(case5, (F(0),) * 4, 3)
    m_op = op_M(tr)
    assert m_op.column((0, (0, 0, 0, 0))) == [((1, (0, 0, 0, 0)), F(1))]
    tr1 = Truncation(build_case(1), (F(0),), 3)
    assert op_M(tr1).column((1, (3,))) == [((2, (3,)), F(1))]


def test_op_D_examples():
    tr = Truncation(build_case(1), (F(0),), 3)
    d = op_D(tr)
    assert d.column((1, (4,))) == [((0, (0,)), F(24))]
    assert d.column((1, (3,))) == []
    case5 = build_case(5)
    tr5 = Truncation(case5, (F(0),) * 4, 2)
    assert op_D(tr5).column((1, (1, 1, 1, 1))) == [((0, (0, 0, 0, 0)), F(1))]


def test_op_rhoH_examples():
    case5 = build_case(5)
    tr5 = Truncation(case5, (F(0),) * 4, 2)
    # rho(H) 1 = 0 at m = 0 (zero entries are not stored)
    assert op_rhoH(tr5).column((0, (0, 0, 0, 0))) == []
    tr1 = Truncation(build_case(1), (F(0),), 3)
    h = op_rhoH(tr1)
    assert h.column((1, (2,))) == []  # 2 - 4/2 = 0
    assert h.column((1, (4,))) == [((1, (4,)), F(2))]


def test_op_sigma_examples():
    tr1 = Truncation(build_case(1), (F(0),), 3)
    s = op_sigma(tr1)
    assert s.column((1, (0,))) == [((1, (4,)), F(1))]  # 1 -> z^4, sign +
    assert s.column((1, (4,))) == [((1, (0,)), F(1))]
    case5 = build_case(5)
    tr5 = Truncation(case5, (F(0),) * 4, 2)
    col = op_sigma(tr5).column((1, (1, 0, 0, 0)))
    assert col == [((1, (0, 1, 1, 1)), F(-1))]  # spec example: sign -1


def test_sigma_involution_block_sign():
    for case, q in ((build_case(1), (0,)), (build_case(5), (1, 1, 1, 1)),
                    (build_case(3), (2, 2))):
        rep = sigma_involution_check(case, q, m_trunc=3)
        assert rep.status == "pass"


@pytest.mark.parametrize(
    "case,q",
    [(build_case(1), (4,)), (build_case(3), (2, 2)), (build_case(5), (1, 1, 1, 1))],
    ids=["c1q4", "c3q22", "c5q1111"],
)
def test_sigma_inverse_undoes_sigma(case, q):
    tr = Truncation(case, q, 3)
    sig = op_sigma(tr)
    sig_inv = op_sigma_inverse(tr, sig)
    for key in (k for m in range(4) for k in tr.block_basis(m)):  # every block m = 0..3
        assert sig_inv.apply(sig.apply(unit(key))) == unit(key)
        assert sig.apply(sig_inv.apply(unit(key))) == unit(key)


def test_rhoF_and_rhoE_case5():
    case5 = build_case(5)
    q = (F(0),) * 4
    tr = Truncation(case5, q, 3)
    f = op_rhoF(tr, q)
    # rho(F) 1 = w1 w2 w3 w4 (D kills constants)
    assert f.column((0, (0, 0, 0, 0))) == [((1, (0, 0, 0, 0)), F(1))]
    e = op_rhoE(tr, f, op_sigma(tr))
    col = dict(e.column((0, (0, 0, 0, 0))))
    assert col == {(1, (1, 1, 1, 1)): F(1)}  # multiplication by Q(z) w^k


def test_rhoE_weight_bookkeeping_case1():
    case1 = build_case(1)
    q = (F(0),)
    tr = Truncation(case1, q, 4)
    e = op_rhoE(tr, op_rhoF(tr, q), op_sigma(tr))
    h = op_rhoH(tr)
    # rho(E) 1 = z^4 w^4: Euler eigenvalue +4, m +1, net H-weight +2
    col = dict(e.column((0, (0,))))
    assert col == {(1, (4,)): F(1)}
    v_e = e.apply(unit((0, (0,))))
    w_before = h.apply(unit((0, (0,))))
    assert w_before == {}
    w_after = h.apply(v_e)
    assert w_after == {(1, (4,)): F(2)}


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
    rep = commutator_check(case, q, m_trunc=4)
    assert rep.status == "pass"
    assert "kappa=1/A" in rep.details


def test_commutator_calibration_case1():
    ok = commutator_check(build_case(1), (0,), m_trunc=4, kappa="1/A")
    bad = commutator_check(build_case(1), (0,), m_trunc=4, kappa="A")
    assert ok.status == "pass" and bad.status == "fail"


def test_commutator_case4_consistent_solution():
    rep = commutator_check(build_case(4), (1, 0, 0), m_trunc=4)
    assert rep.status == "pass"


def test_commutator_case11_forced_fails():
    rep = commutator_check(build_case(11), (0, 0), m_trunc=4, kappa="1/A", forced=True)
    assert rep.status == "fail"


def test_commutator_fails_on_perturbed_delta(monkeypatch):
    real = fock.delta_sequence

    def perturbed(*args, **kwargs):
        seq = real(*args, **kwargs)
        seq.values[2] += F(1, 1000)  # one delta_m off, every other exact
        return seq

    monkeypatch.setattr(fock, "delta_sequence", perturbed)
    rep = commutator_check(build_case(5), (0, 0, 0, 0), m_trunc=4, kappa="1/A")
    assert rep.status == "fail"


@pytest.mark.parametrize("m_trunc", [1, 0, -1])
def test_commutator_check_needs_an_interior_block(m_trunc):
    # m_trunc < 2 leaves the interior blocks 1..m_trunc-1 empty: nothing to check
    with pytest.raises(ValueError, match="no interior block"):
        commutator_check(build_case(1), (0,), m_trunc=m_trunc)


def test_dk_relations():
    case5 = build_case(5)
    q = (F(1),) * 4
    tr = Truncation(case5, q, 2)
    for i in range(4):
        e, f, h = (dk_action(tr, i, g) for g in "efh")
        for key in tr.block_basis(1):
            v = unit(key)
            ef = _sub(e.apply(f.apply(v)), f.apply(e.apply(v)))
            assert ef == h.apply(v)
            he = _sub(h.apply(e.apply(v)), e.apply(h.apply(v)))
            assert he == _scale(e.apply(v), F(-2))  # e = d/dz lowers degree
            hf = _sub(h.apply(f.apply(v)), f.apply(h.apply(v)))
            assert hf == _scale(f.apply(v), F(2))
    # different factors commute
    e0 = dk_action(tr, 0, "e")
    f1 = dk_action(tr, 1, "f")
    for key in tr.block_basis(1):
        v = unit(key)
        assert e0.apply(f1.apply(v)) == f1.apply(e0.apply(v))


def test_dk_examples():
    tr = Truncation(build_case(1), (F(0),), 2)
    h = dk_action(tr, 0, "h")
    assert h.column((1, (0,))) == [((1, (0,)), F(-4))]  # weight -km on constants
    e = dk_action(tr, 0, "e")
    assert e.column((1, (1,))) == [((1, (0,)), F(1))]


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
def test_cyclicity(case, q):
    rep = cyclicity_check(case, q, m_trunc=4)
    assert rep.status == "pass"


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


def test_reproducing_check_fails_with_the_weight_exponent_off_by_one():
    # (1+t)^-(n+3) gives 1/binom(n+1, j): every j >= 1 of m >= 1 mismatches
    rep = reproducing_check(q=0, m_values=(0, 1, 2, 3), _exponent_shift=1)
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
