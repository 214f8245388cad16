"""eta0 admissibility, delta sequence, Maass images, and the symbol identity."""

import dataclasses
from fractions import Fraction as F

import pytest

from focklab import sl2
from focklab.jordan import CaseDescriptor, build_case, default_catalog, full_mat, rank1, spin
from focklab.polyalg import MultiPoly, VarSet
from focklab.sl2 import (
    delta_constants,
    eta0_of,
    feasible_q_values,
    lemma35_check,
    lemma35_solved_form,
    maass_hc_image,
    pm_identity_check,
    solve_eta0,
)


def test_solve_eta0_case5():
    adm = solve_eta0(build_case(5))
    assert adm.strict_feasible
    # q1 = q2 = q3 = q4 = q, eta0 = q + 1
    assert adm.eta0_affine == (F(1), F(1))
    assert adm.minimal_q[0] == (0, 0, 0, 0)
    assert all(a == 1 and b == 0 for a, b in adm.q_relations)


def test_solve_eta0_case2():
    adm = solve_eta0(build_case(2, p=4))
    # eta0 = q/2 + p/4, q in 2N
    assert adm.eta0_affine == (F(1, 2), F(1))
    assert adm.minimal_q[:2] == [(0,), (2,)]


def test_solve_eta0_case11_impossible():
    adm = solve_eta0(build_case(11))
    assert not adm.strict_feasible and not adm.cover_feasible
    assert not adm.feasible
    # the affine relation itself: q2 = q1/3 - 2/3
    assert adm.q_relations[1] == (F(1, 3), F(-2, 3))


def test_solve_eta0_case4_half_integers():
    adm = solve_eta0(build_case(4))
    assert not adm.strict_feasible and adm.cover_feasible
    # consistent solution q2 = q3 = q1/2 - 1/2 (paper prints +1/2; see ledger)
    assert adm.q_relations[1] == (F(1, 2), F(-1, 2))
    assert adm.minimal_q[0] == (1, 0, 0)


def test_solve_eta0_case6_parity():
    # p odd: q2 = 2 q1 + p - 1 is even, q2/k2 integral
    adm = solve_eta0(build_case(6, p=3))
    assert adm.strict_feasible
    assert adm.q_relations[1] == (F(2), F(2))


def test_solve_eta0_matches_a_plain_scan():
    # solve_eta0 scans four periods of q1 = t/2; a plain scan of t < 512,
    # with q_i = k_i eta0 - n_i/r_i read off the grading constraint, must
    # give the same flags and the same first four points; the last case's
    # q2 = q1/2 - 139/2 puts its lattice at q1 >= 139
    from focklab.checks import FEASIBLE_CASES

    late = CaseDescriptor(0, (rank1(2), spin(140)), "", "", "", 0)
    for case in (*default_catalog(), *FEASIBLE_CASES, late):
        f1 = case.factors[0]
        strict, cover = [], []
        for t in range(512):
            eta0 = F(t, 2) / f1.mult + F(f1.dim, f1.mult * f1.rank)
            q = tuple(f.mult * eta0 - F(f.dim, f.rank) for f in case.factors)
            both = q + tuple(qi / f.mult for qi, f in zip(q, case.factors))
            if min(q) < 0 or any((2 * x).denominator != 1 for x in both):
                continue
            (strict if all(x.denominator == 1 for x in both) else cover).append(q)
        adm = solve_eta0(case)
        assert (adm.strict_feasible, adm.cover_feasible) == (bool(strict), bool(cover)), case.label
        assert adm.minimal_q == (strict or cover)[:4], case.label


def _eta0_off(adm):
    return dataclasses.replace(adm, eta0_affine=(adm.eta0_affine[0], adm.eta0_affine[1] + F(1, 2)))


def _relations_off(adm):
    return dataclasses.replace(adm, q_relations=[(a, b + 1) for a, b in adm.q_relations])


def _last_q_off(adm):
    # off the eta0 relations wherever there are two factors: eta0_of raises
    return dataclasses.replace(adm, minimal_q=[q[:-1] + (q[-1] + 1,) for q in adm.minimal_q])


@pytest.mark.parametrize("mutate, failing", [
    (_eta0_off, 18), (_relations_off, 18),
    (lambda adm: _relations_off(_eta0_off(adm)), 18), (_last_q_off, 12),
], ids=["eta0", "relations", "both", "q"])
def test_eta0_check_fails_on_a_wrong_solver(monkeypatch, mutate, failing):
    # the sl2.eta0 reports compare solve_eta0 with eta0_of on each minimal q:
    # every feasible case with a wrong eta0 or q relation fails, never errors
    import focklab.sl2 as sl2
    from focklab import checks

    entries = [e for e in checks.select(("sl2",)) if e.name == "sl2.eta0"]
    run = lambda: [r for e in entries for r in checks.run_entry(e)]
    assert {r.status for r in run()} == {"pass"}
    real = sl2.solve_eta0
    monkeypatch.setattr(sl2, "solve_eta0", lambda case: mutate(real(case)))
    reports = run()
    assert {r.status for r in reports} == {"pass", "fail"}
    assert len([r for r in reports if r.status == "fail"]) == failing
    assert all(r.residual.startswith("q=(") for r in reports if r.status == "fail")


def test_eta0_of_validates():
    case = build_case(5)
    assert eta0_of(case, (2, 2, 2, 2)) == 3
    with pytest.raises(ValueError):
        eta0_of(case, (1, 0, 0, 0))


def test_delta_sequence_case5():
    kap, eta0 = delta_constants(build_case(5), (0, 0, 0, 0))
    # A = 1: delta_m = 1/((m+1)(m+2)), the same under either normalization
    assert (kap, eta0) == (1, 1) and build_case(5).bernstein_lead == 1


def test_delta_sequence_case1_calibrated():
    # kappa = 1/A with A = 256, eta0 = 1/4 (kappa = A: test_pm_identity_wrong_kappa_fails)
    assert delta_constants(build_case(1), (0,)) == (F(1, 256), F(1, 4))
    # the first factor's eta0, also on a q the others reject
    assert delta_constants(build_case(11), (0, 0))[1] == F(1, 3)


def test_delta_eta0_is_eta0_of_on_every_admissible_q():
    from focklab import checks

    for case, qs in PM_MATRIX:
        for q in qs:
            assert delta_constants(case, q)[1] == eta0_of(case, q)
    for case, q in checks.feasible_pairs():
        assert delta_constants(case, q)[1] == eta0_of(case, q)


def hc_image(factor, alpha):
    """maass_hc_image of one factor over the ring (m, lambda_1..lambda_r)."""
    ring = VarSet(("m",) + tuple(f"l1_{j}" for j in range(1, factor.rank + 1)))
    return maass_hc_image(factor, alpha, ring, list(range(1, 1 + factor.rank)))


def test_maass_image_examples():
    img = hc_image(rank1(1), F(0))
    lam = MultiPoly.variable(img.vars, 1)
    assert img == lam

    img = hc_image(rank1(4), F(-1))
    expected = MultiPoly.constant(img.vars, 1)
    for t in (4, 3, 2, 1):
        expected = expected * (MultiPoly.variable(img.vars, 1) + MultiPoly.constant(img.vars, t))
    assert img == expected

    img = hc_image(full_mat(4), F(0))
    expected = MultiPoly.constant(img.vars, 1)
    for j in range(1, 5):
        expected = expected * (
            MultiPoly.variable(img.vars, j) + MultiPoly.constant(img.vars, F(3, 2))
        )
    assert img == expected


def test_maass_leading_coefficient_matches_bernstein_lead():
    # gamma_0 rescaled to the X variables (lambda = k X) has leading
    # coefficient k^{k r}, the leading coefficient A of B
    from focklab.bernstein import case_b_poly

    case = build_case(1)
    img = hc_image(rank1(4), F(0))
    # substitute lambda -> 4 X: scale each lambda exponent's coefficient by 4^e
    lam_idx = 1
    lead_exp = max(e[lam_idx] for e in img.terms)
    lead = img.terms[
        next(e for e in img.terms if e[lam_idx] == lead_exp)
    ] * F(4) ** lead_exp
    assert lead == case.bernstein_lead == case_b_poly(case).terms[(4,)] == 256


def test_maass_image_symmetric_in_lambda_block():
    img = hc_image(full_mat(3), F(-2))
    # swap lambda_1 and lambda_2: exponent transposition leaves img fixed
    swapped = {}
    for e, c in img.terms.items():
        e2 = list(e)
        e2[1], e2[2] = e2[2], e2[1]
        swapped[tuple(e2)] = c
    assert swapped == img.terms


PM_MATRIX = [
    (build_case(1), [(0,), (4,)]),
    (build_case(2, p=2), [(0,), (2,)]),
    (build_case(2, p=3), [(0,), (2,)]),
    (build_case(2, p=5), [(0,), (4,)]),
    (build_case(6, p=5), [(0, 4), (2, 8)]),
    (build_case(3), [(0, 0), (2, 2)]),
    (build_case(4), [(1, 0, 0), (3, 1, 1)]),
    (build_case(5), [(0, 0, 0, 0), (2, 2, 2, 2)]),
    (build_case(6, p=3), [(0, 2), (1, 4)]),
    (build_case(7, p=2), [(0, 0, 0), (2, 2, 2)]),
    (build_case(7, p=4), [(0, 1, 1), (1, 2, 2)]),
    (build_case(8, p1=2, p2=2), [(0, 0), (1, 1)]),
    (build_case(8, p1=4, p2=2), [(0, 1), (2, 3)]),
    (build_case(9, variant="a"), [(0,), (1,)]),
    (build_case(9, variant="b"), [(0,), (2,)]),
    (build_case(9, variant="c"), [(0,), (1,)]),
    (build_case(10, variant="a"), [(0, 1), (2, 3)]),
    (build_case(10, variant="b"), [(0, 2), (1, 3)]),
    (build_case(10, variant="c"), [(0, 4), (1, 5)]),
    (build_case(10, variant="d"), [(0, 8), (2, 10)]),
]


@pytest.mark.parametrize("case,qs", PM_MATRIX, ids=lambda x: getattr(x, "label", ""))
def test_pm_identity_zero_residual(case, qs):
    for q in qs:
        rep = pm_identity_check(case, q)
        assert (rep.status, rep.residual) == ("pass", "0")


def test_pm_identity_case11_forced_nonzero():
    # delta at the first factor's eta0, on q that the second factor rejects
    for q in ((0, 0), (3, 0)):
        rep = pm_identity_check(build_case(11), q)
        assert rep.status == "fail" and rep.residual.endswith(" terms"), rep


@pytest.mark.parametrize("prop", ["n_over_r", "eta0_shift"])
def test_pm_identity_fails_with_a_factor_constant_off_by_half(monkeypatch, prop):
    # n/r enters the Maass images and n/(k r) the eta0 of delta; either one
    # off by 1/2 must leave a nonzero residual on every feasible (case, q)
    from focklab import checks
    from focklab.jordan import SimpleFactorDescriptor

    entries = [e for e in checks.select(("sl2",)) if e.name == "sl2.pm"]
    assert len(entries) == len(checks.feasible_pairs())
    real = getattr(SimpleFactorDescriptor, prop).fget
    monkeypatch.setattr(SimpleFactorDescriptor, prop, property(lambda f: real(f) + F(1, 2)))
    for e in entries:
        (rep,) = checks.run_entry(e)
        assert rep.status == "fail" and rep.residual.endswith(" terms"), rep


def test_pm_identity_wrong_kappa_fails(kappa_a):
    kappa_a(sl2)
    rep = pm_identity_check(build_case(1), (0,))
    assert rep.status == "fail" and rep.residual.endswith(" terms"), rep
    # for A = 1 both conventions coincide
    rep = pm_identity_check(build_case(5), (0, 0, 0, 0))
    assert (rep.status, rep.residual) == ("pass", "0")


def test_lemma35_all_ones_partition():
    alpha, beta, c = lemma35_solved_form((1, 1, 1, 1), ((), (), (), ()), 1)
    assert (alpha, beta, c) == (F(1, 6), F(1, 2), -2)
    rep = lemma35_check((1, 1, 1, 1), ((), (), (), ()), [1] * 4, alpha, beta, c)
    assert (rep.status, rep.residual) == ("pass", "0")


def test_lemma35_single_part():
    gammas = ((F(-1, 4), F(-1, 2), F(-3, 4)),)
    for b in (F(1, 4), F(5, 4), F(7, 3)):
        alpha, beta, c = lemma35_solved_form((4,), gammas, b)
        assert c == sum(gammas[0]) - 2 * b
        rep = lemma35_check((4,), gammas, [b], alpha, beta, c)
        assert (rep.status, rep.residual) == ("pass", "0")


def test_lemma35_mixed_partition():
    gammas = ((F(-1, 2),), (F(1, 3),))
    alpha, beta, c = lemma35_solved_form((2, 2), gammas, 2)
    rep = lemma35_check((2, 2), gammas, [2, 2], alpha, beta, c)
    assert (rep.status, rep.residual) == ("pass", "0")


def test_lemma35_unequal_b_fails():
    gammas = ((F(-1, 2),), (F(-1, 2),))
    alpha, beta, c = lemma35_solved_form((2, 2), gammas, 1)
    rep = lemma35_check((2, 2), gammas, [1, 2], alpha, beta, c)
    assert rep.status == "fail" and rep.residual.endswith(" terms"), rep


def test_lemma35_wrong_alpha_fails():
    rep = lemma35_check((1, 1, 1, 1), ((), (), (), ()), [1] * 4, F(1, 5), F(1, 2), -2)
    assert rep.status == "fail" and rep.residual.endswith(" terms"), rep


def test_expand_q_and_validation():
    from focklab.sl2 import expand_q, validate_q

    case5 = build_case(5)
    assert expand_q(case5, (F(2),)) == (2, 2, 2, 2)
    case10 = build_case(10, variant="b")  # q2 = q1 + 2
    assert expand_q(case10, (1,)) == (1, 3)
    with pytest.raises(ValueError):
        expand_q(build_case(4), (0,))  # q2 = -1/2 < 0
    case1 = build_case(1)  # strict lattice q1 in 4N, cover lattice 2N
    assert expand_q(case1, (4,)) == (4,) and expand_q(case1, (2,)) == (2,)
    for off in ((1,), (F(1, 2),), (-4,), (0, 0)):
        with pytest.raises(ValueError):
            expand_q(case1, off)
    with pytest.raises(ValueError):
        expand_q(case5, (0, 0, 0, 1))  # off the eta0 relations
    with pytest.raises(ValueError):
        validate_q(case5, (0, 0))
    with pytest.raises(ValueError):
        eta0_of(case5, (0, 0))


def test_feasible_q_values_matrix():
    assert feasible_q_values(build_case(1), 2) == [(0,), (4,)]
    assert feasible_q_values(build_case(11), 2) == []
    vals = feasible_q_values(build_case(10, variant="b"), 2)
    assert vals[0] == (0, 2)  # q2 = q1 + d1 with d1 = 2
