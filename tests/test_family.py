from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from kleinprym.algebra import discriminant
from kleinprym.errors import ArgumentError, DomainError
from kleinprym.family import (
    CurveLabel,
    ELLIPTIC_LABELS,
    GENUS2_LABELS,
    HyperellipticModel,
    InvolutionLabel,
    QUOTIENT_LABELS,
    check_domain,
    curve_equation,
    fixed_point_count,
    j_invariant,
    params_from_roots,
    quotient_map,
    verify_quotient_identity,
)

domain_params = st.tuples(
    st.fractions(min_value=-20, max_value=20, max_denominator=8),
    st.fractions(min_value=-20, max_value=20, max_denominator=8),
).filter(lambda ab: ab[0] != ab[1] and ab[0] ** 2 != 4 and ab[1] ** 2 != 4
         ).map(lambda ab: check_domain(*ab))


@pytest.mark.parametrize("a,b", [(1, 1), (2, 5), (5, -2)])
def test_domain_rejections(a, b):
    with pytest.raises(DomainError):
        check_domain(a, b)


@given(domain_params)
def test_stored_factors_multiply_to_rhs(params):
    for label in CurveLabel:
        model = curve_equation(label, params)
        product = model.factors[0]
        for f in model.factors[1:]:
            product = product * f
        assert product == model.rhs
        if model.genus == 1:
            assert all(f.degree <= 2 for f in model.factors)
        assert model == HyperellipticModel.from_rhs(model.rhs)  # factors do not compare


def test_genera():
    p = check_domain(0, 1)
    assert curve_equation(CurveLabel.Ctilde, p).genus == 3
    for label in GENUS2_LABELS:
        assert curve_equation(label, p).genus == 2
    for label in ELLIPTIC_LABELS:
        assert curve_equation(label, p).genus == 1


@given(domain_params)
def test_family_rhs_is_squarefree_on_domain(params):
    rhs = curve_equation(CurveLabel.Ctilde, params).rhs
    assert discriminant(rhs) != 0


@pytest.mark.parametrize("label", QUOTIENT_LABELS)
def test_quotient_identities_at_reference_points(label):
    for a, b in ((0, 1), (1, 3), (Fraction(-7, 3), Fraction(9, 5))):
        params = check_domain(a, b)
        assert verify_quotient_identity(quotient_map(label, params), params)


def test_quotient_map_rejects_identity_label():
    with pytest.raises(ArgumentError):
        quotient_map(CurveLabel.Ctilde, check_domain(0, 1))


def test_e_is_it_sign_choice_is_forced():
    # replacing the (x - 2) factor by (x + 2) breaks the identity
    from kleinprym.algebra import Polynomial, substitute_rational_map

    params = check_domain(0, 1)
    q = quotient_map(CurveLabel.E_is_it, params)
    wrong = Polynomial((2, 1)) * Polynomial((0, 1)) * Polynomial((1, 1))  # (x+2)x(x+1)
    f_src = curve_equation(CurveLabel.Ctilde, params).rhs
    num, k = substitute_rational_map(wrong, q.U_num, q.U_den)
    assert q.W_num * q.W_num * f_src * (q.U_den ** k) != num * q.W_den * q.W_den


@given(domain_params)
def test_fixed_point_profile(params):
    expected = {
        InvolutionLabel.iota: 8,
        InvolutionLabel.sigma: 4,
        InvolutionLabel.tau: 4,
        InvolutionLabel.sigma_tau: 4,
        InvolutionLabel.iota_sigma: 0,
        InvolutionLabel.iota_tau: 0,
        InvolutionLabel.iota_sigma_tau: 0,
    }
    for inv, n in expected.items():
        count, records = fixed_point_count(inv, params)
        assert count == n
        assert sum(r["points"] for r in records) == n


def test_params_from_roots_gives_vanishing_rhs():
    t1, t2 = Fraction(3, 2), Fraction(5)
    params = params_from_roots(t1, t2)
    rhs = curve_equation(CurveLabel.Ctilde, params).rhs
    for r in (t1, -t1, 1 / t1, t2, -t2, 1 / t2):
        assert rhs.evaluate(r) == 0


def test_j_invariant_anchors():
    p01 = check_domain(0, 1)
    assert j_invariant(curve_equation(CurveLabel.E_t, p01)) == 287496
    assert j_invariant(curve_equation(CurveLabel.E_is_t, p01)) == 1728
    assert j_invariant(curve_equation(CurveLabel.E_is_it, p01)) == Fraction(21952, 9)


@given(domain_params)
def test_j_invariant_defined_on_all_elliptic_quotients(params):
    for label in ELLIPTIC_LABELS:
        j_invariant(curve_equation(label, params))  # must not raise


def test_j_invariant_rejects_wrong_genus():
    with pytest.raises(ArgumentError):
        j_invariant(curve_equation(CurveLabel.C_is, check_domain(0, 1)))


@given(domain_params)
def test_quartic_and_cubic_models_share_j_along_tau_quotients(params):
    assume(params.phi_defined)
    # E_t (quartic model) and E_is_t (cubic model) are distinct curves in
    # general, but both j computations must commute with parameter swap
    swapped = params.swapped()
    for label in ELLIPTIC_LABELS:
        assert j_invariant(curve_equation(label, params)) == \
            j_invariant(curve_equation(label, swapped))
