from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from family_oracle import (model_from_rhs, oracle_factors, oracle_identity,
                           oracle_identity_sides, oracle_rhs)
from j_oracle import binary_quartic_invariants, oracle_j
from kleinprym.acceptance import IDENTITY_GRID
from kleinprym.algebra import Polynomial, is_squarefree, resultant
from kleinprym.errors import ArgumentError, DegreeError, DomainError, InternalInvariantError
from kleinprym.family import (
    CurveLabel,
    ELLIPTIC_LABELS,
    GENUS2_LABELS,
    FamilyParams,
    HyperellipticModel,
    InvolutionLabel,
    QUOTIENT_LABELS,
    QuotientMapData,
    _identity_sides,
    check_domain,
    curve_equation,
    fixed_point_count,
    j_invariant,
    quartic_invariants,
    quotient_map,
    verify_quotient_identity,
)

domain_params = st.tuples(
    st.fractions(min_value=-20, max_value=20, max_denominator=8),
    st.fractions(min_value=-20, max_value=20, max_denominator=8),
).filter(lambda ab: ab[0] != ab[1] and ab[0] ** 2 != 4 and ab[1] ** 2 != 4
         ).map(lambda ab: check_domain(*ab))



def fractions_of_height(h):
    return st.builds(Fraction, st.integers(-h, h), st.integers(1, h))


def params_of_height(h):
    values = fractions_of_height(h)
    return st.tuples(values, values).filter(
        lambda ab: ab[0] != ab[1] and ab[0] ** 2 != 4 and ab[1] ** 2 != 4
    ).map(lambda ab: check_domain(*ab))


# points of height 50 and 10^6, the benchmark's two heights
drawn_params = st.one_of(params_of_height(50), params_of_height(10**6))


X, A, B = sympy.symbols("x a b")

# the paper's equations y^2 = rhs(x), written independently of the library
SYMBOLIC_RHS = {
    CurveLabel.Ctilde: (X**4 + A * X**2 + 1) * (X**4 + B * X**2 + 1),
    CurveLabel.C_is: X * (X**2 + A * X + 1) * (X**2 + B * X + 1),
    CurveLabel.C_it: (X**2 - 4) * (X**2 + A - 2) * (X**2 + B - 2),
    CurveLabel.C_ist: (X**2 + 4) * (X**2 + A + 2) * (X**2 + B + 2),
    CurveLabel.E_s: (X**2 + A * X + 1) * (X**2 + B * X + 1),
    CurveLabel.E_t: (X**2 + A - 2) * (X**2 + B - 2),
    CurveLabel.E_st: (X**2 + A + 2) * (X**2 + B + 2),
    CurveLabel.E_is_t: (X + A) * (X + B) * (X + 2),
    CurveLabel.E_s_it: (X + A) * (X + B) * (X - 2) * (X + 2),
    CurveLabel.E_is_it: (X + A) * (X + B) * (X - 2),
}

# disc(rhs) = c (a-b)^e1 (a-2)^e2 (a+2)^e3 (b-2)^e4 (b+2)^e5 as (c, exponents)
DISCRIMINANTS = {
    CurveLabel.Ctilde: (256, (8, 2, 2, 2, 2)),
    CurveLabel.C_is: (1, (4, 1, 1, 1, 1)),
    CurveLabel.C_it: (256, (4, 1, 4, 1, 4)),
    CurveLabel.C_ist: (-256, (4, 4, 1, 4, 1)),
    CurveLabel.E_s: (1, (4, 1, 1, 1, 1)),
    CurveLabel.E_t: (16, (4, 1, 0, 1, 0)),
    CurveLabel.E_st: (16, (4, 0, 1, 0, 1)),
    CurveLabel.E_is_t: (1, (2, 2, 0, 2, 0)),
    CurveLabel.E_s_it: (16, (2, 2, 2, 2, 2)),
    CurveLabel.E_is_it: (1, (2, 0, 2, 0, 2)),
}


def pinned_discriminant(label, a, b):
    c, exponents = DISCRIMINANTS[label]
    for base, e in zip((a - b, a - 2, a + 2, b - 2, b + 2), exponents):
        c *= base ** e
    return c


def polynomial_of(expr, a, b) -> Polynomial:
    coeffs = sympy.Poly(expr.subs({A: a, B: b}), X).all_coeffs()[::-1]
    return Polynomial(Fraction(int(c.p), int(c.q)) for c in coeffs)


def sympy_polynomial(p: Polynomial):
    return sum(sympy.Rational(c.numerator, c.denominator) * X**i
               for i, c in enumerate(p.coeffs))


@pytest.mark.parametrize("a", ["1e9999", "1.5", " ", float("nan"), float("inf"), None, "x"])
def test_check_domain_refuses_what_the_command_line_refuses(a):
    # text goes through the one grammar of parse_rational, so an exponent
    # never builds a huge numerator; a non-finite float is no rational
    with pytest.raises(ArgumentError):
        check_domain(a, 1)
    with pytest.raises(ArgumentError):
        check_domain(1, a)


def test_check_domain_takes_text_ints_fractions_and_floats():
    assert check_domain("-13/4", " 7 ") == check_domain(Fraction(-13, 4), 7)
    assert check_domain(0.5, 3) == check_domain(Fraction(1, 2), 3)


@pytest.mark.parametrize("a,b", [(1, 1), (2, 5), (5, -2)])
def test_domain_rejections(a, b):
    with pytest.raises(DomainError):
        check_domain(a, b)


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
    assert resultant(rhs, rhs.derivative()) != 0


@pytest.mark.parametrize("label", list(CurveLabel))
def test_symbolic_models_are_the_library_models(label):
    for a, b in ((0, 1), (Fraction(-7, 3), Fraction(9, 5)), (3, -5)):
        params = check_domain(a, b)
        assert curve_equation(label, params).rhs == polynomial_of(SYMBOLIC_RHS[label], a, b)


@pytest.mark.parametrize("label", list(CurveLabel))
def test_pinned_discriminant_is_the_sympy_factorisation(label):
    disc = sympy.discriminant(sympy.expand(SYMBOLIC_RHS[label]), X)
    pinned = pinned_discriminant(label, A, B)
    assert sympy.expand(disc - pinned) == 0
    _, (e_ab, e_am, e_ap, e_bm, e_bp) = DISCRIMINANTS[label]
    assert sympy.degree(disc, A) == e_ab + e_am + e_ap
    assert sympy.degree(disc, B) == e_ab + e_bm + e_bp


@pytest.mark.parametrize("label", list(CurveLabel))
def test_discriminant_factorisation_on_a_grid(label):
    # disc(rhs) and the pinned product have degree deg_a in a and deg_b in b,
    # so agreement on a (deg_a + 1) x (deg_b + 1) grid is equality in Q[a, b]:
    # rhs is squarefree exactly where none of the pinned factors vanishes,
    # which holds for every pair that FamilyParams accepts; the
    # discriminant of rhs of degree n is (-1)^(n(n-1)/2) Res(rhs, rhs')/lc(rhs)
    _, (e_ab, e_am, e_ap, e_bm, e_bp) = DISCRIMINANTS[label]
    deg_a, deg_b = e_ab + e_am + e_ap, e_ab + e_bm + e_bp
    for a in range(3, 3 + deg_a + 1):
        for b in range(-3, -3 - deg_b - 1, -1):
            rhs = curve_equation(label, check_domain(a, b)).rhs
            sign = (-1) ** (rhs.degree * (rhs.degree - 1) // 2)
            assert resultant(rhs, rhs.derivative()) == \
                sign * rhs.leading * pinned_discriminant(label, a, b)


# the first of the three domain conditions that a pair breaks, in the order
# FamilyParams checks them; None on the domain
def domain_refusal(a, b):
    for broken, message in ((a == b, "a = b collapses the two quartic factors"),
                            (a * a == 4, "a^2 = 4 gives a repeated Weierstrass root"),
                            (b * b == 4, "b^2 = 4 gives a repeated Weierstrass root")):
        if broken:
            return message
    return None


@pytest.mark.parametrize("a,b", [
    (2, 0), (-2, 0), (0, 2), (0, -2), (1, 1), (2, 2), (-2, -2), (2, -2),
    (Fraction(1, 3), Fraction(1, 3)), (Fraction(-2), Fraction(7, 5)),
    (2, 1), (Fraction(-2), Fraction(1, 3)),
])
def test_family_params_refuses_the_off_domain_points(a, b):
    with pytest.raises(DomainError) as refused:
        FamilyParams(Fraction(a), Fraction(b))
    assert str(refused.value) == domain_refusal(a, b)


# (a, b) on or next to one of the five loci a = b, a = +-2, b = +-2
NEAR_LOCI = (lambda c, e: (c, c + e), lambda c, e: (2 + e, c), lambda c, e: (-2 + e, c),
             lambda c, e: (c, 2 + e), lambda c, e: (c, -2 + e))


@given(st.sampled_from(NEAR_LOCI), fractions_of_height(50),
       st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-3, 3),
                                                 st.sampled_from([1, 10**6, 10**40]))))
def test_family_params_refuses_exactly_the_off_domain_points(locus, c, e):
    a, b = locus(c, e)
    message = domain_refusal(a, b)
    if message is None:
        assert FamilyParams(a, b) == check_domain(a, b)
    else:
        for build in (FamilyParams, check_domain):
            with pytest.raises(DomainError) as refused:
                build(a, b)
            assert str(refused.value) == message


@pytest.mark.parametrize("a,b", [(1, Fraction(3)), (Fraction(1), 0.5), (1, 3), (0.5, 3.0),
                                 (2, 2), ("1", Fraction(3)), (None, Fraction(3))])
def test_family_params_refuses_fields_that_are_not_fractions(a, b):
    # before the domain: (2, 2) is refused as ints, not as a = b
    with pytest.raises(ArgumentError):
        FamilyParams(a, b)


@pytest.mark.parametrize("label", QUOTIENT_LABELS)
def test_quotient_identities_at_reference_points(label):
    for a, b in ((0, 1), (1, 3), (Fraction(-7, 3), Fraction(9, 5))):
        params = check_domain(a, b)
        assert verify_quotient_identity(quotient_map(label),
                                        curve_equation(CurveLabel.Ctilde, params).rhs,
                                        curve_equation(label, params).rhs)


@pytest.mark.parametrize("label", QUOTIENT_LABELS)
def test_identity_sides_have_the_degrees_the_grid_certificate_needs(label):
    # criterion 2 checks each identity on IDENTITY_GRID; that proves it for
    # all (a, b) because both sides have degree < the grid's size in a and b
    q = quotient_map(label)
    u_num, u_den = sympy_polynomial(q.U_num), sympy_polynomial(q.U_den)
    w_num, w_den = sympy_polynomial(q.W_num), sympy_polynomial(q.W_den)
    target = sympy.Poly(SYMBOLIC_RHS[label], X)
    k = target.degree()
    substituted = sum(c * u_num ** i * u_den ** (k - i)
                      for (i,), c in target.terms())
    lhs = sympy.expand(w_num**2 * SYMBOLIC_RHS[CurveLabel.Ctilde] * u_den**k)
    rhs = sympy.expand(substituted * w_den**2)
    a_values, b_values = IDENTITY_GRID
    for side in (lhs, rhs):
        assert sympy.degree(side, A) < len(a_values)
        assert sympy.degree(side, B) < len(b_values)
    assert sympy.expand(lhs - rhs) == 0


def test_quotient_map_rejects_identity_label():
    with pytest.raises(ArgumentError):
        quotient_map(CurveLabel.Ctilde)


def test_quotient_map_returns_one_constant_table_entry():
    for label in QUOTIENT_LABELS:
        assert quotient_map(label) is quotient_map(label)


def test_e_is_it_sign_choice_is_forced():
    # replacing the (x - 2) factor by (x + 2) breaks the identity
    wrong = Polynomial((2, 1)) * Polynomial((0, 1)) * Polynomial((1, 1))  # (x+2)x(x+1)
    ctilde_rhs = curve_equation(CurveLabel.Ctilde, check_domain(0, 1)).rhs
    assert not verify_quotient_identity(quotient_map(CurveLabel.E_is_it), ctilde_rhs, wrong)


# a generic point of height 10^6 and a shift far below any coefficient's size
GENERIC_POINT = (Fraction(765431, 999983), Fraction(-123457, 1000000))
TINY = Fraction(1, 10**12)


@pytest.mark.parametrize("label", QUOTIENT_LABELS)
def test_identity_fails_for_any_perturbed_coefficient(label):
    params = check_domain(*GENERIC_POINT)
    ctilde_rhs = curve_equation(CurveLabel.Ctilde, params).rhs
    rhs = curve_equation(label, params).rhs
    q = quotient_map(label)
    assert verify_quotient_identity(q, ctilde_rhs, rhs)
    for i in range(rhs.degree + 1):
        shifted = rhs + Polynomial([0] * i + [TINY])
        assert not verify_quotient_identity(q, ctilde_rhs, shifted)
    # a rescaled rhs keeps its numerators and changes only the denominator
    assert not verify_quotient_identity(q, ctilde_rhs, rhs * (1 + TINY))


@given(st.one_of(domain_params, drawn_params))
def test_models_are_the_oracle_rhs(params):
    for label in CurveLabel:
        model = curve_equation(label, params)
        rhs = oracle_rhs(label, params)
        assert model == model_from_rhs(rhs)  # the same numerators and denominator
        assert model.to_report()["rhs_coefficients"] == \
            [str(c) for c in rhs.coeffs]


def shifted_rhs(rhs, data):
    """rhs with one drawn coefficient moved by a drawn nonzero amount, or
    with its leading term removed."""
    i = data.draw(st.integers(0, rhs.degree))
    shift = data.draw(st.one_of(fractions_of_height(10**6).filter(bool),
                                st.just(-rhs.leading)))
    return rhs + Polynomial([0] * i + [shift])


@given(drawn_params, st.data())
@settings(max_examples=60)
def test_identity_verdict_is_the_oracle_verdict(params, data):
    ctilde_rhs = curve_equation(CurveLabel.Ctilde, params).rhs
    for label in QUOTIENT_LABELS:
        q = quotient_map(label)
        rhs = curve_equation(label, params).rhs
        assert verify_quotient_identity(q, ctilde_rhs, rhs)
        shifted = shifted_rhs(rhs, data)
        assert verify_quotient_identity(q, ctilde_rhs, shifted) == \
            oracle_identity(q, ctilde_rhs, shifted)


def integer_sides(q, ctilde_rhs, quotient_rhs):
    """The oracle's two sides scaled to the integer polynomials whose values
    `_identity_sides` compares: by both right-hand sides' denominators and
    by the denominators cleared from U and W."""
    u_scale = q.U_num.den * q.U_den.den
    w_scale = q.W_num.den * q.W_den.den
    scale = (ctilde_rhs.den * quotient_rhs.den * w_scale ** 2
             * u_scale ** max(quotient_rhs.degree, 0))
    sides = [side * scale for side in oracle_identity_sides(q, ctilde_rhs, quotient_rhs)]
    assert all(side.den == 1 for side in sides)
    return [side.nums for side in sides]


def assert_bound_covers_the_sides(q, ctilde_rhs, quotient_rhs):
    bound, lhs, rhs = _identity_sides(q, ctilde_rhs, quotient_rhs)
    sides = integer_sides(q, ctilde_rhs, quotient_rhs)
    # every coefficient of the sides' difference is below 2^B, B = bit length
    assert bound >= sum(max(map(abs, nums), default=0) for nums in sides)
    x = 2 << bound.bit_length()
    assert [lhs, rhs] == [sum(c * x**i for i, c in enumerate(nums)) for nums in sides]


@given(drawn_params, st.data())
@settings(max_examples=60)
def test_bound_covers_both_sides_as_the_oracle_computes_them(params, data):
    ctilde_rhs = curve_equation(CurveLabel.Ctilde, params).rhs
    for label in QUOTIENT_LABELS:
        q = quotient_map(label)
        rhs = curve_equation(label, params).rhs
        assert_bound_covers_the_sides(q, ctilde_rhs, rhs)
        assert_bound_covers_the_sides(q, ctilde_rhs, shifted_rhs(rhs, data))


@pytest.mark.parametrize("label", QUOTIENT_LABELS)
def test_rational_map_data_is_cleared(label):
    # U_num/U_den and W_num/W_den scaled alike keep U and W, so the identity
    # holds; scaled apart they change U or W, and the verdict is the oracle's
    params = check_domain(*GENERIC_POINT)
    ctilde_rhs = curve_equation(CurveLabel.Ctilde, params).rhs
    rhs = curve_equation(label, params).rhs
    q = quotient_map(label)
    u, w = Fraction(-3, 7), Fraction(5, 2)
    same = QuotientMapData(q.U_num * u, q.U_den * u, q.W_num * w, q.W_den * w)
    assert verify_quotient_identity(same, ctilde_rhs, rhs)
    assert not verify_quotient_identity(same, ctilde_rhs, rhs + Polynomial([TINY]))
    apart = (QuotientMapData(q.U_num * u, q.U_den, q.W_num, q.W_den),
             QuotientMapData(q.U_num, q.U_den, q.W_num * w, q.W_den * u))
    for data in (same, *apart):
        for quotient_rhs in (rhs, rhs + Polynomial([TINY])):
            assert verify_quotient_identity(data, ctilde_rhs, quotient_rhs) == \
                oracle_identity(data, ctilde_rhs, quotient_rhs)
            assert_bound_covers_the_sides(data, ctilde_rhs, quotient_rhs)


@pytest.mark.parametrize("label", QUOTIENT_LABELS)
def test_a_difference_with_a_small_root_is_rejected(label):
    # with e(u) = u - U(2), the sides for rhs + e differ by a nonzero
    # multiple of U_den^k e(U) W_den^2, which vanishes at x = 2: a check at a
    # point below the coefficient bound could take it for the identity
    params = check_domain(*GENERIC_POINT)
    ctilde_rhs = curve_equation(CurveLabel.Ctilde, params).rhs
    q = quotient_map(label)
    u2 = (sympy_polynomial(q.U_num) / sympy_polynomial(q.U_den)).subs(X, 2)
    wrong = curve_equation(label, params).rhs + Polynomial([Fraction(-u2.p, u2.q), 1])
    assert not verify_quotient_identity(q, ctilde_rhs, wrong)
    assert not oracle_identity(q, ctilde_rhs, wrong)
    lhs, rhs = integer_sides(q, ctilde_rhs, wrong)
    assert sum(c * 2**i for i, c in enumerate(lhs)) == sum(c * 2**i for i, c in enumerate(rhs))


def test_a_zero_map_denominator_is_a_degree_error():
    params = check_domain(*GENERIC_POINT)
    ctilde_rhs = curve_equation(CurveLabel.Ctilde, params).rhs
    q = quotient_map(CurveLabel.E_t)
    broken = QuotientMapData(q.U_num, Polynomial.zero(), q.W_num, q.W_den)
    for check in (verify_quotient_identity, oracle_identity):
        with pytest.raises(DegreeError):
            check(broken, ctilde_rhs, curve_equation(CurveLabel.E_t, params).rhs)


def test_models_and_identities_make_no_fraction(fraction_count):
    params = check_domain(*GENERIC_POINT)
    fraction_count[0] = 0
    models = {label: curve_equation(label, params) for label in CurveLabel}
    ctilde_rhs = models[CurveLabel.Ctilde].rhs
    verdicts = [verify_quotient_identity(quotient_map(label), ctilde_rhs, models[label].rhs)
                for label in QUOTIENT_LABELS]
    assert fraction_count[0] == 0
    assert all(verdicts)
    oracle_factors(CurveLabel.E_t, params)
    assert fraction_count[0] > 0  # the counter does see the oracle's Fractions


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


def test_fixed_point_fibres_are_the_closed_forms():
    # f(0) = 1, f(+-1) = (2 + a)(2 + b) and f(+-i) = (2 - a)(2 - b) as
    # polynomials in a and b
    f = SYMBOLIC_RHS[CurveLabel.Ctilde]
    assert f.subs(X, 0) == 1
    for x0, sign in ((1, 1), (-1, 1), (sympy.I, -1), (-sympy.I, -1)):
        assert sympy.expand(f.subs(X, x0) - (2 + sign * A) * (2 + sign * B)) == 0


@given(drawn_params)
def test_fixed_point_fibres_print_the_fraction_values(params):
    a, b = params.a, params.b
    expected = {
        InvolutionLabel.sigma: [("0", "1"), ("inf", "1")],
        InvolutionLabel.tau: [("1", str((2 + a) * (2 + b))), ("-1", str((2 + a) * (2 + b)))],
        InvolutionLabel.sigma_tau: [("x^2=-1 (x=i)", str((2 - a) * (2 - b))),
                                    ("x^2=-1 (x=-i)", str((2 - a) * (2 - b)))],
    }
    for inv, fibres in expected.items():
        _, records = fixed_point_count(inv, params)
        assert [list(r) for r in records] == [["x", "y_squared", "points"]] * 2
        assert [(r["x"], r["y_squared"]) for r in records] == fibres


def test_fixed_point_count_makes_no_fraction(fraction_count):
    params = check_domain(*GENERIC_POINT)
    fraction_count[0] = 0
    counts = [fixed_point_count(inv, params)[0] for inv in InvolutionLabel]
    assert fraction_count[0] == 0
    assert counts == [8, 4, 4, 4, 0, 0, 0]
    (2 + params.a) * (2 + params.b)
    assert fraction_count[0] > 0  # the counter does see the old fibre arithmetic


def test_params_from_roots_gives_vanishing_rhs():
    # a = -t1^2 - 1/t1^2 and b = -t2^2 - 1/t2^2 put the Weierstrass roots of
    # Ctilde at +-t1, +-t2, +-1/t1, +-1/t2
    t1, t2 = Fraction(3, 2), Fraction(5)
    params = check_domain(-t1 * t1 - 1 / (t1 * t1), -t2 * t2 - 1 / (t2 * t2))
    rhs = curve_equation(CurveLabel.Ctilde, params).rhs
    for r in (t1, -t1, 1 / t1, t2, -t2, 1 / t2):
        assert sympy_polynomial(rhs).subs(X, r) == 0


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


# the integer formula of `j_invariant` against the Fraction-based
# short-Weierstrass oracle of tests/j_oracle.py
TALL = 10**6
tall_fractions = fractions_of_height(TALL)
tall_params = params_of_height(TALL)


@given(tall_params)
@settings(max_examples=60)
def test_integer_j_is_the_oracle_j_on_the_family(params):
    for label in ELLIPTIC_LABELS:
        model = curve_equation(label, params)
        assert j_invariant(model) == oracle_j(model)


# non-unit leading coefficients, and middle coefficients that are often zero
leading_fractions = tall_fractions.filter(lambda c: c not in (0, 1, -1))
middle_fractions = st.one_of(st.just(Fraction(0)), tall_fractions)


@given(st.integers(3, 4).flatmap(lambda n: st.tuples(
    st.lists(middle_fractions, min_size=n, max_size=n), leading_fractions)))
@settings(max_examples=150)
def test_integer_j_is_the_oracle_j_on_bare_models(coeffs):
    lower, lead = coeffs
    rhs = Polynomial([*lower, lead])
    assume(is_squarefree(rhs))
    model = model_from_rhs(rhs)
    assert model.genus == 1
    assert j_invariant(model) == oracle_j(model)


@given(tall_params)
@settings(max_examples=30)
def test_quartic_invariants_serve_cubics_and_quartics(params):
    # a cubic is the binary quartic with x^4-coefficient 0, so I = -P and
    # J = -Q for the depressed cubic's P = 3 c1 c3 - c2^2 and
    # Q = 27 c0 c3^2 - 9 c1 c2 c3 + 2 c2^3; a quartic's numerators have the
    # invariants of rhs times den^2 and den^3
    for label in ELLIPTIC_LABELS:
        rhs = curve_equation(label, params).rhs
        i, j = quartic_invariants(rhs)
        if rhs.degree == 3:
            c0, c1, c2, c3 = rhs.nums
            assert (i, j) == (c2 * c2 - 3 * c1 * c3,
                              9 * c1 * c2 * c3 - 27 * c0 * c3 * c3 - 2 * c2 ** 3)
        else:
            assert binary_quartic_invariants(rhs) == (Fraction(i, rhs.den ** 2),
                                                      Fraction(j, rhs.den ** 3))


def test_j_invariant_makes_one_fraction(fraction_count):
    params = check_domain(*GENERIC_POINT)
    models = [curve_equation(label, params) for label in ELLIPTIC_LABELS]
    fraction_count[0] = 0
    for model in models:
        j_invariant(model)
    assert fraction_count[0] == len(models)


@pytest.mark.parametrize("roots", [(1, 1, -2), (Fraction(1, 3), Fraction(1, 3), 5, 7)],
                         ids=["cubic", "quartic"])
def test_j_of_a_singular_model_is_an_invariant_error(roots):
    rhs = polynomial_of(sympy.Rational(-3, 2) * sympy.prod([X - r for r in roots]), 0, 0)
    model = HyperellipticModel(rhs)
    for j in (j_invariant, oracle_j):
        with pytest.raises(InternalInvariantError):
            j(model)
