import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from j_oracle import short_weierstrass_coefficients
from kleinprym import isogeny
from kleinprym.errors import OrderError, PointError, SingularError
from kleinprym.family import CurveLabel, ELLIPTIC_LABELS, check_domain, \
    curve_equation, j_invariant
from kleinprym.isogeny import (
    KernelPoint,
    WeierstrassCurve,
    dual_nonisomorphism_check,
    j_weierstrass,
    velu_quotient,
)


def test_singular_curve_rejected():
    with pytest.raises(SingularError):
        WeierstrassCurve.make(-3, 2)  # 4*(-27) + 27*4 = 0
    with pytest.raises(SingularError):
        WeierstrassCurve(Fraction(-3), Fraction(2))


def test_from_string_and_contains():
    E = WeierstrassCurve.from_string("1,0")
    assert E.contains(Fraction(0), Fraction(0))
    assert not E.contains(Fraction(1), Fraction(1))


def test_group_law_basics():
    E = WeierstrassCurve.make(-7, -6)  # roots -1, -2, 3
    T = (Fraction(3), Fraction(0))
    add = isogeny._add_points
    assert add(E, T, T) is None
    assert add(E, None, T) == T
    assert KernelPoint.on_curve(E, *T).order == 2
    assert add(E, add(E, T, T), T) == T


def test_kernel_point_validation():
    E = WeierstrassCurve.make(1, 0)
    with pytest.raises(PointError):
        KernelPoint.on_curve(E, 1, 1)
    P = KernelPoint.from_string(E, "0,0")
    assert P.order == 2


def test_velu_reference_two_isogeny():
    E = WeierstrassCurve.make(1, 0)  # y^2 = x^3 + x
    image = velu_quotient(E, KernelPoint.on_curve(E, 0, 0))
    assert (image.p, image.q) == (-4, 0)
    assert j_weierstrass(image) == 1728


@given(st.integers(-6, 6).filter(lambda u: u != 0))
def test_j_is_twist_invariant(u):
    E = WeierstrassCurve.make(-7, -6)
    twist = WeierstrassCurve.make(E.p * u ** 4, E.q * u ** 6)
    assert j_weierstrass(twist) == j_weierstrass(E)


domain_params = st.tuples(
    st.fractions(min_value=-10, max_value=10, max_denominator=5),
    st.fractions(min_value=-10, max_value=10, max_denominator=5),
).filter(lambda ab: ab[0] != ab[1] and ab[0] ** 2 != 4 and ab[1] ** 2 != 4
         ).map(lambda ab: check_domain(*ab))


def quartic_to_weierstrass(model):
    """A short Weierstrass curve with the same j-invariant as the genus-1
    model (binary-quartic invariants for quartics, depression for cubics)."""
    return WeierstrassCurve.make(*short_weierstrass_coefficients(model))


@given(domain_params)
@settings(max_examples=25)
def test_quartic_to_weierstrass_preserves_j(params):
    for label in ELLIPTIC_LABELS:
        model = curve_equation(label, params)
        assert j_weierstrass(quartic_to_weierstrass(model)) == j_invariant(model)


def _curve_from_roots(r1, r2, r3):
    # short form needs r1 + r2 + r3 = 0
    assert r1 + r2 + r3 == 0
    p = r1 * r2 + r1 * r3 + r2 * r3
    q = -r1 * r2 * r3
    return WeierstrassCurve.make(p, q)


@given(st.tuples(st.integers(-8, 8), st.integers(-8, 8)))
@settings(max_examples=40)
def test_dual_two_isogeny_returns_to_j(roots):
    r1, r2 = (Fraction(r) for r in roots)
    r3 = -r1 - r2
    if len({r1, r2, r3}) < 3:
        return
    E = _curve_from_roots(r1, r2, r3)
    image = velu_quotient(E, KernelPoint.on_curve(E, r1, 0))
    # image x-coordinate of the 2-torsion point (r2, 0) under the isogeny
    x_img = r2 + (3 * r1 * r1 + E.p) / (r2 - r1)
    T = KernelPoint.on_curve(image, x_img, 0)
    assert j_weierstrass(velu_quotient(image, T)) == j_weierstrass(E)


def test_certificate_cm_point_has_no_conclusion():
    E = WeierstrassCurve.make(1, 0)
    P = KernelPoint.on_curve(E, 0, 0)
    cert = dual_nonisomorphism_check(E, P, E, P, True)
    assert not cert["premise_holds"]
    assert cert["conclusion"] == "no conclusion: both quotients preserve j"


def test_certificate_generic_pair():
    E = WeierstrassCurve.make(-7, -6)
    F = WeierstrassCurve.make(-19, -30)
    cert = dual_nonisomorphism_check(E, KernelPoint.on_curve(E, 3, 0),
                                     F, KernelPoint.on_curve(F, 5, 0), True)
    assert cert["premise_holds"]
    assert cert["nonisogenous_evidence"]["j_values_differ"]
    assert cert["conclusion"] == "A is not isomorphic to its dual"


def test_certificate_gates_on_assertion():
    E = WeierstrassCurve.make(-7, -6)
    F = WeierstrassCurve.make(-19, -30)
    cert = dual_nonisomorphism_check(E, KernelPoint.on_curve(E, 3, 0),
                                     F, KernelPoint.on_curve(F, 5, 0), False)
    assert cert["conclusion"] == "hypothesis unverified: non-isogeny not asserted"


def test_certificate_rejects_order_mismatch():
    E = WeierstrassCurve.make(-7, -6)
    F = WeierstrassCurve.make(0, 1)
    P = KernelPoint.on_curve(E, 3, 0)   # order 2
    Q = KernelPoint.on_curve(F, 0, 1)   # order 3
    assert (P.order, Q.order) == (2, 3)
    with pytest.raises(OrderError):
        dual_nonisomorphism_check(E, P, F, Q, True)


# a curve "p,q" and a rational point "x,y" on it of each order 2..12 but 11
# (Mazur), as the duality command takes them
KERNEL_CURVES = {
    2: ("-7,-6", "3,0"),
    3: ("-387,766", "27,100"),
    4: ("-362,-1659", "-10,31"),
    5: ("-27,55350", "-21,-216"),
    6: ("-387,766", "-13,60"),
    7: ("-43,166", "-5,16"),
    8: ("-44091/16,1652427/32", "-141/4,-324"),
    9: ("-219,1654", "-13,48"),
    10: ("-58347,3954150", "-213,-2592"),
    12: ("-33339627,73697852646", "3027,-22680"),
}


def _count_points(curve, prime):
    """#E(F_prime) of y^2 = x^3 + p x + q, by Euler's criterion."""
    p = curve.p.numerator * pow(curve.p.denominator, -1, prime) % prime
    q = curve.q.numerator * pow(curve.q.denominator, -1, prime) % prime
    count = 1
    for x in range(prime):
        v = (x ** 3 + p * x + q) % prime
        count += 1 if v == 0 else 1 + (1 if pow(v, (prime - 1) // 2, prime) == 1 else -1)
    return count


def _good_primes(curves, count):
    """The first `count` primes >= 5 where every curve has good reduction."""
    found, prime = [], 5
    while len(found) < count:
        if all(prime % d for d in range(2, prime)) and all(
                c.p.denominator % prime and c.q.denominator % prime
                and (4 * c.p ** 3 + 27 * c.q ** 2).numerator % prime for c in curves):
            found.append(prime)
        prime += 1
    return found


@pytest.mark.parametrize("order", sorted(KERNEL_CURVES))
def test_velu_image_is_isogenous_by_point_counts(order):
    # isogenous curves have equal point counts at every prime of good
    # reduction for both, a check independent of the Velu formulas
    curve_text, point_text = KERNEL_CURVES[order]
    E = WeierstrassCurve.from_string(curve_text)
    P = KernelPoint.from_string(E, point_text)
    assert P.order == order
    image = velu_quotient(E, P)
    for prime in _good_primes((E, image), 8):
        assert _count_points(image, prime) == _count_points(E, prime), prime


@pytest.mark.parametrize("claimed", [2, 5, 12])
def test_velu_follows_the_multiples_not_the_claimed_order(claimed):
    # the walk reads the order off the multiples and refuses a claim they deny
    E = WeierstrassCurve.from_string(KERNEL_CURVES[7][0])
    P = KernelPoint.from_string(E, KERNEL_CURVES[7][1])
    with pytest.raises(OrderError, match=f"order 7, not {claimed}"):
        velu_quotient(E, KernelPoint(P.x, P.y, claimed))


def test_a_point_made_with_a_false_order_certifies_nothing():
    E = WeierstrassCurve.make(-7, -6)    # (3, 0) has order 2
    F = WeierstrassCurve.make(-19, -30)  # (5, 0) has order 2
    P, Q = KernelPoint(Fraction(3), Fraction(0), 5), KernelPoint(Fraction(5), Fraction(0), 5)
    with pytest.raises(OrderError, match="order 2, not 5"):
        dual_nonisomorphism_check(E, P, F, Q, True)
    with pytest.raises(OrderError, match="order 2, not 1"):
        velu_quotient(E, KernelPoint(Fraction(3), Fraction(0), 1))


@pytest.mark.parametrize("claimed", [2, 5, 12])
def test_velu_refuses_a_point_of_infinite_order(claimed):
    # (3, 5) on y^2 = x^3 - 2 has infinite order: its multiples never close
    # up, and the walk stops after MAX_KERNEL_ORDER of them
    E = WeierstrassCurve.make(0, -2)
    start = time.perf_counter()
    with pytest.raises(OrderError):
        velu_quotient(E, KernelPoint(Fraction(3), Fraction(5), claimed))
    assert time.perf_counter() - start < 1


def _full_walk_order(curve, P):
    """The order of P by adding P to itself until the sum is infinity: n - 1
    additions for order n, independent of the library's half walk."""
    acc = P
    for k in range(1, isogeny.MAX_KERNEL_ORDER + 1):
        if acc is None:
            return k
        acc = isogeny._add_points(curve, acc, P)
    return None


@pytest.mark.parametrize("order", sorted(KERNEL_CURVES))
def test_one_half_walk_gives_the_order(order, monkeypatch):
    # the order that on_curve records is the full walk's, found within
    # order // 2 additions, and velu_quotient refuses every other claim
    curve_text, point_text = KERNEL_CURVES[order]
    E = WeierstrassCurve.from_string(curve_text)
    x, y = (Fraction(t) for t in point_text.split(","))
    assert _full_walk_order(E, (x, y)) == order
    calls, add = [], isogeny._add_points

    def counted(*args):
        calls.append(args)
        return add(*args)

    monkeypatch.setattr(isogeny, "_add_points", counted)
    P = KernelPoint.on_curve(E, x, y)
    assert P.order == order
    assert len(calls) <= order // 2
    monkeypatch.undo()
    for claimed in range(1, isogeny.MAX_KERNEL_ORDER + 1):
        if claimed != order:
            with pytest.raises(OrderError, match=f"order {order}, not {claimed}"):
                velu_quotient(E, KernelPoint(x, y, claimed))


def test_a_point_of_infinite_order_has_no_kernel_point():
    # (3, 5) on y^2 = x^3 - 2 has infinite order
    E = WeierstrassCurve.make(0, -2)
    assert _full_walk_order(E, (Fraction(3), Fraction(5))) is None
    with pytest.raises(OrderError, match="point order exceeds 12"):
        KernelPoint.on_curve(E, 3, 5)
