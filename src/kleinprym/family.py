"""The genus-3 family y^2 = (x^4 + a x^2 + 1)(x^4 + b x^2 + 1): parameter
domain, the three extra involutions, all nine quotient curves with explicit
quotient maps, fixed-point data, and exact j-invariants of the elliptic quotients.

Models, quotient-map identities, fixed-point fibres and j-invariants run on
integers, with one `Fraction` per j: `curve_equation` builds only the requested
label's rhs from a = p/q and b = r/s, `verify_quotient_identity` decides
each identity by one evaluation of its two integer sides past their coefficient
bound, and `fixed_point_count` reads each fibre's y^2 off an integer closed form.
`FamilyParams` checks the domain when a pair is made, so none of them checks it.

Involution lifts are fixed once and for all as
    sigma:    (x, y) -> (-x, y)
    tau:      (x, y) -> (1/x, y/x^4)
    sigma*tau:(x, y) -> (-1/x, y/x^4)
with iota the hyperelliptic sheet exchange (x, y) -> (x, -y).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Polynomial, _convolve, brief, ratio_text, rational
from .errors import ArgumentError, DegreeError, DomainError, InternalInvariantError, require


@dataclass(frozen=True)
class FamilyParams:
    """A parameter pair of Fractions with a != b, a^2 != 4, b^2 != 4: the
    points -a, -b, inf, 2, -2 of P^1 are distinct.  Construction refuses any
    other pair, so every model that `curve_equation` builds is squarefree."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        a, b = self.a, self.b
        if not (isinstance(a, Fraction) and isinstance(b, Fraction)):
            raise ArgumentError(f"a and b must be Fractions (check_domain), not {a!r}, {b!r}")
        if a == b:
            raise DomainError("a = b collapses the two quartic factors")
        if a * a == 4:
            raise DomainError("a^2 = 4 gives a repeated Weierstrass root")
        if b * b == 4:
            raise DomainError("b^2 = 4 gives a repeated Weierstrass root")

    @property
    def phi_defined(self) -> bool:
        """The deck involution on parameters needs a + b != 0."""
        return self.a + self.b != 0

    def swapped(self) -> "FamilyParams":
        return FamilyParams(self.b, self.a)

    def __repr__(self):
        return f"FamilyParams({self.a}, {self.b})"


def check_domain(a, b) -> FamilyParams:
    """The parameter pair of two numbers from outside, read by `rational`."""
    return FamilyParams(rational(a), rational(b))


class _Label(enum.Enum):
    """An enum whose lookup by value refuses an unknown value."""

    @classmethod
    def _missing_(cls, value):
        raise ArgumentError(f"{brief(str(value))} is not a {cls.__name__}")


class CurveLabel(_Label):
    Ctilde = "Ctilde"
    C_is = "C_is"       # quotient by iota*sigma, genus 2
    C_it = "C_it"       # quotient by iota*tau, genus 2
    C_ist = "C_ist"     # quotient by iota*sigma*tau, genus 2
    E_s = "E_s"         # quotient by sigma
    E_t = "E_t"         # quotient by tau
    E_st = "E_st"       # quotient by sigma*tau
    E_is_t = "E_is_t"   # quotient by <iota*sigma, tau>
    E_s_it = "E_s_it"   # quotient by <sigma, iota*tau>
    E_is_it = "E_is_it" # quotient by <iota*sigma, iota*tau>


ELLIPTIC_LABELS = (
    CurveLabel.E_s, CurveLabel.E_t, CurveLabel.E_st,
    CurveLabel.E_is_t, CurveLabel.E_s_it, CurveLabel.E_is_it,
)

GENUS2_LABELS = (CurveLabel.C_is, CurveLabel.C_it, CurveLabel.C_ist)

QUOTIENT_LABELS = GENUS2_LABELS + ELLIPTIC_LABELS


class InvolutionLabel(_Label):
    iota = "iota"
    sigma = "sigma"
    tau = "tau"
    sigma_tau = "sigma_tau"
    iota_sigma = "iota_sigma"
    iota_tau = "iota_tau"
    iota_sigma_tau = "iota_sigma_tau"


@dataclass(frozen=True)
class HyperellipticModel:
    """y^2 = rhs(x) with rhs squarefree; genus = ceil(deg/2) - 1.

    `curve_equation` builds the family's models: their discriminants factor
    into powers of (a - b) and of (a -+ 2), (b -+ 2) (tests/test_family.py
    pins the ten factorisations), none of which vanishes on `FamilyParams`.
    """

    rhs: Polynomial

    @property
    def genus(self) -> int:
        return -(-self.rhs.degree // 2) - 1

    def to_report(self) -> dict:
        report = {
            "rhs_coefficients": [ratio_text(n, self.rhs.den) for n in self.rhs.nums],
            "genus": self.genus,
        }
        if self.genus == 1:
            report["j"] = str(j_invariant(self))
        return report


# Each label's rhs is the product of one factor of a = p/q, the same factor of
# b = r/s and constant factors: label -> (the factor of p/q as integer
# numerators over q, low to high, the constant factors' integer coefficients).
_FACTORS = {
    CurveLabel.Ctilde: (lambda p, q: (q, 0, p, 0, q), ()),
    CurveLabel.C_it: (lambda p, q: (p - 2 * q, 0, q), ((-4, 0, 1),)),
    CurveLabel.C_is: (lambda p, q: (q, p, q), ((0, 1),)),
    CurveLabel.C_ist: (lambda p, q: (p + 2 * q, 0, q), ((4, 0, 1),)),
    CurveLabel.E_t: (lambda p, q: (p - 2 * q, 0, q), ()),
    CurveLabel.E_s: (lambda p, q: (q, p, q), ()),
    CurveLabel.E_st: (lambda p, q: (p + 2 * q, 0, q), ()),
    CurveLabel.E_is_it: (lambda p, q: (p, q), ((-2, 1),)),
    CurveLabel.E_s_it: (lambda p, q: (p, q), ((-2, 1), (2, 1))),
    CurveLabel.E_is_t: (lambda p, q: (p, q), ((2, 1),)),
}


def curve_equation(label: CurveLabel, params: FamilyParams) -> HyperellipticModel:
    """The exact defining polynomial of y^2 = rhs(x) for the given quotient.

    The quotient by <iota*sigma, iota*tau> uses the factor (x - 2); the
    alternative sign does not satisfy the quotient-map identity (see
    quotient_map / verify_quotient_identity).
    """
    if not (isinstance(label, CurveLabel) and isinstance(params, FamilyParams)):
        require(CurveLabel, "label", label)
        require(FamilyParams, "params", params)
    a, b = params.a, params.b
    shape, constants = _FACTORS[label]
    p, q, r, s = a.numerator, a.denominator, b.numerator, b.denominator
    nums = _convolve(shape(p, q), shape(r, s))
    for c in constants:
        nums = _convolve(nums, c)
    # gcd(p, q) = gcd(r, s) = 1, so the numerators of every factor are
    # primitive, and by Gauss's lemma so are those of their product: rhs is
    # already in the stored form, over q s
    return HyperellipticModel(Polynomial._stored(tuple(nums), q * s))


@dataclass(frozen=True)
class QuotientMapData:
    """The map from the genus-3 curve Ctilde onto one quotient: x-coordinate
    U = U_num/U_den and y-coordinate factor W = W_num/W_den (image y = W(x) * y)."""

    U_num: Polynomial
    U_den: Polynomial
    W_num: Polynomial
    W_den: Polynomial


def _quotient_maps() -> dict:
    x = Polynomial.x()
    one = Polynomial.one()
    x2 = x * x
    x3 = x2 * x
    x4 = x2 * x2
    sym = x2 + one        # x^2 + 1,  U-numerator for x + 1/x
    asym = x2 - one       # x^2 - 1,  U-numerator for x - 1/x
    quartic_sym = x4 + one
    table = {
        CurveLabel.E_s: (x2, one, one, one),
        CurveLabel.E_t: (sym, x, one, x2),
        CurveLabel.E_st: (asym, x, one, x2),
        CurveLabel.C_is: (x2, one, x, one),
        CurveLabel.C_it: (sym, x, asym, x3),
        CurveLabel.C_ist: (asym, x, sym, x3),
        CurveLabel.E_is_t: (quartic_sym, x2, sym, x3),
        CurveLabel.E_s_it: (quartic_sym, x2, x4 - one, x4),
        CurveLabel.E_is_it: (quartic_sym, x2, asym, x3),
    }
    return {label: QuotientMapData(*maps) for label, maps in table.items()}


# the maps do not depend on (a, b)
_QUOTIENT_MAPS = _quotient_maps()


def quotient_map(label: CurveLabel) -> QuotientMapData:
    require(CurveLabel, "label", label)
    if label == CurveLabel.Ctilde:
        raise ArgumentError("the identity quotient has no map data")
    return _QUOTIENT_MAPS[label]


def _at(nums, shift: int) -> int:
    """sum(nums[i] X^i) at X = 2^shift."""
    acc = 0
    for c in reversed(nums):
        acc = (acc << shift) + c
    return acc


def _homogeneous(coeffs, x: int, y: int):
    """(sum coeffs[i] x^i y^(k - i), y^k) for k = len(coeffs) - 1, by Horner;
    (0, 1) for no coefficients."""
    acc, y_pow = 0, 1
    for i, c in enumerate(reversed(coeffs)):
        if i:
            y_pow *= y
        acc = acc * x + c * y_pow
    return acc, y_pow


def _l1(nums) -> int:
    return sum(map(abs, nums))


def _identity_sides(q: QuotientMapData, ctilde_rhs: Polynomial, quotient_rhs: Polynomial):
    """(bound, lhs, rhs) for the identity of `verify_quotient_identity`.

    With F/Fd = ctilde_rhs, G/Gd = quotient_rhs of degree k, and U = n/d,
    W = wn/wd over integer numerators (each pair cleared to one scale, as
    `substitute_rational_map` clears U), the identity is
    Gd wn^2 F d^k = Fd wd^2 sum(G_i n^i d^(k - i)) between integer
    polynomials.  bound is the sum of bounds on their l1 norms (products of
    the factors' l1 norms), so it bounds every coefficient of their
    difference; lhs and rhs are the two sides at X = 2^(B + 1), B the bit
    length of bound."""
    if q.U_den.is_zero:
        raise DegreeError("zero denominator in rational substitution")
    n = [c * q.U_den.den for c in q.U_num.nums]
    d = [c * q.U_num.den for c in q.U_den.nums]
    wn = [c * q.W_den.den for c in q.W_num.nums]
    wd = [c * q.W_num.den for c in q.W_den.nums]
    f, g = ctilde_rhs.nums, quotient_rhs.nums
    g_l1, d_l1 = _homogeneous([abs(c) for c in g], _l1(n), _l1(d))
    bound = (quotient_rhs.den * _l1(wn) ** 2 * _l1(f) * d_l1
             + ctilde_rhs.den * _l1(wd) ** 2 * g_l1)
    shift = bound.bit_length() + 1
    g_at, d_at = _homogeneous(g, _at(n, shift), _at(d, shift))
    return (bound,
            quotient_rhs.den * _at(wn, shift) ** 2 * _at(f, shift) * d_at,
            ctilde_rhs.den * _at(wd, shift) ** 2 * g_at)


def verify_quotient_identity(q: QuotientMapData, ctilde_rhs: Polynomial,
                             quotient_rhs: Polynomial) -> bool:
    """Exact check of W(x)^2 * ctilde_rhs(x) = quotient_rhs(U(x)) after
    clearing denominators, for the right-hand sides of Ctilde and of the
    quotient that q maps onto.

    Both cleared sides are integer polynomials (`_identity_sides`), and
    their difference has coefficients below 2^B in absolute value, so
    below X/2 for X = 2^(B + 1).  A nonzero integer polynomial with such
    coefficients does not vanish at X: its top term outweighs all the
    others.  So the sides agree as polynomials exactly when they agree at
    X, one integer comparison (Kronecker substitution; von zur Gathen &
    Gerhard, *Modern Computer Algebra*)."""
    _, lhs, rhs = _identity_sides(q, ctilde_rhs, quotient_rhs)
    return lhs == rhs


# The two x-loci that sigma, tau and sigma*tau fix, and y^2 on both, as an
# integer numerator over a positive denominator from a = p/q and b = r/s:
# f(0) = 1 and w^2 = 1 at t = 0; f(+-1) = (2 + a)(2 + b); f(+-i) = (2 - a)(2 - b).
# Each lift fixes y over its loci (tau and sigma*tau as x^4 = 1 there), so the
# lifts composed with iota negate it, and y^2 != 0 on the domain: they fix no point.
_FIXED_FIBRES = {
    InvolutionLabel.sigma: (("0", "inf"), lambda p, q, r, s: (1, 1)),
    InvolutionLabel.tau: (("1", "-1"), lambda p, q, r, s: ((2 * q + p) * (2 * s + r), q * s)),
    InvolutionLabel.sigma_tau: (("x^2=-1 (x=i)", "x^2=-1 (x=-i)"),
                                lambda p, q, r, s: ((2 * q - p) * (2 * s - r), q * s)),
}


def fixed_point_count(inv: InvolutionLabel, params: FamilyParams):
    """Fixed points of the involution lift on the smooth model.

    Points at infinity live in the chart (t, w) = (1/x, y/x^4) with
    w^2 = t^8 f(1/t), which is regular at t = 0 because deg f = 8.
    Returns (count, points) where each point record describes the fibre:
    {"x": <location>, "y_squared": <value or condition>, "points": n}.
    iota fixes the eight Weierstrass points; sigma, tau and sigma*tau fix the
    two points over each of their two x-loci, where y^2 is nonzero on the
    domain (`_FIXED_FIBRES`); the other three fix none.
    """
    require(InvolutionLabel, "the involution", inv)
    require(FamilyParams, "params", params)
    if inv == InvolutionLabel.iota:
        # y -> -y fixes exactly the eight Weierstrass points.
        return 8, [{"x": "roots of rhs", "y_squared": "0", "points": 8}]
    if inv not in _FIXED_FIBRES:
        return 0, []
    loci, fibre = _FIXED_FIBRES[inv]
    a, b = params.a, params.b
    ysq = ratio_text(*fibre(a.numerator, a.denominator, b.numerator, b.denominator))
    return 4, [{"x": x, "y_squared": ysq, "points": 2} for x in loci]


# ---------------------------------------------------------------------------
# j-invariants
# ---------------------------------------------------------------------------


def quartic_invariants(f: Polynomial) -> tuple[int, int]:
    """The classical invariants (I, J) of the integer numerators of f, deg f
    in {3, 4}, read as a binary quartic e + d x + c x^2 + b x^3 + a x^4 (a
    cubic with a = 0): I = 12ae - 3bd + c^2 and J = 72ace + 9bcd - 27ad^2 -
    27eb^2 - 2c^3.  They are homogeneous of degrees 2 and 3 in the
    coefficients, so f itself has the invariants I/den^2 and J/den^3."""
    e, d, c, b, *rest = f.nums
    a = rest[0] if rest else 0
    return (12 * a * e - 3 * b * d + c * c,
            72 * a * c * e + 9 * b * c * d - 27 * a * d * d - 27 * e * b * b - 2 * c ** 3)


def j_invariant(m: HyperellipticModel) -> Fraction:
    """Exact j-invariant of a genus-1 model y^2 = f(x), deg f in {3, 4}:
    j = 6912 I^3 / (4 I^3 - J^2) in the invariants of `quartic_invariants`.
    It is homogeneous of degree 0 in the coefficients, so it is read from the
    integer numerators and the common denominator drops out (Cremona,
    *Algorithms for Modular Elliptic Curves*).
    """
    require(HyperellipticModel, "the model", m)
    if m.genus != 1:
        raise ArgumentError("j-invariant is defined for genus-1 models only")
    s, t = quartic_invariants(m.rhs)
    denominator = 4 * s ** 3 - t * t
    if denominator == 0:
        raise InternalInvariantError("singular Weierstrass model")
    return Fraction(6912 * s ** 3, denominator)


def curve_report(label: CurveLabel, model: HyperellipticModel) -> dict:
    require(CurveLabel, "label", label)
    require(HyperellipticModel, "the model", model)
    report = {"label": label.value}
    report.update(model.to_report())
    return report
