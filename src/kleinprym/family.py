"""The genus-3 family y^2 = (x^4 + a x^2 + 1)(x^4 + b x^2 + 1): parameter
domain, the three extra involutions, all nine quotient curves with explicit
quotient maps, fixed-point data, and exact j-invariants of the elliptic quotients.

Involution lifts are fixed once and for all as
    sigma:    (x, y) -> (-x, y)
    tau:      (x, y) -> (1/x, y/x^4)
    sigma*tau:(x, y) -> (-1/x, y/x^4)
with iota the hyperelliptic sheet exchange (x, y) -> (x, -y).
"""

from __future__ import annotations

import enum
import functools
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    Polynomial,
    format_rational,
    is_squarefree,
    substitute_rational_map,
)
from .errors import ArgumentError, DomainError, InternalInvariantError


@dataclass(frozen=True)
class FamilyParams:
    """A validated parameter pair: a != b, a^2 != 4, b^2 != 4."""

    a: Fraction
    b: Fraction

    @property
    def phi_defined(self) -> bool:
        """The deck involution on parameters needs a + b != 0."""
        return self.a + self.b != 0

    def swapped(self) -> "FamilyParams":
        return FamilyParams(self.b, self.a)

    def __repr__(self):
        return f"FamilyParams({format_rational(self.a)}, {format_rational(self.b)})"


def check_domain(a, b) -> FamilyParams:
    a = Fraction(a)
    b = Fraction(b)
    if a == b:
        raise DomainError("a = b collapses the two quartic factors", params=(a, b))
    if a * a == 4:
        raise DomainError("a^2 = 4 gives a repeated Weierstrass root", params=(a, b))
    if b * b == 4:
        raise DomainError("b^2 = 4 gives a repeated Weierstrass root", params=(a, b))
    return FamilyParams(a, b)


class CurveLabel(enum.Enum):
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


class InvolutionLabel(enum.Enum):
    iota = "iota"
    sigma = "sigma"
    tau = "tau"
    sigma_tau = "sigma_tau"
    iota_sigma = "iota_sigma"
    iota_tau = "iota_tau"
    iota_sigma_tau = "iota_sigma_tau"


def _genus(rhs: Polynomial) -> int:
    return -(-rhs.degree // 2) - 1


@dataclass(frozen=True)
class HyperellipticModel:
    """y^2 = rhs(x) with rhs squarefree; genus = ceil(deg/2) - 1.

    `from_rhs` checks squarefreeness with a gcd and is the constructor for
    input from outside the family.  `curve_equation` builds the family's
    models directly: their discriminants factor into (a - b) and (a -+ 2),
    (b -+ 2), so squarefreeness is decided from (a, b) alone.

    `factors` are rational polynomials whose product is rhs; the analytic
    layer solves those of degree <= 2 in closed form.  `curve_equation`
    stores the family's factors, `from_rhs` stores (rhs,).
    """

    rhs: Polynomial
    genus: int
    factors: tuple[Polynomial, ...] = field(compare=False)

    @classmethod
    def from_rhs(cls, rhs: Polynomial) -> "HyperellipticModel":
        if rhs.degree < 1:
            raise ArgumentError("constant right-hand side")
        if not is_squarefree(rhs):
            raise InternalInvariantError("right-hand side is not squarefree")
        return cls(rhs, _genus(rhs), (rhs,))

    def to_report(self) -> dict:
        report = {
            "rhs_coefficients": [format_rational(c) for c in self.rhs.coeffs],
            "genus": self.genus,
        }
        if self.genus == 1:
            report["j"] = format_rational(j_invariant(self))
        return report


# disc(rhs) of each label is a nonzero constant times powers of (a - b) and
# of (a - s), (b - s) for the s listed here (tests/test_family.py pins the ten
# factorisations), so rhs is squarefree exactly where none of them vanishes.
_DISCRIMINANT_ROOTS = dict.fromkeys(CurveLabel, (2, -2)) | {
    CurveLabel.E_t: (2,), CurveLabel.E_is_t: (2,),
    CurveLabel.E_st: (-2,), CurveLabel.E_is_it: (-2,),
}


def curve_equation(label: CurveLabel, params: FamilyParams) -> HyperellipticModel:
    """The exact defining polynomial of y^2 = rhs(x) for the given quotient.

    The quotient by <iota*sigma, iota*tau> uses the factor (x - 2); the
    alternative sign does not satisfy the quotient-map identity (see
    quotient_map / verify_quotient_identity).
    """
    a, b = params.a, params.b
    if a == b or any(s in (a, b) for s in _DISCRIMINANT_ROOTS[label]):
        raise InternalInvariantError("right-hand side is not squarefree")

    am, ap, bm, bp = a - 2, a + 2, b - 2, b + 2
    table = {  # the coefficients of each factor, low to high
        CurveLabel.Ctilde: ((1, 0, a, 0, 1), (1, 0, b, 0, 1)),
        CurveLabel.C_it: ((-4, 0, 1), (am, 0, 1), (bm, 0, 1)),
        CurveLabel.C_is: ((0, 1), (1, a, 1), (1, b, 1)),
        CurveLabel.C_ist: ((4, 0, 1), (ap, 0, 1), (bp, 0, 1)),
        CurveLabel.E_t: ((am, 0, 1), (bm, 0, 1)),
        CurveLabel.E_s: ((1, a, 1), (1, b, 1)),
        CurveLabel.E_st: ((ap, 0, 1), (bp, 0, 1)),
        CurveLabel.E_is_it: ((a, 1), (b, 1), (-2, 1)),
        CurveLabel.E_s_it: ((a, 1), (b, 1), (-2, 1), (2, 1)),
        CurveLabel.E_is_t: ((a, 1), (b, 1), (2, 1)),
    }
    factors = tuple(map(Polynomial, table[label]))
    rhs = functools.reduce(operator.mul, factors)
    return HyperellipticModel(rhs, _genus(rhs), factors)


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
    if label == CurveLabel.Ctilde:
        raise ArgumentError("the identity quotient has no map data")
    return _QUOTIENT_MAPS[label]


def verify_quotient_identity(q: QuotientMapData, ctilde_rhs: Polynomial,
                             quotient_rhs: Polynomial) -> bool:
    """Exact check of W(x)^2 * ctilde_rhs(x) = quotient_rhs(U(x)) after
    clearing denominators, for the right-hand sides of Ctilde and of the
    quotient that q maps onto."""
    num, k = substitute_rational_map(quotient_rhs, q.U_num, q.U_den)
    lhs = q.W_num * q.W_num * ctilde_rhs * (q.U_den ** k)
    rhs = num * q.W_den * q.W_den
    return lhs == rhs


def fixed_point_count(inv: InvolutionLabel, params: FamilyParams):
    """Fixed points of the involution lift on the smooth model.

    Points at infinity live in the chart (t, w) = (1/x, y/x^4) with
    w^2 = t^8 f(1/t), which is regular at t = 0 because deg f = 8.
    Returns (count, points) where each point record describes the fibre:
    {"x": <location>, "y_squared": <value or condition>, "points": n}.
    """
    a, b = params.a, params.b

    def fibre(x_desc, ysq: Fraction, sheets_fixed: bool):
        if not sheets_fixed:
            return None
        n = 1 if ysq == 0 else 2
        return {"x": x_desc, "y_squared": format_rational(ysq), "points": n}

    records = []
    if inv == InvolutionLabel.iota:
        # y -> -y fixes exactly the eight Weierstrass points.
        records.append({"x": "roots of rhs", "y_squared": "0", "points": 8})
    elif inv in (InvolutionLabel.sigma, InvolutionLabel.iota_sigma):
        # x-locus {0, infinity}; sigma fixes y in both charts, iota*sigma negates it.
        fixes_sheets = inv == InvolutionLabel.sigma
        records.append(fibre("0", Fraction(1), fixes_sheets))  # f(0) = 1
        records.append(fibre("inf", Fraction(1), fixes_sheets))  # w^2 = 1 at t = 0
    elif inv in (InvolutionLabel.tau, InvolutionLabel.iota_tau):
        # x-locus {1, -1}; y/x^4 = y there, and f(1) = f(-1) = (2+a)(2+b).
        fixes_sheets = inv == InvolutionLabel.tau
        ysq = (2 + a) * (2 + b)
        records.append(fibre("1", ysq, fixes_sheets))
        records.append(fibre("-1", ysq, fixes_sheets))
    elif inv in (InvolutionLabel.sigma_tau, InvolutionLabel.iota_sigma_tau):
        # x-locus x^2 = -1; y^2 = f(i) = f(-i) = (2-a)(2-b).
        fixes_sheets = inv == InvolutionLabel.sigma_tau
        ysq = (2 - a) * (2 - b)
        records.append(fibre("x^2=-1 (x=i)", ysq, fixes_sheets))
        records.append(fibre("x^2=-1 (x=-i)", ysq, fixes_sheets))
    records = [r for r in records if r is not None]
    count = sum(r["points"] for r in records)
    return count, records


def params_from_roots(t1, t2) -> FamilyParams:
    """a = -t1^2 - 1/t1^2, b = -t2^2 - 1/t2^2; the Weierstrass roots of the
    genus-3 curve are then +-t1, +-t2, +-1/t1, +-1/t2."""
    t1 = Fraction(t1)
    t2 = Fraction(t2)
    if t1 == 0 or t2 == 0:
        raise ArgumentError("roots must be nonzero")
    a = -t1 * t1 - 1 / (t1 * t1)
    b = -t2 * t2 - 1 / (t2 * t2)
    return check_domain(a, b)


# ---------------------------------------------------------------------------
# j-invariants
# ---------------------------------------------------------------------------


def binary_quartic_invariants(f: Polynomial):
    """The classical I, J of a x^4 + b x^3 + c x^2 + d x + e."""
    if f.degree != 4:
        raise ArgumentError("binary quartic invariants need degree 4")
    e, d, c, b, a = (f[i] for i in range(5))
    I = 12 * a * e - 3 * b * d + c * c
    J = (72 * a * c * e + 9 * b * c * d - 27 * a * d * d
         - 27 * e * b * b - 2 * c ** 3)
    return I, J


def _short_weierstrass_j(p: Fraction, q: Fraction) -> Fraction:
    delta = 4 * p ** 3 + 27 * q * q
    if delta == 0:
        raise InternalInvariantError("singular Weierstrass model")
    return 1728 * 4 * p ** 3 / delta


def short_weierstrass_coefficients(m: HyperellipticModel):
    """(p, q) of a short Weierstrass curve y^2 = x^3 + p x + q with the same
    j-invariant as the genus-1 model m.

    Quartics go through the binary-quartic invariants; cubics are scaled
    monic and depressed.
    """
    if m.genus != 1:
        raise ArgumentError("j-invariant is defined for genus-1 models only")
    f = m.rhs
    if f.degree == 4:
        I, J = binary_quartic_invariants(f)
        return -27 * I, -27 * J
    # cubic: make it monic via (x, y) -> (c3 x, c3 y), then depress
    c3 = f.leading
    c2, c1, c0 = f[2], f[1] * c3, f[0] * c3 * c3
    p = c1 - c2 * c2 / 3
    q = c0 - c1 * c2 / 3 + 2 * c2 ** 3 / 27
    return p, q


def j_invariant(m: HyperellipticModel) -> Fraction:
    """Exact j-invariant of a genus-1 model y^2 = f(x), deg f in {3, 4}."""
    p, q = short_weierstrass_coefficients(m)
    return _short_weierstrass_j(p, q)


def curve_report(label: CurveLabel, model: HyperellipticModel) -> dict:
    report = {"label": label.value}
    report.update(model.to_report())
    return report
