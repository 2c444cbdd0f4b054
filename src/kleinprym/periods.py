"""High-precision analytic layer: the period lattices of the family's six
elliptic quotients through the real AGM, the modular j-value from theta
constants, the explicit 2x4 Prym period matrix with polarisation type (1,2),
and its Riemann relations.

Strategy for periods of a genus-1 model y^2 = f(x), deg f in {3, 4}, whose
roots are rational (the AGM partners E_is_t, E_is_it and E_s_it of a report,
branched at -a, -b and two points of the triple (inf, 2, -2)):

* a quartic is converted to a cubic with the *same* period lattice by
  x = r + 1/u, w = y u^2 for a root r of f (dx/y = -du/w);
* the cubic c (u - e1)(u - e2)(u - e3) is sent to the three-root normal
  form s (s - 1)(s - lambda) by u = e1 + (e2 - e1) s, which scales the
  lattice by (c (e2 - e1))^(-1/2);
* the normal form has lattice basis (2 K(lambda), 2 i K(1 - lambda)) with
  K(m) = pi / (2 M(1, sqrt(1 - m))) computed from the complement 1 - m,
  taken as (e2 - e3)/(e2 - e1) and lambda, so a tiny lambda keeps its bits;
* all of it runs on Python integers up to the printed numbers
  (`_legendre_data`, `_partner_lattice`): the roots are integer numerators
  over one common denominator, the pivot is a cubic's point at infinity or
  the quartic's root r3, and lambda and c (e2 - e1) are unreduced
  integer pairs.  e3 is the middle one of the three real e's and e1, e2 the
  outer two with lambda <= 1/2, the smaller first at lambda = 1/2, all by
  exact integer comparisons, so lambda lies in (0, 1/2] and both AGMs are of
  positive reals, M(1, sqrt(x)) for a rational x, run at a fixed-point scale
  wide enough for sqrt(x) (`_fixed_agm`).  With s = 1/sqrt(|c|), s K = s
  pi/M and s K' are integers at one scale, and the lattice is the rectangle
  Z R + Z iH with (R, H) = (s K, s K') for c > 0 and (s K', s K) for c < 0;
* every basis is reported in one normal form: tau = omega2/omega1 in the
  fundamental domain of SL2(Z) (-1/2 <= Re tau < 1/2, |tau| >= 1 with
  Re tau <= 0 where |tau| = 1), Re omega1 > 0 or Re omega1 = 0 < Im omega1,
  and at tau = i and e^(2 pi i/3) omega1 turned by a unit of the lattice
  into -pi/4 < arg omega1 <= pi/4 or -pi/6 < arg omega1 <= pi/6, each
  boundary taken up to 2^(-bits/2), so the basis depends on the lattice
  alone.  The normal forms of the rectangles and rhombi a report meets are
  written down in closed form (`_rectangle_form`, `_rhombus_form`); the
  tests reach the same form step by step from any basis
  (tests/periods_oracle.py).

A periods report runs the AGM for three of the six elliptic quotients only.
The family's equations give three 2-isogenies onto them,

    E_t  -> E_is_t:   (x, y) -> (x^2 - 2, x y),                 dX/Y = 2 dx/y
    E_st -> E_is_it:  (x, y) -> (x^2 + 2, x y),                 dX/Y = 2 dx/y
    E_s  -> E_s_it:   (x, y) -> (x + 1/x, y (x^2 - 1)/x^2),     dX/Y = dx/y

so the lattices of E_t, E_st and E_s are scale (L + Z t), with scale
2/c = 1, 1 and 2 for the factor c in dX/Y = c dx/y, L the lattice of the
partner on the right and t the half-period of the partner's 2-torsion
point P(-a) - P(-b), which is P(-2) - P(inf) on E_is_t, P(2) - P(inf) on
E_is_it and P(2) - P(-2) on E_s_it.  The kernel point is found by root
identity, not by a numeric comparison: with the roots numbered as at
`_PARTNERS`, the exact path always sends r3 to infinity (a quartic's pivot
of x = r3 + 1/u, a cubic's own point at infinity), so the kernel point is
P(r2) - P(r3).  With (e1, e2, e3) sent to (0, 1, lambda) the half-period
is omega2/2, omega1/2 or (omega1 + omega2)/2 for r2 = e1, e2 or e3, in the
first basis (omega1, omega2) = (R, iH) for c > 0 and (-iH, R) for c < 0.
So t is R/2, iH/2 or (R + iH)/2, and L + Z t is the rectangle Z R/2 + Z iH,
the rectangle Z R + Z iH/2 or the rhombus Z R + Z iH + Z (R + iH)/2.  A
rhombus has the normal form (R, -conj u), (iH, -u), (conj u, u) or
(u, -conj u) for u = (R + iH)/2, split at H^2 = 3 R^2, R^2 = 3 H^2 and
H = R.  No j comparison could choose among the three lattices: at
(a, b) = (0, 1) two of them have E_t's j = 287496 and differ by the unit i.
`_quotient_bases` computes all six bases; `quotient_periods` adds their
j-values, and `elliptic_periods_agm` returns one basis by label without them.

The j-value of tau is 32 (t2^8 + t3^8 + t4^8)^3 / (t2 t3 t4)^8 in the theta
constants at the nome q = e^(i pi tau), with tau first moved to the same
fundamental domain, where |q| <= e^(-pi sqrt(3)/2) and the terms q^(n^2) fall
fast: about 33 of them reach 4096 bits.  Its powers are multiplied out, since
mpmath raises a high-precision mpc to an integer power through a complex log
and exp.  A periods report runs three q-series, one at the tau of each
partner.  Each of those taus has real part 0, so its nome is real, and the
series runs on Python integers at a fixed-point scale, with q^n held only to
the bits the remaining terms need (`_real_theta_squares`); the complex series,
whose cost does not grow with Im tau, serves `analytic_j` and the lattice
closure of `acceptance`.  The kernel's half-period is read as a class (m, n)
in (Z/2)^2, t = (m w1 + n w2)/2, off the partner's normal
form (w1, w2): (R, iH) keeps t's class in (R, iH), and (iH, -R) swaps it.
In the partner's reduced basis the quotient's tau' is then tau/2, 2 tau or
(tau + 1)/2, and with A, B, C = t2^2, t3^2, t4^2 at tau and odd, even the
sums of q^(n^2) over odd and even n >= 1, the duplication formulas give the
theta constants at tau':

    (0, 1)  tau/2:        t2'^4 = 4 A B,              t3'^2 = B + A,      t4'^2 = B - A
    (1, 0)  2 tau:        t2'^2 = 4 odd (1 + 2 even), t3'^2 = (B + C)/2,  t4'^4 = B C
    (1, 1)  (tau + 1)/2:  t2'^4 = 4 i A C,            t3'^2 = C + i A,    t4'^2 = C - i A

so the quotient's j costs a few products.  `periods_report` enforces the
closure of every j against the exact j-invariant, relative to max(1, |j|),
and raises PrecisionError where it fails, so each report checks these
formulas too.

The report's Prym matrix ((z1, z1, 1, 0), (z1, z1 + z2, 0, 2)) comes from
the (2,2) product matrix by a basis change, a quotient and a shear, each a
fixed integer matrix, so `product_to_prym_reduction` writes the four matrices
down and takes no product; the tests derive them in sympy.  It is (A | D)
with A symmetric, so its two Riemann relations take no matrix product:
Pi E^-1 Pi^T = 0, and i Pi E^-1 Pi^* = 2 Im A, whose smaller eigenvalue the
report reads off in closed form (`_prym_riemann_values`).  `riemann_check`
forms both products for any 2x4 matrix of type (1, 2); it is the general
reference the tests hold the report's values to.

All tolerances are powers of two relative to the requested precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, lcm

import mpmath
from mpmath.libmp import mpf_div, pi_fixed, round_nearest, to_str

from .errors import ArgumentError, DomainError, PrecisionError, require
from .algebra import DEFAULT_PRECISION_BITS, MAX_PRECISION_BITS, MIN_PRECISION_BITS
from .family import ELLIPTIC_LABELS, CurveLabel, FamilyParams, curve_equation, j_invariant

_GUARD_BITS = 64
# the bits the fixed-point kernels carry beyond the working precision, as
# mpmath's own fixed-point agm does
_FIXED_GUARD_BITS = 20


def _check_precision(precision_bits: int) -> None:
    if isinstance(precision_bits, bool) or not isinstance(precision_bits, int):
        raise ArgumentError(f"precision_bits must be an int, not {type(precision_bits).__name__}")
    if not MIN_PRECISION_BITS <= precision_bits <= MAX_PRECISION_BITS:
        raise DomainError(f"precision_bits must be in {MIN_PRECISION_BITS}..{MAX_PRECISION_BITS}")


@dataclass(frozen=True)
class ComplexApprox:
    """A complex value carrying the binary precision it was computed at."""

    real: mpmath.mpf
    imag: mpmath.mpf
    precision_bits: int

    def __post_init__(self):
        if not type(self.real) is type(self.imag) is mpmath.mpf:
            raise ArgumentError(f"real and imag must be mpf values, not "
                                f"{type(self.real).__name__} and {type(self.imag).__name__}")
        _check_precision(self.precision_bits)

    def to_mpc(self) -> mpmath.mpc:
        """The value at its labelled precision, whatever the ambient one."""
        with mpmath.workprec(self.precision_bits):
            return mpmath.mpc(self.real, self.imag)

    def __repr__(self):
        return f"ComplexApprox({mpmath.nstr(self.to_mpc(), 17)}, bits={self.precision_bits})"


def _cap(z, bits) -> ComplexApprox:
    z = mpmath.mpc(z)
    return ComplexApprox(z.real, z.imag, bits)


def _as_mpc(z) -> mpmath.mpc:
    """z as an mpc at the working precision; ArgumentError for a value that
    is not a number, DomainError for one that is not finite."""
    try:
        w = z.to_mpc() if isinstance(z, ComplexApprox) else mpmath.mpc(z)
    except (TypeError, ValueError):
        raise ArgumentError(f"expected a complex number, not {type(z).__name__}") from None
    if not mpmath.isfinite(w):
        raise DomainError(f"{mpmath.nstr(w, 5)} is not a finite complex number")
    return w


def optimal_agm(a, b, precision_bits: int) -> mpmath.mpc:
    """Arithmetic-geometric mean with the optimal square-root branch:
    at each step pick the root with |a1 - b1| <= |a1 + b1|, that is
    Re(a1 conj(b1)) >= 0 (ties broken by Im(b1/a1) > 0).  The branch and
    convergence tests compare squared norms, so a step takes one square
    root.  The loop stops once |a - b|^2 <= 2^(-bits-64) |a|^2 and returns
    (a + b)/2: convergence is quadratic, so that differs from M(a, b) by
    about |a - b|^2/(8 |a|) <= 2^(-bits-67) |a|, and one more step would
    only buy bits below the guard.  The library runs `_fixed_agm`; this one
    serves the general-model oracle of the tests (tests/periods_oracle.py).
    DomainError unless a, b and a + b are finite and nonzero."""
    _check_precision(precision_bits)
    with mpmath.workprec(precision_bits + _GUARD_BITS):
        a, b = _as_mpc(a), _as_mpc(b)
        if not (a and b and a + b):
            raise DomainError("the AGM needs a, b and a + b nonzero")
        eps2 = mpmath.ldexp(1, -precision_bits - _GUARD_BITS)
        for _ in range(8 * precision_bits):
            d = a - b
            if d.real ** 2 + d.imag ** 2 <= eps2 * (a.real ** 2 + a.imag ** 2):
                return (a + b) / 2
            a1 = (a + b) / 2
            b1 = mpmath.sqrt(a * b)
            dot = a1.real * b1.real + a1.imag * b1.imag
            if dot < 0 or (dot == 0 and mpmath.im(b1 / a1) < 0):
                b1 = -b1
            a, b = a1, b1
        raise PrecisionError("AGM did not converge within the iteration budget")


@dataclass(frozen=True)
class PeriodPair:
    """A lattice basis (omega1, omega2) with tau = omega2/omega1 in the
    fundamental domain of SL2(Z)."""

    omega1: ComplexApprox
    omega2: ComplexApprox
    tau: ComplexApprox

    def __post_init__(self):
        require(ComplexApprox, "omega1, omega2 and tau", self.omega1, self.omega2, self.tau)


def _from_fixed(v: int, wp: int) -> mpmath.mpf:
    """v 2^-wp rounded once to the working precision."""
    return mpmath.mpf((v, -wp))


def _fixed_agm(num: int, den: int, wp: int) -> int:
    """M(1, sqrt(x)) for a rational x = num/den in (0, 1), at the scale 2^wp.
    It runs on integers at the scale 2^w, w = wp + ceil(log2(1/x)/2), so
    sqrt(x), the smallest value the AGM meets, keeps every bit, and sqrt(x) is
    the isqrt of x at the scale 2^(2 w), taken straight from the fraction.
    Every step takes one `math.isqrt` of a product.  Since M(a, b) =
    (a + b)/2 - (a - b)^2/(8 (a + b)) + O((a - b)^4/(a + b)^3), (a + b)/2 is
    within one unit of 2^-w of M(a, b) once (a - b)^2 < 8 (a + b) in those
    units, so the loop stops there, one square root before a and b meet; like
    `optimal_agm` it gives up with PrecisionError after 8 w steps."""
    extra = (den.bit_length() - num.bit_length() + 2) // 2
    w = wp + extra
    a, b = 1 << w, isqrt((num << 2 * w) // den)
    for _ in range(8 * w):
        d = a - b
        # 8 (a + b) < 2^(w + 5): square d only once it has about half those bits
        if d.bit_length() <= (w >> 1) + 3 and d * d < 8 * (a + b):
            return (a + b) >> (extra + 1)
        a, b = (a + b) >> 1, isqrt(a * b)
    raise PrecisionError("real AGM did not converge within the iteration budget")


def _legendre_data(params: FamilyParams, points):
    """(lam, c, slot): the exact Legendre data of the monic partner branched at
    r0, r1 = -a, -b and at its two triple points (r2, r3) = points of
    `_PARTNERS`: lambda and c = lead (e2 - e1) as unreduced integer pairs
    (numerator, positive denominator), and the slot 1, 2 or 3 of r2 among
    the roots (e1, e2, e3) sent to 0, 1 and lambda; the pivot r3 goes to
    infinity.  With the roots as
    N_j/D over one common denominator, a cubic's e_j are N_j/D.  A quartic's
    x = r3 + 1/u gives e_j = 1/(r_j - r3) = D/d_j, d_j = N_j - N3, that is
    D E_j/|P| for P = d0 d1 d2 and E_j = sgn(P) P/d_j, and the lead 1 becomes
    prod (r3 - r_j) = -P/D^3, so c = -sgn(P) (E2 - E1)/D^2."""
    a, b = params.a, params.b
    d = lcm(a.denominator, b.denominator)
    r2, r3 = points
    e = [-a.numerator * (d // a.denominator), -b.numerator * (d // b.denominator), r2 * d]
    lead_n, lead_d = 1, d
    if r3 is not None:
        d0, d1, d2 = (n - r3 * d for n in e)
        sign = 1 if d0 * d1 * d2 > 0 else -1
        e = [sign * d1 * d2, sign * d0 * d2, sign * d0 * d1]
        lead_n, lead_d = -sign, d * d
    # e3 is the middle e; e1 and e2 the outer two, with lambda <= 1/2 and the
    # smaller first at lambda = 1/2
    i1, i3, i2 = sorted(range(3), key=e.__getitem__)
    if 2 * (e[i3] - e[i1]) > e[i2] - e[i1]:
        i1, i2 = i2, i1
    span = e[i2] - e[i1]
    lam = (e[i3] - e[i1], span) if span > 0 else (e[i1] - e[i3], -span)
    return lam, (lead_n * span, lead_d), 1 + (i1, i2, i3).index(2)


def _partner_lattice(lam, c, wp: int):
    """(R, H, e): the period lattice Z R + Z iH of the first basis
    (2 K(lambda), 2 i K(1 - lambda))/sqrt(c) of `_legendre_data`'s (lam, c),
    as integers R, H at the scale 2^e.  With 2 K = pi/M and s = 1/sqrt(|c|)
    held at the scale 2^e with about wp bits, P = s 2 K(lambda) and
    Q = s 2 K(1 - lambda) keep wp bits at any size of c.  The basis is
    (P, iQ) for c > 0 and (-iP, Q) for c < 0, so (R, H) = (P, Q) or (Q, P)."""
    (lam_n, lam_d), (c_n, c_d) = lam, c
    e = wp + (abs(c_n).bit_length() - c_d.bit_length() + 1) // 2
    s = isqrt((c_d << 2 * e) // abs(c_n) if e >= 0 else c_d // (abs(c_n) << -2 * e))
    s_pi = s * pi_fixed(wp)
    p = s_pi // _fixed_agm(lam_d - lam_n, lam_d, wp)
    q = s_pi // _fixed_agm(lam_n, lam_d, wp)
    return (p, q, e) if c_n > 0 else (q, p, e)


# The normal forms (module docstring) of the lattices a report meets, with
# the boundary slack eps = 2^-slack.  A basis is given as ((a, b), (c, d)) in
# halves: w1 = (a x + i b y)/2 and w2 = (c x + i d y)/2.

def _rectangle_form(x: int, y: int, slack: int):
    """The normal form of the rectangle Z x + Z iy, x, y > 0: (x, iy), tau =
    iy/x, while y^2 >= (1 - eps) x^2, which keeps w1 = x at the square
    lattice, and (iy, -x), tau = ix/y, below."""
    if (x * x - y * y) << slack <= x * x:
        return (2, 0), (0, 2)
    return (0, 2), (-2, 0)


def _rhombus_form(x: int, y: int, slack: int):
    """The normal form of the rhombus Z x + Z iy + Z u, u = (x + iy)/2,
    x, y > 0: (x, -conj u), tau = -1/2 + iy/(2x), while |u|^2 >= (1 - eps) x^2,
    the hexagonal lattice y^2 = 3 x^2 included; (iy, -u), tau = -1/2 +
    ix/(2y), while y^2 < (1 - eps) |u|^2; between them (conj u, u) where
    y^2 - x^2 > eps (x^2 + y^2), and (u, -conj u) else, so that the square
    lattice x = y and the hexagonal x^2 = 3 y^2 get w1 = u, of argument pi/4
    and pi/6."""
    xx, yy = x * x, y * y
    if (3 * xx - yy) << slack <= 4 * xx:
        return (2, 0), (-1, 1)
    if (xx - 3 * yy) << slack > xx + yy:
        return (0, 2), (-1, -1)
    if (yy - xx) << slack > xx + yy:
        return (1, -1), (1, 1)
    return (1, 1), (-1, 1)


def _quotient_lattice(r: int, h: int, e: int, t, scale: int):
    """(form, x, y, e'): the lattice scale (Z r + Z ih + Z t), for r, h at the
    scale 2^e and the half-period t = (m r + n ih)/2 of the class t = (m, n),
    as the rectangle Z x + Z iy (form `_rectangle_form`) of (r/2, h) or
    (r, h/2), or the rhombus of (x + iy)/2 (`_rhombus_form`), with x, y at the
    scale 2^e'."""
    if t == (1, 0):
        return _rectangle_form, scale * r, 2 * scale * h, e + 1
    if t == (0, 1):
        return _rectangle_form, 2 * scale * r, scale * h, e + 1
    return _rhombus_form, scale * r, scale * h, e


def _pair(basis, x: int, y: int, e: int, precision_bits: int) -> PeriodPair:
    """The `PeriodPair` of the basis ((a, b), (c, d)) in halves of x and iy,
    integers at the scale 2^e, with tau = w2/w1 = (c x + i d y)/(a x + i b y)
    divided by the product its w1 needs: tau = (c x + i d y)/(a x) for
    w1 = a x/2, (d y - i c x)/(b y) for w1 = i b y/2, and w2 conj(w1)/|w1|^2
    for a rhombus's diagonal w1.  Each is the same rational number, so each
    floor at the scale 2^wp is the same integer; every number is rounded once
    from its integer."""
    (a, b), (c, d) = basis
    if not b:
        re, im, norm = c * x, d * y, a * x
    elif not a:
        re, im, norm = d * y, -c * x, b * y
    else:
        xx, yy = x * x, y * y
        re, im, norm = a * c * xx + b * d * yy, (a * d - b * c) * x * y, a * a * xx + b * b * yy
    wp = mpmath.mp.prec + _FIXED_GUARD_BITS

    def approx(re, im, shift):
        return ComplexApprox(_from_fixed(re, shift), _from_fixed(im, shift), precision_bits)

    return PeriodPair(approx(a * x, b * y, e + 1), approx(c * x, d * y, e + 1),
                      approx((re << wp) // norm, (im << wp) // norm, wp))


# (partner, quotient, scale, (r2, r3)): the partner is the monic double cover
# branched at the roots r0, r1 = -a, -b and the two points r2, r3 of the
# triple (inf, 2, -2), None for inf; the quotient's lattice is scale (L + Z t)
# for the partner's lattice L and the half-period t of the partner's
# 2-torsion point P(r0) - P(r1) = P(r2) - P(r3) (module docstring)
_PARTNERS = (
    (CurveLabel.E_is_t, CurveLabel.E_t, 1, (-2, None)),
    (CurveLabel.E_is_it, CurveLabel.E_st, 1, (2, None)),
    (CurveLabel.E_s_it, CurveLabel.E_s, 2, (2, -2)),
)


def quotient_periods(params: FamilyParams, precision_bits: int = DEFAULT_PRECISION_BITS):
    """(bases, js): the reduced period basis (`PeriodPair`) and the j-value
    (`ComplexApprox`) of each of the six elliptic quotients at `params`, keyed
    by label.  The bases come from `_quotient_bases`.  E_is_t, E_is_it and
    E_s_it get their j from the theta constants at their tau; E_t, E_st and
    E_s get theirs from the same theta constants by the duplication formulas
    of the kernels of `_PARTNERS`, with no q-series."""
    bases, kernels = _quotient_bases(params, precision_bits)
    js = {}
    with mpmath.workprec(precision_bits + _GUARD_BITS):
        for partner, label, _, _ in _PARTNERS:
            # the printed tau of a partner has real part 0, so its nome is real
            q4 = mpmath.expjpi(bases[partner].tau.to_mpc() / 4).real
            thetas = _real_theta_squares(q4, precision_bits)
            js[partner] = _cap(_j_from_eighths(*map(_fourth, thetas[:3])), precision_bits)
            js[label] = _cap(_j_from_eighths(*_isogenous_eighths(kernels[partner], *thetas)),
                             precision_bits)
    return bases, js


def _quotient_bases(params: FamilyParams, precision_bits: int):
    """(bases, kernels): the reduced period basis of each of the six elliptic
    quotients, keyed by label, and for each partner the class of its kernel's
    half-period in its reduced basis.  E_is_t, E_is_it and E_s_it get their
    rectangular lattices from their exact Legendre data and the real AGM;
    E_t, E_st and E_s get theirs, rectangles or rhombi, from those lattices
    through the 2-isogenies of `_PARTNERS`, with no AGM.  Every basis is put
    in normal form in closed form."""
    require(FamilyParams, "params", params)
    _check_precision(precision_bits)
    bases, kernels = {}, {}
    slack = (precision_bits + 1) // 2  # the normal form's eps = 2^-slack
    with mpmath.workprec(precision_bits + _GUARD_BITS):
        wp = mpmath.mp.prec + _FIXED_GUARD_BITS
        for partner, label, scale, points in _PARTNERS:
            lam, c, slot = _legendre_data(params, points)
            r, h, e = _partner_lattice(lam, c, wp)
            # the class of t in (omega1, omega2) is the two bits of r2's slot,
            # and (omega1, omega2) is (r, ih) for c > 0 and (-ih, r) for c < 0
            t = (slot >> 1, slot & 1) if c[0] > 0 else (slot & 1, slot >> 1)
            # the normal form of the partner's rectangle Z r + Z ih, and the
            # class in it of the half-period (m r + n ih)/2 of t = (m, n): t
            # itself in (r, ih), and (n, m) in (ih, -r)
            basis = _rectangle_form(r, h, slack)
            kernels[partner] = t if basis[0] == (2, 0) else t[::-1]
            bases[partner] = _pair(basis, r, h, e, precision_bits)
            form, x, y, e = _quotient_lattice(r, h, e, t, scale)
            bases[label] = _pair(form(x, y, slack), x, y, e, precision_bits)
    return bases, kernels


def elliptic_periods_agm(label: CurveLabel, params: FamilyParams,
                         precision_bits: int = DEFAULT_PRECISION_BITS) -> PeriodPair:
    """The reduced period basis of the elliptic quotient `label` at `params`,
    the one `quotient_periods` gives a report, from `_quotient_bases` alone:
    no q-series and no j.  ArgumentError for a label that is not elliptic."""
    if label not in ELLIPTIC_LABELS:
        raise ArgumentError(f"periods are computed for the elliptic quotients only, not {label!r}")
    return _quotient_bases(params, precision_bits)[0][label]


# ---------------------------------------------------------------------------
# The modular j-value
# ---------------------------------------------------------------------------


def _square(z):
    return z * z


def _fourth(z):
    return _square(_square(z))


def _theta_squares(tau, precision_bits: int):
    """(A, B, C): the squares A = t2^2, B = t3^2 and C = t4^2 of the theta
    constants at the nome q = e^(i pi tau) of a tau in the fundamental domain,
    from the sums of q^(n^2) over the odd and the even n >= 1, terms added
    until they drop below 2^(-precision_bits - 16).
    q = (q^(1/4))^4 is multiplied out: mpmath 1.3 raises an mpc z to the power
    n through exp(n log z) once n times the mantissa size passes 10000 bits.
    Runs at the caller's precision, for `analytic_j` and `acceptance`."""
    q4 = mpmath.expjpi(tau / 4)  # q^(1/4)
    q = _square(_square(q4))
    # t2 = 2 q^(1/4) sum_{n>=0} q^(n^2+n), t3 and t4 = 1 + 2 sum_{n>=1} (+-1)^n q^(n^2)
    qn = square = oblong = sum2 = mpmath.mpc(1)  # q^n, q^(n^2), q^(n^2+n) at n = 0
    even = odd = mpmath.mpc(0)
    cutoff = mpmath.ldexp(1, -precision_bits - 16)
    for n in range(1, precision_bits):
        qn *= q
        square = oblong * qn
        oblong = square * qn
        sum2 += oblong
        if n % 2:
            odd += square
        else:
            even += square
        if mpmath.fabs(square) < cutoff:
            break
    else:
        raise PrecisionError("q-expansion did not reach the tail bound")
    t2 = 2 * q4 * sum2
    t3 = 1 + 2 * (even + odd)
    t4 = 1 + 2 * (even - odd)
    return t2 * t2, t3 * t3, t4 * t4


def _real_theta_squares(q4, precision_bits: int):
    """(A, B, C, odd, even): `_theta_squares` and its sums odd and even of
    q^(n^2) over the odd and the even n >= 1, for a real nome 0 < q < 1,
    given q^(1/4), on integers at the scale 2^wp: wp is the working precision
    plus _FIXED_GUARD_BITS plus the bits that q sits below 1, so that odd,
    about q, keeps its relative precision for the (1, 0) duplication formula
    far up the axis.  With q < 2^-L, q^n is held only to the absolute
    precision 2^-(wp - L (n^2 - n)) that its products with q^(n^2 - n) and
    q^(n^2) need, so the operands shrink term by term.  Same stopping rule as
    the complex series."""
    q = _square(_square(q4))
    bits_below = -mpmath.mag(q)  # L: 2^-(L + 1) <= q < 2^-L
    wp = mpmath.mp.prec + _FIXED_GUARD_BITS + bits_below + 1
    q_fixed = int(mpmath.ldexp(q, wp))
    qn, k = 1 << wp, wp  # q^n at the scale 2^k
    oblong = sum2 = 1 << wp
    even = odd = 0
    cutoff = 1 << (wp - precision_bits - 16)
    for n in range(1, precision_bits):
        k_next = max(wp - bits_below * (n * n - n), 0)
        qn = qn * (q_fixed >> (wp - k_next)) >> k
        k = k_next
        square = oblong * qn >> k
        oblong = square * qn >> k
        sum2 += oblong
        if n % 2:
            odd += square
        else:
            even += square
        if square < cutoff:
            break
    else:
        raise PrecisionError("q-expansion did not reach the tail bound")
    t2 = 2 * q4 * _from_fixed(sum2, wp)
    t3 = (1 << wp) + 2 * (even + odd)
    t4 = (1 << wp) - 2 * (odd - even)
    return (t2 * t2, _from_fixed(t3 * t3, 2 * wp), _from_fixed(t4 * t4, 2 * wp),
            _from_fixed(odd, wp), _from_fixed(even, wp))


def _j_from_eighths(a, b, c):
    """j = 32 (a + b + c)^3 / (a b c) for the eighth powers a, b, c of the
    theta constants t2, t3, t4; s^3 is multiplied out like every power here."""
    s = a + b + c
    return 32 * s * s * s / (a * b * c)


def _isogenous_eighths(kernel, A, B, C, odd, even):
    """The eighth powers of t2, t3, t4 at the tau' of the lattice L + Z t,
    from the `_real_theta_squares` output at the tau of the reduced basis
    (w1, w2) of L, for the half-period t = (m w1 + n w2)/2 of kernel = (m, n),
    by the duplication (Landen) formulas of the module docstring (Borwein &
    Borwein, Pi and the AGM, ch. 2).  At 2 tau, t2'^2 = (B - C)/2 too, but B
    and C agree ever closer as Im tau grows; 4 odd (1 + 2 even) is the same
    value with nothing cancelled."""
    if kernel == (0, 1):
        t2_4, t3_2, t4_2 = 4 * A * B, B + A, B - A
        return _square(t2_4), _fourth(t3_2), _fourth(t4_2)
    if kernel == (1, 0):
        t2_2, t3_2, t4_4 = 4 * odd * (1 + 2 * even), (B + C) / 2, B * C
        return _fourth(t2_2), _fourth(t3_2), _square(t4_4)
    iA = mpmath.mpc(0, 1) * A
    t2_4, t3_2, t4_2 = 4 * iA * C, C + iA, C - iA
    return _square(t2_4), _fourth(t3_2), _fourth(t4_2)


def _scaled(x: mpmath.mpf, k: int) -> int:
    """The integer x 2^k of a dyadic x whose exponent is at least -k."""
    sign, man, exp, _ = x._mpf_
    return (-man if sign else man) << (exp + k)


def _moved(tau) -> mpmath.mpc:
    """gamma tau at the working precision, rounded once, for a gamma in SL2(Z)
    that moves a tau with |Re tau| <= 1/2 and |tau| < 1 into the fundamental
    domain.  The moves tau - n and -1/tau run on exact integers: with tau =
    (X + iY)/2^k, gamma tau = (P + iR)/(U + iV) for P + iR = 2^k (a tau + b)
    and U + iV = 2^k (c tau + d), and each inversion lowers the integer
    |U + iV|^2 = 4^k Im tau/Im gamma tau, so the loop ends (Cohen, *A Course
    in Computational Algebraic Number Theory*, 7.4).  PrecisionError when
    the parts of tau carry more than MAX_PRECISION_BITS bits below the
    binary point."""
    k = max(-tau.real._mpf_[2], -tau.imag._mpf_[2])
    if k > MAX_PRECISION_BITS:
        raise PrecisionError(f"tau has {k} bits below the binary point, over {MAX_PRECISION_BITS}")
    P, R, U, V = _scaled(tau.real, k), _scaled(tau.imag, k), 1 << k, 0
    while P * P + R * R < U * U + V * V:  # |gamma tau| < 1
        P, R, U, V = -U, -V, P, R
        D = U * U + V * V
        n = (2 * (P * U + R * V) + D) // (2 * D)  # floor(Re gamma tau + 1/2)
        P, R = P - n * U, R - n * V
    D = U * U + V * V
    return mpmath.mpc(mpmath.fdiv(P * U + R * V, D), mpmath.fdiv(R * U - P * V, D))


def analytic_j(tau, precision_bits: int = DEFAULT_PRECISION_BITS) -> ComplexApprox:
    """j(tau) = 32 (t2^8 + t3^8 + t4^8)^3 / (t2 t3 t4)^8 from the theta
    constants (`_theta_squares`) at tau, read at precision_bits + 64 bits and
    first moved to the fundamental domain by a gamma in SL2(Z), under which j
    is invariant.  j is about e^(-2 pi i tau'), so an absolute error e in the
    moved tau' is one of about 2 pi e in j relative to |j|.  A shift tau - n
    is exact.  Past it, a tau in the domain is read as it is, and any other
    is moved by `_moved`, which forms tau' once from tau's exact parts, with
    Im tau' <= 1/Im tau.  So the moves and the series carry the bits of
    1/Im tau beyond the guard bits, rounding moves tau' by less than
    2^-(precision_bits + 63), and j keeps its label.  The powers are
    multiplied out: mpmath 1.3 raises an mpc z to the power n through
    exp(n log z) once n times the mantissa size passes 10000 bits."""
    _check_precision(precision_bits)
    with mpmath.workprec(precision_bits + _GUARD_BITS):
        tau = _as_mpc(tau)
        if tau.imag <= 0:
            raise DomainError("tau must lie in the upper half-plane")
    with mpmath.workprec(precision_bits + _GUARD_BITS + max(0, -mpmath.mag(tau.imag))):
        tau -= mpmath.floor(tau.real + mpmath.mpf(1) / 2)
        if tau.real ** 2 + tau.imag ** 2 < 1:
            tau = _moved(tau)
        return _cap(_j_from_eighths(*map(_fourth, _theta_squares(tau, precision_bits))),
                    precision_bits)


# ---------------------------------------------------------------------------
# Prym period matrix, polarisation type (1, 2)
# ---------------------------------------------------------------------------

def _cell(e: ComplexApprox) -> dict:
    return {"re": mpmath.nstr(e.real, 17), "im": mpmath.nstr(e.imag, 17)}


def _ratio_text(x, y) -> str:
    """x / y to 17 digits, as `nstr` writes it, of the quotient rounded to 64
    bits: below 10^-1053, nstr writes out about bits * log10(2) digits of a
    long mantissa, which passes the interpreter's 4300-digit bound from about
    14300 bits."""
    return to_str(mpf_div(x._mpf_, y._mpf_, 64, round_nearest), 17)


@dataclass(frozen=True)
class PrymPeriodMatrix:
    """2x4 matrix ((z1, z1, 1, 0), (z1, z1 + z2, 0, 2)) with the alternating
    form ((0, D), (-D, 0)), D = diag(1, 2)."""

    entries: tuple  # 2x4 of ComplexApprox
    polarization = (1, 2)

    def __post_init__(self):
        rows = self.entries
        if not (type(rows) is tuple and len(rows) == 2
                and all(type(row) is tuple and len(row) == 4 for row in rows)):
            raise ArgumentError("entries must be a tuple of two rows of four ComplexApprox")
        require(ComplexApprox, "each entry", *rows[0], *rows[1])

    @property
    def precision_bits(self) -> int:
        """The smallest label of an entry: every entry has at least its bits."""
        return min(e.precision_bits for row in self.entries for e in row)

    def to_mpc_rows(self):
        return [[e.to_mpc() for e in row] for row in self.entries]

    def to_report(self) -> dict:
        return {
            "entries": [[_cell(e) for e in row] for row in self.entries],
            "polarization": list(self.polarization),
            "precision_bits": self.precision_bits,
        }


def _upper_pair(z1, z2):
    """(w1, w2, bits): z1 and z2 as mpc values at bits, the smaller of their
    labelled precisions; DomainError unless both lie in the upper half-plane."""
    bits = min(getattr(z, "precision_bits", DEFAULT_PRECISION_BITS) for z in (z1, z2))
    with mpmath.workprec(bits + _GUARD_BITS):
        w1, w2 = _as_mpc(z1), _as_mpc(z2)
    for name, w in (("z1", w1), ("z2", w2)):
        if w.imag <= 0:
            raise DomainError(f"{name} must lie in the upper half-plane")
    return w1, w2, bits


def _prym_rows(w1, w2):
    """The rows ((w1, w1, 1, 0), (w1, w1 + w2, 0, 2)) of the Prym matrix."""
    return (w1, w1, 1, 0), (w1, w1 + w2, 0, 2)


def _frozen(rows, bits):
    """rows of ComplexApprox labelled bits, rounded to the working precision."""
    return tuple(tuple(_cap(e, bits) for e in row) for row in rows)


def prym_period_matrix(z1, z2) -> PrymPeriodMatrix:
    w1, w2, bits = _upper_pair(z1, z2)
    with mpmath.workprec(bits + _GUARD_BITS):
        return PrymPeriodMatrix(_frozen(_prym_rows(w1, w2), bits))


@dataclass(frozen=True)
class ReductionTrace:
    """The four matrices of the product-to-Prym reduction, closed forms in z1
    and z2: the (2,2)-polarised product matrix ((z1, 0, 2, 0), (0, z2, 0, 2))
    on the columns (f1, f2, e1, e2); after the basis change f2' = f1 + f2,
    e1' = e1 - e2, symplectic for the (2,2) form, ((z1, z1, 2, 0),
    (0, z2, -2, 2)); after the quotient by e1'/2 ((z1, z1, 1, 0),
    (0, z2, -1, 2)); and after the shear ((1, 0), (1, 1)) the (1,2) Prym
    matrix.  `test_reduction_trace_matches_documented_matrices` derives all
    four from the basis change in sympy."""

    product_matrix: tuple
    basis_changed: tuple
    after_quotient: tuple     # the documented intermediate matrix
    final: tuple


def product_to_prym_reduction(z1, z2) -> ReductionTrace:
    """`ReductionTrace` written down at bits + 64, labelled with the smaller
    label bits of z1 and z2; `final` is `prym_period_matrix`'s entries."""
    w1, w2, bits = _upper_pair(z1, z2)
    with mpmath.workprec(bits + _GUARD_BITS):
        return ReductionTrace(
            product_matrix=_frozen(((w1, 0, 2, 0), (0, w2, 0, 2)), bits),
            basis_changed=_frozen(((w1, w1, 2, 0), (0, w2, -2, 2)), bits),
            after_quotient=_frozen(((w1, w1, 1, 0), (0, w2, -1, 2)), bits),
            final=_frozen(_prym_rows(w1, w2), bits),
        )


def riemann_check(matrix: PrymPeriodMatrix):
    """(residual_symmetry, min_eigenvalue) of the two Riemann relations for
    the alternating form E = ((0, D), (-D, 0)), D = diag(1, 2):
    Pi E^-1 Pi^T = 0 and i Pi E^-1 Pi^* > 0.  For Pi = (A | B) and a second
    matrix Pi' = (A' | B'), Pi E^-1 Pi'^T = B D^-1 A'^T - A D^-1 B'^T.  The
    general reference for the closed form a report reads
    (`_prym_riemann_values`)."""
    require(PrymPeriodMatrix, "the matrix", matrix)
    bits = matrix.precision_bits
    with mpmath.workprec(bits + _GUARD_BITS):
        rows = matrix.to_mpc_rows()
        dinv = [mpmath.mpf(1) / d for d in matrix.polarization]

        def form(right):
            # entry (i, j) for the rows p = (A_i | B_i) of Pi and q of Pi'
            return [[sum((p[k + 2] * q[k] - p[k] * q[k + 2]) * dinv[k] for k in range(2))
                     for q in right] for p in rows]

        sym = form(rows)
        residual = max(mpmath.fabs(x) for row in sym for x in row)

        herm = form([[mpmath.conj(e) for e in row] for row in rows])
        h = [[mpmath.mpc(0, 1) * x for x in row] for row in herm]
        # 2x2 Hermitian closed-form eigenvalues
        tr = (h[0][0] + h[1][1]).real
        det = (h[0][0] * h[1][1] - h[0][1] * h[1][0]).real
        disc = mpmath.sqrt(max((tr / 2) ** 2 - det, mpmath.mpf(0)))
        min_eig = tr / 2 - disc
        return residual, min_eig


def _prym_riemann_values(matrix: PrymPeriodMatrix):
    """`riemann_check` of a matrix of `prym_period_matrix`, read off its
    closed form.  That matrix is Pi = (A | D) with A = ((z1, z1), (z1, s)),
    s = z1 + z2, symmetric, so Pi E^-1 Pi^T = A^T - A = 0, and
    i Pi E^-1 Pi^* = 2 Im A = ((u, u), (u, v)) for u = 2 Im z1 and
    v = 2 Im s, each read at the matrix's label as `riemann_check` reads it.
    The trace, determinant and smaller eigenvalue are formed at bits + 64 with
    `riemann_check`'s roundings, so both values are the same numbers."""
    bits = matrix.precision_bits
    (z1, _, _, _), (_, s, _, _) = matrix.entries
    with mpmath.workprec(bits + _GUARD_BITS):
        u, v = 2 * z1.to_mpc().imag, 2 * s.to_mpc().imag
        tr = u + v
        det = u * v - u * u
        disc = mpmath.sqrt(max((tr / 2) ** 2 - det, mpmath.mpf(0)))
        return mpmath.mpf(0), tr / 2 - disc


def periods_report(params, precision_bits: int = DEFAULT_PRECISION_BITS) -> dict:
    """Periods of the six elliptic quotients (`quotient_periods`), the Prym
    matrix spanned by E_t and E_st, its Riemann values read off 2 Im A
    (`_prym_riemann_values`), and the relative deltas
    |j_analytic - j| / max(1, |j|) of the analytic j of `quotient_periods` from
    the exact j for all six.  Each must be at most j_delta_tolerance, or
    PrecisionError is raised; both print as 17-digit strings, which neither
    overflow nor underflow as floats would.  ArgumentError unless params is a
    `FamilyParams` and precision_bits an int."""
    require(FamilyParams, "params", params)
    _check_precision(precision_bits)
    tol = mpmath.ldexp(1, 4 - precision_bits // 4)
    bases, js = quotient_periods(params, precision_bits)
    deltas, pairs = {}, {}
    for label in ELLIPTIC_LABELS:
        pair = bases[label]
        pairs[label.value] = {"omega1": _cell(pair.omega1), "omega2": _cell(pair.omega2),
                              "tau": _cell(pair.tau)}
        exact = j_invariant(curve_equation(label, params))
        with mpmath.workprec(precision_bits):
            exact_c = mpmath.mpf(exact.numerator) / exact.denominator
            delta = mpmath.fabs(js[label].to_mpc() - exact_c)
            scale = max(mpmath.mpf(1), mpmath.fabs(exact_c))
            if delta > tol * scale:
                raise PrecisionError(f"analytic j of {label.value} misses the exact j by "
                                     f"{mpmath.nstr(delta, 3)}, over {mpmath.nstr(tol * scale, 3)}")
            deltas[label.value] = _ratio_text(delta, scale)

    matrix = prym_period_matrix(bases[CurveLabel.E_t].tau, bases[CurveLabel.E_st].tau)
    residual, min_eig = _prym_riemann_values(matrix)
    return {
        "precision_bits": precision_bits,
        "periods": {k: pairs[k] for k in sorted(pairs)},
        "analytic_vs_exact_j": {k: v for k, v in sorted(deltas.items())},
        "j_delta_tolerance": mpmath.nstr(tol, 17),
        "prym_period_matrix": matrix.to_report(),
        "riemann_residual_symmetry": float(residual),
        "riemann_min_eigenvalue": float(min_eig),
        # S^T J S = J, proven by test_reduction_trace_matches_documented_matrices
        "reduction_symplectic": True,
    }
