"""High-precision analytic layer: elliptic periods through the AGM, the
modular j-value from theta constants, the explicit 2x4 Prym period matrix
with polarisation type (1,2), and Riemann-relation checks.

Strategy for periods of a genus-1 model y^2 = f(x), deg f in {3, 4}:

* a quartic is converted to a cubic with the *same* period lattice by
  x = r + 1/u, w = y u^2 for a root r of f (dx/y = -du/w);
* the cubic c (u - e1)(u - e2)(u - e3) is sent to the three-root normal
  form s (s - 1)(s - lambda) by u = e1 + (e2 - e1) s, which scales the
  lattice by (c (e2 - e1))^(-1/2);
* the normal form has lattice basis (2 K(lambda), 2 i K(1 - lambda)) with
  K(m) = pi / (2 M(1, sqrt(1 - m))) computed from the complement 1 - m,
  taken as (e2 - e3)/(e2 - e1) and lambda, so a tiny lambda keeps its bits;
* the exact rational path, for models whose factors are all linear (the
  AGM partners E_is_t, E_is_it and E_s_it of a report): the roots -c0/c1,
  the pivot (a cubic's point at infinity, a quartic's root r3), the e's,
  lambda, 1 - lambda and c (e2 - e1) are `Fraction`s, each rounded once.
  e3 is the middle one of the three real e's and e1, e2 the outer two with
  lambda <= 1/2, the smaller first at lambda = 1/2, so lambda lies in
  (0, 1/2] and both AGMs are of positive reals, M(1, sqrt(x)) for a
  rational x, run on Python integers at a fixed-point scale wide enough for
  sqrt(x) (`_real_agm`).  The scale is 1/sqrt(c), or -i/sqrt(|c|) for c < 0;
* the general path, for everything else (`elliptic_periods_agm`): the
  branch points are the roots of f at the working precision.  Models of the
  family carry the rational factors of f, all of degree <= 2, and each is
  solved in closed form; mpmath.polyroots runs only for models built from a
  bare f.  The quartic's pivot is its last root, as on the exact path, and
  the root e3 is chosen, by scores at the working precision, so that lambda
  stays away from the two real cuts (-inf, 0] and [1, +inf),
  where the basis above is the analytic continuation of the real-root case
  and hence remains a genuine lattice basis.  Its AGM is the optimal
  complex AGM, which stops one square root before full convergence: once
  |a - b|^2 <= 2^(-bits-64) |a|^2, (a + b)/2 is within 2^(-bits-67) |a| of
  M(a, b);
* that basis is then reduced to one normal form, tau = omega2/omega1 in the
  fundamental domain of SL2(Z) and omega1 in the right half-plane, turned
  at tau = i and e^(2 pi i/3) by a unit of the lattice into the sector
  |arg omega1| <= pi/4 or pi/6, so the reported basis depends on the
  lattice alone, not on the root ordering, the square-root branches, the
  path or the precision.

A periods report runs the AGM for three of the six elliptic quotients only.
The family's equations give three 2-isogenies onto them,

    E_t  -> E_is_t:   (x, y) -> (x^2 - 2, x y),                 dX/Y = 2 dx/y
    E_st -> E_is_it:  (x, y) -> (x^2 + 2, x y),                 dX/Y = 2 dx/y
    E_s  -> E_s_it:   (x, y) -> (x + 1/x, y (x^2 - 1)/x^2),     dX/Y = dx/y

so the lattices of E_t, E_st and E_s are scale (L + Z t), with scale
2/c = 1, 1 and 2 for the factor c in dX/Y = c dx/y, L the lattice of the
partner on the right and t the half-period of the partner's 2-torsion
point P(-a) - P(-b), which is P(-2) - P(inf) on E_is_t, P(2) - P(inf) on
E_is_it and P(2) - P(-2) on E_s_it.  The partners' branch points -a, -b
and +-2 are rational, so they take the exact path.  The kernel point is
found by root identity, not by a numeric comparison: with the roots
numbered r0, r1, r2, r3 = -a, -b, then +-2 in factor order and infinity for
a cubic, the exact path always sends r3 to infinity (a quartic's pivot of
x = r3 + 1/u, a cubic's own point at infinity), so the kernel point is
P(r2) - P(r3).  With (e1, e2, e3) sent to (0, 1, lambda) the half-periods are

    r2 = e1:  omega2/2,     basis of L + Z t: (omega1, omega2/2)
    r2 = e2:  omega1/2,                       (omega1/2, omega2)
    r2 = e3:  (omega1 + omega2)/2,            (omega1, (omega1 + omega2)/2)

and the result goes through the same reduction to the normal form.  No j
comparison could choose among the three lattices: at (a, b) = (0, 1) two of
them have E_t's j = 287496 and differ by the unit i.

The j-value of tau is 32 (t2^8 + t3^8 + t4^8)^3 / (t2 t3 t4)^8 in the theta
constants at the nome q = e^(i pi tau), with tau first moved to the same
fundamental domain, where |q| <= e^(-pi sqrt(3)/2) and the terms q^(n^2) fall
fast: about 33 of them reach 4096 bits.  Its powers are multiplied out, since
mpmath raises a high-precision mpc to an integer power through a complex log
and exp.  A periods report runs three q-series, one at the tau of each
partner.  Each of those taus has real part 0, so its nome is real, and the
series runs on Python integers at a fixed-point scale, with q^n held only to
the bits the remaining terms need (`_real_theta_squares`); the complex series
serves `analytic_j` at a general tau.  The reduction carries the kernel's
half-period along as a class (m, n) in (Z/2)^2, t = (m w1 + n w2)/2 in the
current basis, starting from slot 1, 2, 3 = (0, 1), (1, 0), (1, 1) and
updated exactly at every step: the shift w2 -= s w1 sends m to m + s n, the
swap (w2, -w1) and the unit i send (m, n) to (n, m), -1 changes nothing, and
the unit e^(i pi/3) and its inverse send (m, n) to (n, m + n) and
(m + n, m).  In the partner's reduced basis the
quotient's tau' is then tau/2, 2 tau or (tau + 1)/2, and with A, B, C = t2^2,
t3^2, t4^2 at tau and odd, even the sums of q^(n^2) over odd and even n >= 1,
the duplication formulas give the theta constants at tau':

    (0, 1)  tau/2:        t2'^4 = 4 A B,              t3'^2 = B + A,      t4'^2 = B - A
    (1, 0)  2 tau:        t2'^2 = 4 odd (1 + 2 even), t3'^2 = (B + C)/2,  t4'^4 = B C
    (1, 1)  (tau + 1)/2:  t2'^4 = 4 i A C,            t3'^2 = C + i A,    t4'^2 = C - i A

so the quotient's j costs a few products.  `periods_report` enforces the
closure of every j against the exact j-invariant, relative to max(1, |j|),
and raises PrecisionError where it fails, so each report checks these
formulas too.

All tolerances are powers of two relative to the requested precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import mpmath

from .errors import ArgumentError, DomainError, PrecisionError
from .algebra import DEFAULT_PRECISION_BITS, MAX_PRECISION_BITS, MIN_PRECISION_BITS
from .family import ELLIPTIC_LABELS, CurveLabel, HyperellipticModel, curve_equation, j_invariant

_GUARD_BITS = 64
# the bits the fixed-point kernels carry beyond the working precision, as
# mpmath's own fixed-point agm does
_FIXED_GUARD_BITS = 20


def _check_precision(precision_bits: int) -> None:
    if not MIN_PRECISION_BITS <= precision_bits <= MAX_PRECISION_BITS:
        raise DomainError(f"precision_bits must be in {MIN_PRECISION_BITS}..{MAX_PRECISION_BITS}")


@dataclass(frozen=True)
class ComplexApprox:
    """A complex value carrying the binary precision it was computed at."""

    real: mpmath.mpf
    imag: mpmath.mpf
    precision_bits: int

    @classmethod
    def from_value(cls, value, precision_bits=DEFAULT_PRECISION_BITS) -> "ComplexApprox":
        _check_precision(precision_bits)
        with mpmath.workprec(precision_bits):
            z = mpmath.mpc(value)
            return cls(z.real, z.imag, precision_bits)

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
    if isinstance(z, ComplexApprox):
        return z.to_mpc()
    return mpmath.mpc(z)


def optimal_agm(a, b, precision_bits: int) -> mpmath.mpc:
    """Arithmetic-geometric mean with the optimal square-root branch:
    at each step pick the root with |a1 - b1| <= |a1 + b1|, that is
    Re(a1 conj(b1)) >= 0 (ties broken by Im(b1/a1) > 0).  The branch and
    convergence tests compare squared norms, so a step takes one square
    root.  The loop stops once |a - b|^2 <= 2^(-bits-64) |a|^2 and returns
    (a + b)/2: convergence is quadratic, so that differs from M(a, b) by
    about |a - b|^2/(8 |a|) <= 2^(-bits-67) |a|, and one more step would
    only buy bits below the guard."""
    with mpmath.workprec(precision_bits + _GUARD_BITS):
        a = mpmath.mpc(a)
        b = mpmath.mpc(b)
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


def _complete_K(m_c, precision_bits: int) -> mpmath.mpc:
    """K(m) = pi / (2 M(1, sqrt(m_c))) for the complement m_c = 1 - m,
    principal square root.  Taking m_c, not m, keeps every bit of a tiny
    m_c, which 1 - (1 - m_c) would round away."""
    with mpmath.workprec(precision_bits + _GUARD_BITS):
        return mpmath.pi / (2 * optimal_agm(1, mpmath.sqrt(mpmath.mpc(m_c)), precision_bits))


@dataclass(frozen=True)
class PeriodPair:
    """A lattice basis (omega1, omega2) with tau = omega2/omega1 in the
    fundamental domain of SL2(Z)."""

    omega1: ComplexApprox
    omega2: ComplexApprox
    tau: ComplexApprox


def _roots_of(f, precision_bits: int):
    coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(f.coeffs)]
    roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=precision_bits)
    return [mpmath.mpc(r) for r in roots]


def _factor_roots(f, precision_bits: int):
    """Roots of a rational polynomial at the working precision: closed forms
    up to degree 2, polyroots above."""
    if f.degree > 2:
        return _roots_of(f, precision_bits)
    c = [mpmath.mpf(k.numerator) / k.denominator for k in f.coeffs]
    if f.degree == 1:
        return [mpmath.mpc(-c[0] / c[1])]
    c0, c1, c2 = c
    s = mpmath.sqrt(c1 * c1 - 4 * c2 * c0)
    if c1 < 0:
        s = -s
    q = -(c1 + s) / 2  # c1 and s do not cancel; the roots are q/c2 and c0/q
    return [mpmath.mpc(q / c2), mpmath.mpc(c0 / q)]


def _branch_points(model: HyperellipticModel, precision_bits: int):
    return [r for f in model.factors for r in _factor_roots(f, precision_bits)]


def _cut_distance(e1, e2, e3):
    """Distance of lambda = (e3 - e1)/(e2 - e1) from the union of the rays
    (-inf, 0] and [1, +inf)."""
    lam = (e3 - e1) / (e2 - e1)
    x, y = lam.real, lam.imag
    d1 = abs(y) if x <= 0 else abs(lam)
    d2 = abs(y) if x >= 1 else abs(lam - 1)
    return min(d1, d2)


def _legendre_order(roots, precision_bits: int):
    """The positions (i, j, k) in `roots`, three roots of a cubic, of the
    ordering (e1, e2, e3) whose cross-ratio lambda = (e3 - e1)/(e2 - e1) lies
    farthest from the cuts, scored at the working precision.  lambda and
    1 - lambda score alike, so only the three choices of e3 are scored, each
    with e1 before e2 in the given order.  Every ordering off the cuts gives
    a basis of the same lattice, and `_reduce_basis` makes it canonical."""
    orders = ((0, 1, 2), (0, 2, 1), (1, 2, 0))
    scores = [_cut_distance(*(roots[i] for i in order)) for order in orders]
    best = max(scores)
    if best < mpmath.ldexp(1, -precision_bits // 2):
        raise PrecisionError("branch-point cross-ratio too close to the cuts")
    return orders[scores.index(best)]


def _reduce_basis(w1, w2, precision_bits: int, kernel=(0, 0)):
    """(w1, w2, tau = w2/w1, kernel): the basis of the lattice Z w1 + Z w2 in
    normal form: -1/2 <= Re tau < 1/2, |tau| >= 1 with Re tau <= 0 where
    |tau| = 1 (the fundamental domain of SL2(Z); Serre, A Course in
    Arithmetic, VII 1), and Re w1 > 0, or Re w1 = 0 < Im w1.  At tau = i and
    tau = e^(2 pi i/3) the lattice also has the units i and e^(i pi/3), which
    fix tau, so there w1 is turned by one of them into -pi/4 < arg w1 <= pi/4,
    or -pi/6 < arg w1 <= pi/6.  Every boundary is taken up to 2^(-bits/2), so
    bases that differ by rounding reduce alike.  Im tau > 0 is assumed.
    kernel = (m, n) names the half-period (m w1 + n w2)/2 modulo the lattice,
    m, n in {0, 1}; each step carries it to the new basis exactly."""
    eps = mpmath.ldexp(1, -precision_bits // 2)
    half = mpmath.mpf(1) / 2
    m, n = kernel
    for _ in range(10_000):
        tau = w2 / w1
        shift = mpmath.floor(tau.real + half + eps)
        w2 -= shift * w1
        tau -= shift
        m ^= int(shift) & n
        norm = tau.real ** 2 + tau.imag ** 2
        if norm < 1 - eps or (norm < 1 + eps and tau.real > eps):
            w1, w2 = w2, -w1
            m, n = n, m
            continue
        w1_norm = w1.real ** 2 + w1.imag ** 2
        on_axis = w1.real ** 2 <= eps ** 2 * w1_norm
        if (w1.imag if on_axis else w1.real) < 0:
            w1, w2 = -w1, -w2
        if norm < 1 + eps and (abs(tau.real) <= eps or tau.real < eps - half):
            # tau = i or e^(2 pi i/3): the unit u = i or e^(i pi/3) maps the
            # lattice onto itself and (w1, w2) to (u w1, u w2), keeping tau.
            # Of w1, u w1 and w1/u take the one with -pi/k < arg <= pi/k,
            # k = 4 or 6: the largest real part, a tie going to u w1.  The
            # kernel's class goes along: to (n, m) for i, and to (n, m + n) or
            # (m + n, m) for e^(i pi/3) or its inverse
            if abs(tau.real) <= eps:
                up, down = (w2, -w1), (-w2, w1)
                up_kernel = down_kernel = n, m
            else:
                up, down = (w1 + w2, -w1), (-w2, w1 + w2)
                up_kernel, down_kernel = (n, m ^ n), (m ^ n, m)
            slack = eps * mpmath.sqrt(w1_norm)
            if down[0].real > w1.real + slack:
                (w1, w2), (m, n) = down, down_kernel
            elif up[0].real >= w1.real - slack:
                (w1, w2), (m, n) = up, up_kernel
        return w1, w2, tau, (m, n)
    raise PrecisionError("fundamental-domain reduction did not terminate")


def _legendre_basis(model: HyperellipticModel, precision_bits: int):
    """(omega1, omega2): a first basis of the period lattice of y^2 = f(x),
    deg f in {3, 4}, from the optimal AGM.  Runs at the caller's precision."""
    rhs = model.rhs
    roots = _branch_points(model, precision_bits)
    if len(set(roots)) < len(roots):
        raise PrecisionError("two branch points agree at the working precision")
    lead = mpmath.mpf(rhs.leading.numerator) / rhs.leading.denominator
    if rhs.degree == 4:
        # x = r + 1/u turns the quartic into a cubic with the same lattice and
        # sends the last root r to the cubic's point at infinity
        r = roots.pop()
        for rj in roots:
            lead *= r - rj
        roots = [1 / (rj - r) for rj in roots]

    e1, e2, e3 = (roots[i] for i in _legendre_order(roots, precision_bits))
    # K(lambda) and K(1 - lambda) take the complements 1 - lambda and lambda,
    # each from the root differences
    lam = (e3 - e1) / (e2 - e1)
    scale = 1 / mpmath.sqrt(lead * (e2 - e1))
    omega1 = scale * 2 * _complete_K((e2 - e3) / (e2 - e1), precision_bits)
    omega2 = scale * 2 * mpmath.mpc(0, 1) * _complete_K(lam, precision_bits)
    if (omega2 / omega1).imag < 0:  # defensive; the cut-plane construction keeps Im > 0
        omega2 = -omega2
    return omega1, omega2


def _rounded(x: Fraction) -> mpmath.mpf:
    """x rounded once to the working precision."""
    return mpmath.fdiv(x.numerator, x.denominator)


def _from_fixed(v: int, wp: int) -> mpmath.mpf:
    """v 2^-wp rounded once to the working precision."""
    return mpmath.ldexp(mpmath.mpf(v), -wp)


def _real_agm(x: Fraction) -> mpmath.mpf:
    """M(1, sqrt(x)) for a rational 0 < x < 1 at the working precision, on
    integers at the scale 2^wp: wp is the working precision plus
    _FIXED_GUARD_BITS plus ceil(log2(1/x)/2), so sqrt(x), the smallest value
    the AGM meets, keeps every bit, and sqrt(x) is the isqrt of x at the scale
    2^(2 wp), taken straight from the fraction.  Every step takes one
    `math.isqrt` of a product.  The loop stops, as mpmath's `agm_fixed` does,
    once a and b are within 16 units of 2^-wp, and returns their mean; like
    `optimal_agm` it gives up with PrecisionError after 8 wp steps."""
    num, den = x.numerator, x.denominator
    wp = (mpmath.mp.prec + _FIXED_GUARD_BITS
          + (den.bit_length() - num.bit_length() + 2) // 2)
    a, b = 1 << wp, isqrt((num << 2 * wp) // den)
    for _ in range(8 * wp):
        if abs(a - b) < 16:
            return _from_fixed((a + b) >> 1, wp)
        a, b = (a + b) >> 1, isqrt(a * b)
    raise PrecisionError("real AGM did not converge within the iteration budget")


def _rational_legendre_basis(model: HyperellipticModel):
    """(omega1, omega2, order): `_legendre_basis` for a model whose factors
    are all linear, on the exact rational path of the module docstring: the
    roots -c0/c1, the ordering, lambda, 1 - lambda and c (e2 - e1) are
    `Fraction`s, each rounded once, and both AGMs are of positive reals.
    order = (3, i1, i2, i3) numbers the roots sent to infinity, 0, 1 and
    lambda, r0 to r3 in factor order and r3 a cubic's point at infinity: the
    pivot is always r3.  Runs at the caller's precision."""
    e = [-f[0] / f[1] for f in model.factors]
    lead = model.rhs.leading
    if len(e) == 4:
        # x = r3 + 1/u: e_j = 1/(r_j - r3), and the lead gains prod (r3 - r_j)
        r3 = e.pop()
        for r in e:
            lead *= r3 - r
        e = [1 / (r - r3) for r in e]
    # e3 is the middle e; e1 and e2 the outer two, with lambda <= 1/2 and the
    # smaller first at lambda = 1/2
    i1, i3, i2 = sorted(range(3), key=e.__getitem__)
    if 2 * (e[i3] - e[i1]) > e[i2] - e[i1]:
        i1, i2 = i2, i1
    d = e[i2] - e[i1]
    lam = (e[i3] - e[i1]) / d
    c = lead * d
    # 2 K(lambda) and 2 K(1 - lambda), each from its complement
    k = mpmath.pi / _real_agm(1 - lam)
    k_c = mpmath.pi / _real_agm(lam)
    # the scale 1/sqrt(c) on the principal branch: -i/sqrt(|c|) for c < 0
    s = 1 / mpmath.sqrt(_rounded(abs(c)))
    if c > 0:
        omega1, omega2 = mpmath.mpc(s * k), mpmath.mpc(0, s * k_c)
    else:
        omega1, omega2 = mpmath.mpc(0, -s * k), mpmath.mpc(s * k_c)
    return omega1, omega2, (3, i1, i2, i3)


def _period_pair(omega1, omega2, tau, precision_bits: int) -> PeriodPair:
    return PeriodPair(_cap(omega1, precision_bits),
                      _cap(omega2, precision_bits),
                      _cap(tau, precision_bits))


def _normal_pair(omega1, omega2, precision_bits: int) -> PeriodPair:
    return _period_pair(*_reduce_basis(omega1, omega2, precision_bits)[:3], precision_bits)


def elliptic_periods_agm(model: HyperellipticModel,
                         precision_bits: int = DEFAULT_PRECISION_BITS) -> PeriodPair:
    """The period lattice basis of y^2 = f(x) in normal form
    (`_reduce_basis`): tau = omega2/omega1 in the fundamental domain and
    omega1 in the right half-plane, from a first basis computed by the
    optimal AGM.  The basis depends on the lattice alone, so it is the same
    at every precision and for every root ordering, also at tau = i and
    tau = e^(2 pi i/3), whose extra units the normal form accounts for."""
    if model.genus != 1:
        raise ArgumentError("periods are computed for genus-1 models only")
    _check_precision(precision_bits)
    with mpmath.workprec(precision_bits + _GUARD_BITS):
        return _normal_pair(*_legendre_basis(model, precision_bits), precision_bits)


# (partner, quotient, scale): the quotient's lattice is scale (L + Z t) for
# the partner's lattice L and the half-period t of the partner's 2-torsion
# point P(r0) - P(r1) = P(r2) - P(r3) (module docstring)
_PARTNERS = (
    (CurveLabel.E_is_t, CurveLabel.E_t, 1),
    (CurveLabel.E_is_it, CurveLabel.E_st, 1),
    (CurveLabel.E_s_it, CurveLabel.E_s, 2),
)


def _kernel_class(order):
    """The class (m, n) of the half-period t = (m omega1 + n omega2)/2 of
    P(r2) - P(r3) = P(r0) - P(r1) for the `_rational_legendre_basis` output
    (omega1, omega2, order), whose pivot r3 goes to infinity.  r2 at 0, 1 or
    lambda (slot 1, 2 or 3) gives (0, 1), (1, 0) or (1, 1): the slot's two
    bits."""
    slot = order.index(2)
    return slot >> 1, slot & 1


def _partner_basis(omega1, omega2, kernel, scale):
    """A basis of scale (Z omega1 + Z omega2 + Z t), t the half-period
    (m omega1 + n omega2)/2 of the class kernel = (m, n)."""
    if kernel == (0, 1):    # t = omega2/2
        w1, w2 = omega1, omega2 / 2
    elif kernel == (1, 0):  # t = omega1/2
        w1, w2 = omega1 / 2, omega2
    else:                   # t = (omega1 + omega2)/2
        w1, w2 = omega1, (omega1 + omega2) / 2
    return scale * w1, scale * w2


def quotient_periods(models, precision_bits: int = DEFAULT_PRECISION_BITS):
    """(bases, js): the reduced period basis (`PeriodPair`) and the j-value
    (`ComplexApprox`) of each of the six elliptic quotients, keyed by label,
    from `models`, their built models keyed by label.  E_is_t, E_is_it and
    E_s_it get their bases by the real AGM of `_rational_legendre_basis` and
    their j from the theta constants at their tau; E_t, E_st and E_s get
    theirs from those lattices through the 2-isogenies of `_PARTNERS`, with no
    AGM, and their j from the same theta constants by the duplication
    formulas, with no q-series."""
    _check_precision(precision_bits)
    bases, js = {}, {}
    with mpmath.workprec(precision_bits + _GUARD_BITS):
        for partner, label, scale in _PARTNERS:
            omega1, omega2, order = _rational_legendre_basis(models[partner])
            kernel = _kernel_class(order)
            w1, w2, tau, reduced_kernel = _reduce_basis(omega1, omega2, precision_bits, kernel)
            bases[partner] = pair = _period_pair(w1, w2, tau, precision_bits)
            bases[label] = _normal_pair(*_partner_basis(omega1, omega2, kernel, scale),
                                        precision_bits)
            # the printed tau, so the partner's j is analytic_j(pair.tau) exactly
            thetas = _theta_squares(pair.tau.to_mpc(), precision_bits)
            js[partner] = _cap(_j_from_eighths(*map(_fourth, thetas[:3])), precision_bits)
            js[label] = _cap(_j_from_eighths(*_isogenous_eighths(reduced_kernel, *thetas)),
                             precision_bits)
    return bases, js


# ---------------------------------------------------------------------------
# The modular j-value
# ---------------------------------------------------------------------------


def _square(z):
    return z * z


def _fourth(z):
    return _square(_square(z))


def _theta_squares(tau, precision_bits: int):
    """(A, B, C, odd, even): the squares A = t2^2, B = t3^2 and C = t4^2 of
    the theta constants at the nome q = e^(i pi tau) of a tau in the
    fundamental domain, and the sums odd and even of q^(n^2) over the odd and
    the even n >= 1, terms added until they drop below 2^(-precision_bits - 16).
    q = (q^(1/4))^4 is multiplied out: mpmath 1.3 raises an mpc z to the power
    n through exp(n log z) once n times the mantissa size passes 10000 bits.
    Runs at the caller's precision."""
    q4 = mpmath.expjpi(tau / 4)  # q^(1/4)
    if not q4.imag:  # Re tau = 0: the series is real, and runs on integers
        return _real_theta_squares(q4.real, precision_bits)
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
    return t2 * t2, t3 * t3, t4 * t4, odd, even


def _real_theta_squares(q4, precision_bits: int):
    """`_theta_squares` for a real nome 0 < q < 1, given q^(1/4), on integers
    at the scale 2^wp: wp is the working precision plus _FIXED_GUARD_BITS
    plus the bits that q sits below 1, so that odd, about q, keeps its
    relative precision for the (1, 0) duplication formula far up the axis.
    With q < 2^-L, q^n is held only to the absolute precision
    2^-(wp - L (n^2 - n)) that its products with q^(n^2 - n) and q^(n^2) need,
    so the operands shrink term by term.  Same stopping rule as the complex
    series."""
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
    from the `_theta_squares` output at the tau of the reduced basis
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


def analytic_j(tau, precision_bits: int = DEFAULT_PRECISION_BITS) -> ComplexApprox:
    """j(tau) = 32 (t2^8 + t3^8 + t4^8)^3 / (t2 t3 t4)^8 from the theta
    constants (`_theta_squares`) at tau, first moved to the fundamental domain.
    The powers are multiplied out: mpmath 1.3 raises an mpc z to the power n
    through exp(n log z) once n times the mantissa size passes 10000 bits."""
    _check_precision(precision_bits)
    with mpmath.workprec(precision_bits + _GUARD_BITS):
        tau = _as_mpc(tau)
        if tau.imag <= 0:
            raise DomainError("tau must lie in the upper half-plane")
        tau = _reduce_basis(mpmath.mpc(1), tau, precision_bits)[2]
        return _cap(_j_from_eighths(*map(_fourth, _theta_squares(tau, precision_bits)[:3])),
                    precision_bits)


# ---------------------------------------------------------------------------
# Prym period matrix, polarisation type (1, 2)
# ---------------------------------------------------------------------------

def _cell(e: ComplexApprox) -> dict:
    return {"re": mpmath.nstr(e.real, 17), "im": mpmath.nstr(e.imag, 17)}


@dataclass(frozen=True)
class PrymPeriodMatrix:
    """2x4 matrix ((z1, z1, 1, 0), (z1, z1 + z2, 0, 2)) with the alternating
    form ((0, D), (-D, 0)), D = diag(1, 2)."""

    entries: tuple  # 2x4 of ComplexApprox
    polarization = (1, 2)

    @property
    def precision_bits(self) -> int:
        return max(e.precision_bits for row in self.entries for e in row)

    def to_mpc_rows(self):
        return [[e.to_mpc() for e in row] for row in self.entries]

    def to_report(self) -> dict:
        return {
            "entries": [[_cell(e) for e in row] for row in self.entries],
            "polarization": list(self.polarization),
            "precision_bits": self.precision_bits,
        }


def _upper_pair(z1, z2):
    """(w1, w2, bits): z1 and z2 as mpc values at bits, the larger of their
    labelled precisions; DomainError unless both lie in the upper half-plane."""
    bits = max(getattr(z, "precision_bits", DEFAULT_PRECISION_BITS) for z in (z1, z2))
    with mpmath.workprec(bits + _GUARD_BITS):
        w1, w2 = _as_mpc(z1), _as_mpc(z2)
    for name, w in (("z1", w1), ("z2", w2)):
        if w.imag <= 0:
            raise DomainError(f"{name} must lie in the upper half-plane")
    return w1, w2, bits


def prym_period_matrix(z1, z2) -> PrymPeriodMatrix:
    w1, w2, bits = _upper_pair(z1, z2)
    with mpmath.workprec(bits + _GUARD_BITS):
        rows = (
            (w1, w1, mpmath.mpc(1), mpmath.mpc(0)),
            (w1, w1 + w2, mpmath.mpc(0), mpmath.mpc(2)),
        )
        return PrymPeriodMatrix(tuple(tuple(_cap(e, bits) for e in row) for row in rows))


@dataclass(frozen=True)
class ReductionTrace:
    """Intermediate matrices of the product-to-Prym reduction.

    Starting from the (2,2)-polarised product matrix with columns
    (f1, f2, e1, e2), the basis change f2' = f1 + f2, e1' = e1 - e2
    (symplectic for the (2,2) form), the quotient by e1'/2, and a final
    coordinate shear produce the (1,2) Prym matrix.
    """

    product_matrix: tuple
    basis_changed: tuple
    after_quotient: tuple     # the documented intermediate matrix
    final: tuple
    basis_change: tuple       # 4x4 integer matrix on lattice columns
    basis_change_symplectic: bool


# columns: f1' = f1, f2' = f1 + f2, e1' = e1 - e2, e2' = e2
_BASIS_CHANGE = ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, -1, 1))
# the (2,2) polarisation on the columns (f1, f2, e1, e2)
_SYM_FORM_22 = ((0, 0, 2, 0), (0, 0, 0, 2), (-2, 0, 0, 0), (0, -2, 0, 0))
# S^T J S == J for S = _BASIS_CHANGE and J = _SYM_FORM_22
_BASIS_CHANGE_SYMPLECTIC = all(
    sum(_BASIS_CHANGE[k][i] * _SYM_FORM_22[k][l] * _BASIS_CHANGE[l][j]
        for k in range(4) for l in range(4)) == _SYM_FORM_22[i][j]
    for i in range(4) for j in range(4))


def product_to_prym_reduction(z1, z2) -> ReductionTrace:
    w1, w2, bits = _upper_pair(z1, z2)
    with mpmath.workprec(bits + _GUARD_BITS):
        zero = mpmath.mpc(0)
        two = mpmath.mpc(2)

        product = ((w1, zero, two, zero), (zero, w2, zero, two))

        S = _BASIS_CHANGE
        basis_changed = tuple(
            tuple(sum(product[r][k] * S[k][c] for k in range(4)) for c in range(4))
            for r in range(2)
        )
        # quotient by e1'/2 halves the third lattice column
        after_quotient = tuple(
            (row[0], row[1], row[2] / 2, row[3]) for row in basis_changed
        )
        # coordinate shear ((1, 0), (1, 1)) on C^2
        final = (
            after_quotient[0],
            tuple(after_quotient[0][c] + after_quotient[1][c] for c in range(4)),
        )

        def freeze(rows):
            return tuple(tuple(_cap(e, bits) for e in row) for row in rows)

        return ReductionTrace(
            product_matrix=freeze(product),
            basis_changed=freeze(basis_changed),
            after_quotient=freeze(after_quotient),
            final=freeze(final),
            basis_change=S,
            basis_change_symplectic=_BASIS_CHANGE_SYMPLECTIC,
        )


def riemann_check(matrix: PrymPeriodMatrix):
    """(residual_symmetry, min_eigenvalue) of the two Riemann relations for
    the alternating form E = ((0, D), (-D, 0)), D = diag(1, 2):
    Pi E^-1 Pi^T = 0 and i Pi E^-1 Pi^* > 0.  For Pi = (A | B) and a second
    matrix Pi' = (A' | B'), Pi E^-1 Pi'^T = B D^-1 A'^T - A D^-1 B'^T."""
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


def periods_report(params, precision_bits: int = DEFAULT_PRECISION_BITS) -> dict:
    """Periods of the six elliptic quotients (`quotient_periods`), the Prym
    matrix spanned by E_t and E_st, Riemann residuals, and the deltas of the
    analytic j of `quotient_periods` from the exact j for all six.  Each delta
    must be at most j_delta_tolerance * max(1, |j|), or PrecisionError is
    raised."""
    _check_precision(precision_bits)
    tol = mpmath.ldexp(1, 4 - precision_bits // 4)
    models = {label: curve_equation(label, params) for label in ELLIPTIC_LABELS}
    bases, js = quotient_periods(models, precision_bits)
    deltas, pairs = {}, {}
    for label in ELLIPTIC_LABELS:
        pair = bases[label]
        pairs[label.value] = {"omega1": _cell(pair.omega1), "omega2": _cell(pair.omega2),
                              "tau": _cell(pair.tau)}
        exact = j_invariant(models[label])
        with mpmath.workprec(precision_bits):
            exact_c = mpmath.mpf(exact.numerator) / exact.denominator
            delta = mpmath.fabs(js[label].to_mpc() - exact_c)
            bound = tol * max(1, mpmath.fabs(exact_c))
            if delta > bound:
                raise PrecisionError(f"analytic j of {label.value} misses the exact j by "
                                     f"{mpmath.nstr(delta, 3)}, over {mpmath.nstr(bound, 3)}")
            deltas[label.value] = float(delta)

    matrix = prym_period_matrix(bases[CurveLabel.E_t].tau, bases[CurveLabel.E_st].tau)
    residual, min_eig = riemann_check(matrix)
    return {
        "precision_bits": precision_bits,
        "periods": {k: pairs[k] for k in sorted(pairs)},
        "analytic_vs_exact_j": {k: v for k, v in sorted(deltas.items())},
        "j_delta_tolerance": float(tol),
        "prym_period_matrix": matrix.to_report(),
        "riemann_residual_symmetry": float(residual),
        "riemann_min_eigenvalue": float(min_eig),
        "reduction_symplectic": _BASIS_CHANGE_SYMPLECTIC,
    }
