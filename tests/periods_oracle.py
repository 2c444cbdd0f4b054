"""The general-model period path, kept apart from the library as an oracle for
its closed forms: the periods of any genus-1 model y^2 = f(x), deg f in
{3, 4}, from the roots of f at the working precision, the optimal complex AGM
and a step-by-step reduction of the basis to the library's normal form.

* A quartic is converted to a cubic with the same period lattice by
  x = r + 1/u, w = y u^2 for its last root r (dx/y = -du/w).
* The cubic c (u - e1)(u - e2)(u - e3) is sent to s (s - 1)(s - lambda) by
  u = e1 + (e2 - e1) s, which scales the lattice by (c (e2 - e1))^(-1/2); the
  normal form has the basis (2 K(lambda), 2 i K(1 - lambda)), K(m) =
  pi / (2 M(1, sqrt(1 - m))) taken from the complement 1 - m.
* f is given as rational factors whose product it is: a family model's
  factors of degree <= 2 (`family_oracle.oracle_factors`) are each solved in
  closed form, and mpmath.polyroots runs only for a bare f given as the one
  factor (f,).  The ordering (e1, e2, e3) is scored at
  the working precision so that lambda stays away from the cuts (-inf, 0]
  and [1, +inf), where the basis is the analytic continuation of the
  real-root case.
* `_reduce_basis` then puts the basis in the normal form of
  `kleinprym.periods`, carrying a half-period class (m, n) through each step.

Near a discriminant locus this path rounds close roots before it subtracts
them, so it answers there with fewer bits than its label, or refuses.
"""

import functools
import operator

import mpmath

from kleinprym.errors import ArgumentError, PrecisionError
from kleinprym.periods import _GUARD_BITS, PeriodPair, _cap, _check_precision, optimal_agm


def _complete_K(m_c, precision_bits: int) -> mpmath.mpc:
    """K(m) = pi / (2 M(1, sqrt(m_c))) for the complement m_c = 1 - m,
    principal square root.  Taking m_c, not m, keeps every bit of a tiny
    m_c, which 1 - (1 - m_c) would round away."""
    with mpmath.workprec(precision_bits + _GUARD_BITS):
        return mpmath.pi / (2 * optimal_agm(1, mpmath.sqrt(mpmath.mpc(m_c)), precision_bits))


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


def _branch_points(factors, precision_bits: int):
    return [r for f in factors for r in _factor_roots(f, precision_bits)]


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
    m, n in {0, 1}; each step carries it to the new basis exactly: the shift
    w2 -= s w1 sends m to m + s n, the swap (w2, -w1) and the unit i send
    (m, n) to (n, m), -1 changes nothing, and the unit e^(i pi/3) and its
    inverse send (m, n) to (n, m + n) and (m + n, m)."""
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
                tau = w2 / w1
            elif up[0].real >= w1.real - slack:
                (w1, w2), (m, n) = up, up_kernel
                tau = w2 / w1
        return w1, w2, tau, (m, n)
    raise PrecisionError("fundamental-domain reduction did not terminate")


def _legendre_basis(rhs, factors, precision_bits: int):
    """(omega1, omega2): a first basis of the period lattice of y^2 = rhs(x),
    deg rhs in {3, 4}, from the optimal AGM on the roots of `factors`.  Runs
    at the caller's precision."""
    roots = _branch_points(factors, precision_bits)
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


def _normal_pair(omega1, omega2, precision_bits: int) -> PeriodPair:
    return PeriodPair(*(_cap(z, precision_bits)
                        for z in _reduce_basis(omega1, omega2, precision_bits)[:3]))


def oracle_periods(factors, precision_bits: int) -> PeriodPair:
    """The period lattice basis of y^2 = f(x), f the product of `factors`, in
    normal form (`_reduce_basis`), from a first basis computed by the optimal
    AGM.  The basis depends on the lattice alone, so it is the same at every
    precision and for every root ordering, also at tau = i and
    tau = e^(2 pi i/3), whose extra units the normal form accounts for."""
    rhs = functools.reduce(operator.mul, factors)
    if rhs.degree not in (3, 4):
        raise ArgumentError("periods are computed for genus-1 models only")
    _check_precision(precision_bits)
    with mpmath.workprec(precision_bits + _GUARD_BITS):
        return _normal_pair(*_legendre_basis(rhs, factors, precision_bits), precision_bits)
