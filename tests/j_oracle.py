"""A reference j-invariant for genus-1 models, kept apart from the library's
integer formula: the classical binary-quartic invariants for quartics, and
the monic depressed cubic for cubics, each turned into a short Weierstrass
curve y^2 = x^3 + p x + q in Fractions."""

from kleinprym.errors import ArgumentError, InternalInvariantError


def binary_quartic_invariants(f):
    """The classical I, J of a x^4 + b x^3 + c x^2 + d x + e."""
    if f.degree != 4:
        raise ArgumentError("binary quartic invariants need degree 4")
    e, d, c, b, a = (f[i] for i in range(5))
    I = 12 * a * e - 3 * b * d + c * c
    J = (72 * a * c * e + 9 * b * c * d - 27 * a * d * d
         - 27 * e * b * b - 2 * c ** 3)
    return I, J


def short_weierstrass_coefficients(f):
    """(p, q) of a short Weierstrass curve y^2 = x^3 + p x + q with the same
    j-invariant as the genus-1 model y^2 = f(x)."""
    if f.degree not in (3, 4):
        raise ArgumentError("j-invariant is defined for genus-1 models only")
    if f.degree == 4:
        I, J = binary_quartic_invariants(f)
        return -27 * I, -27 * J
    # cubic: make it monic via (x, y) -> (c3 x, c3 y), then depress
    c3 = f.leading
    c2, c1, c0 = f[2], f[1] * c3, f[0] * c3 * c3
    p = c1 - c2 * c2 / 3
    q = c0 - c1 * c2 / 3 + 2 * c2 ** 3 / 27
    return p, q


def j_of_short_weierstrass(p, q):
    delta = 4 * p ** 3 + 27 * q * q
    if delta == 0:
        raise InternalInvariantError("singular Weierstrass model")
    return 1728 * 4 * p ** 3 / delta


def oracle_j(f):
    return j_of_short_weierstrass(*short_weierstrass_coefficients(f))
