"""The family's models and quotient-map identities as the library computed
them before both ran on integer numerators, kept apart from the library as
oracles: each label's factors from a table of `Fraction` coefficients, and
each identity as two `Polynomial` products, quotient_rhs(U) formed by
`substitute_rational_map`; and a check by a gcd that a right-hand side from
outside the family is squarefree, so that it is a model."""

import functools
import operator

from kleinprym.algebra import Polynomial, is_squarefree, substitute_rational_map
from kleinprym.errors import ArgumentError, InternalInvariantError
from kleinprym.family import CurveLabel


def model_from_rhs(rhs: Polynomial) -> Polynomial:
    """rhs, which is the model y^2 = rhs(x), after a gcd check of
    squarefreeness."""
    if rhs.degree < 1:
        raise ArgumentError("constant right-hand side")
    if not is_squarefree(rhs):
        raise InternalInvariantError("right-hand side is not squarefree")
    return rhs


def oracle_factors(label, params) -> tuple:
    """The factors of the label's rhs: the factor of a, the same factor of b
    and the constant factors."""
    a, b = params.a, params.b
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
    return tuple(map(Polynomial, table[label]))


def oracle_rhs(label, params) -> Polynomial:
    return functools.reduce(operator.mul, oracle_factors(label, params))


def oracle_identity_sides(q, ctilde_rhs, quotient_rhs):
    """(W^2 ctilde_rhs U_den^k, U_den^k quotient_rhs(U) W_den^2) as rational
    polynomials, k = deg quotient_rhs, with W = W_num/W_den factored."""
    num, k = substitute_rational_map(quotient_rhs, q.U_num, q.U_den)
    u_den_k = functools.reduce(operator.mul, [q.U_den] * k, Polynomial.one())
    return q.W_num * q.W_num * ctilde_rhs * u_den_k, num * q.W_den * q.W_den


def oracle_identity(q, ctilde_rhs, quotient_rhs) -> bool:
    lhs, rhs = oracle_identity_sides(q, ctilde_rhs, quotient_rhs)
    return lhs == rhs
