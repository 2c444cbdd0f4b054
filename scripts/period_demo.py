#!/usr/bin/env python3
"""Walk through the period computation at one parameter point: the periods of
the two complementary elliptic quotients, E_t's basis from its partner
E_is_t, the relative error of E_is_t's tau at 1024 bits against 4096 bits,
the 2x4 Prym period matrix, the product-to-Prym reduction trace, and the
Riemann-relation residuals.

Usage: python3 scripts/period_demo.py [--a A --b B] [--bits N]
"""

import argparse
import sys

import mpmath

from kleinprym.algebra import parse_rational
from kleinprym.family import CurveLabel, check_domain, curve_equation, j_invariant
from kleinprym.periods import (
    analytic_j,
    elliptic_periods_agm,
    product_to_prym_reduction,
    prym_period_matrix,
    quotient_periods,
    riemann_check,
)


def show(label, matrix):
    print(label)
    for row in matrix:
        cells = ", ".join(mpmath.nstr(e.to_mpc(), 8) for e in row)
        print(f"  [{cells}]")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--a", default="0")
    parser.add_argument("--b", default="1")
    parser.add_argument("--bits", type=int, default=192)
    args = parser.parse_args()

    params = check_domain(parse_rational(args.a), parse_rational(args.b))
    print(f"parameters (a, b) = ({params.a}, {params.b}), {args.bits} bits\n")

    bases, _ = quotient_periods(params, args.bits)
    for label in (CurveLabel.E_t, CurveLabel.E_st):
        tau = bases[label].tau
        exact = j_invariant(curve_equation(label, params))
        approx = analytic_j(tau, args.bits)
        print(f"{label.value}: tau = {mpmath.nstr(tau.to_mpc(), 10)}")
        print(f"  exact j    = {exact}")
        print(f"  analytic j = {mpmath.nstr(approx.to_mpc(), 12)}\n")

    # E_t's lattice is L + Z t for E_is_t's lattice L and the half-period t of
    # its 2-torsion point P(-2) - P(inf)
    for how, label in (("E_is_t (AGM)   ", CurveLabel.E_is_t), ("E_t from E_is_t", CurveLabel.E_t)):
        pair = bases[label]
        cells = ", ".join(f"{name} = {mpmath.nstr(getattr(pair, name).to_mpc(), 15)}"
                          for name in ("omega1", "omega2"))
        print(f"{how}: {cells}")
    print()

    # E_is_t's tau at 1024 bits against 4096 bits: the Legendre data are
    # taken exactly from -a, -b, -2, so no bits are lost near a = b or a = +-2
    got, want = (elliptic_periods_agm(CurveLabel.E_is_t, params, bits).tau.to_mpc()
                 for bits in (1024, 4096))
    with mpmath.workprec(4096):
        error = mpmath.fabs(got - want) / mpmath.fabs(want)
        bits = mpmath.nstr(mpmath.log(error, 2), 5) if error else "-inf"
    print(f"E_is_t tau at 1024 bits meets 4096 bits to 2^{bits} relative\n")

    z1, z2 = bases[CurveLabel.E_t].tau, bases[CurveLabel.E_st].tau
    trace = product_to_prym_reduction(z1, z2)
    show("product matrix (f1, f2, e1, e2):", trace.product_matrix)
    show("after basis change f2'=f1+f2, e1'=e1-e2:", trace.basis_changed)
    show("after quotient by e1'/2:", trace.after_quotient)
    show("final Prym period matrix:", trace.final)

    matrix = prym_period_matrix(z1, z2)
    residual, min_eig = riemann_check(matrix)
    print(f"\nRiemann symmetry residual: {mpmath.nstr(residual, 5)}")
    print(f"smallest eigenvalue of the Hermitian form: {mpmath.nstr(min_eig, 8)}")
    return 0 if min_eig > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
