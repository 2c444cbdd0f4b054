"""The printed 2x2 matrix presentation of phi and the parameters of a tuple in
the canonical frame, kept apart from the library, whose consistency report
writes the matrix's image down in closed form (`moduli.phi_consistency_report`)."""

from kleinprym.errors import ArgumentError, PhiUndefined
from kleinprym.family import FamilyParams
from kleinprym.projline import CANONICAL_TRIPLE, MobiusMap


def printed_matrix(params) -> MobiusMap:
    """The alternative 2x2 matrix presentation ((4, 8+2a+2b), (0, -a-b))."""
    a, b = params.a, params.b
    if a + b == 0:
        raise PhiUndefined("phi undefined: a + b = 0")
    return MobiusMap(4, 8 + 2 * a + 2 * b, 0, -a - b)


def params_of_canonical(t) -> FamilyParams:
    """(a, b) of a tuple ([-a:1], [-b:1]; CANONICAL_TRIPLE) already in the frame."""
    if t.triple != CANONICAL_TRIPLE or t.distinguished_index != 0:
        raise ArgumentError("tuple is not in the canonical frame")
    if any(p.is_infinity for p in t.pair):
        raise ArgumentError("tuple is not in the canonical frame")
    return FamilyParams(-t.pair[0].affine_value(), -t.pair[1].affine_value())
