"""The raw 5-tuple and printed 2x2 matrix presentations of phi and the
parameters of a tuple in the canonical frame, kept apart from the library,
whose consistency report writes the raw tuple and the matrix's image down in
closed form (`moduli.phi_consistency_report`)."""

from kleinprym.errors import ArgumentError, PhiUndefined
from kleinprym.family import FamilyParams
from kleinprym.projline import CANONICAL_TRIPLE, MarkedTuple, MobiusMap, ProjectivePoint


def phi_tuple_raw(params) -> MarkedTuple:
    """The literal un-normalised image tuple ([-b:1], [-a:1]; [1:0], [-2-a-b:1],
    [-2:1]); DegenerateConfiguration when a + b = 0 repeats -2."""
    a, b = params.a, params.b
    return MarkedTuple(
        (ProjectivePoint(-b), ProjectivePoint(-a)),
        (ProjectivePoint.infinity(), ProjectivePoint(-2 - a - b), ProjectivePoint(-2)),
        0,
    )


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
