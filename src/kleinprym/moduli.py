"""The deck involution phi on the parameter space, its fibre invariants, and
diagnostics comparing alternative presentations of phi.

The operative definition is the parameter form
    phi(a, b) = ((2b - 2a - 8)/(a + b), (2a - 2b - 8)/(a + b)),
which is an involution on unordered pairs and preserves both unordered
j-invariant pairs attached to a fibre.  The raw 5-tuple form and the 2x2
matrix that allegedly connects the two survive only inside the consistency
report: under order-preserving normalisation the raw tuple form is the
identity on parameters, and the matrix undoes it rather than producing the
parameter form.

The report normalises the raw tuple once.  Its equivalence verdicts need no
normalisation: a canonical tuple `tuple_of_params(p)` normalises by
construction to p, and to (-a, -b) as well when the triple tail is unordered.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ArgumentError, PhiUndefined, require
from .family import CurveLabel, FamilyParams, curve_equation, j_invariant
from .projline import (
    CANONICAL_TRIPLE,
    CONVENTIONS,
    MarkedTuple,
    MarkingConvention,
    MobiusMap,
    ProjectivePoint,
    canonical_normal_forms,
    normal_forms_match,
    normalize_tuple,
    tuple_of_params,
)


def phi_params(params: FamilyParams) -> FamilyParams:
    """The deck involution on parameters; defined iff a + b != 0.

    The image always lies back in the smooth domain, and applying phi twice
    returns the swapped pair (b, a).
    """
    require(FamilyParams, "params", params)
    a, b = params.a, params.b
    s = a + b
    if s == 0:
        raise PhiUndefined("phi undefined: a + b = 0")
    return FamilyParams((2 * b - 2 * a - 8) / s, (2 * a - 2 * b - 8) / s)


def _params_of_canonical(t: MarkedTuple) -> FamilyParams:
    if t.triple != CANONICAL_TRIPLE or t.distinguished_index != 0:
        raise ArgumentError("tuple is not in the canonical frame")
    if any(p.is_infinity for p in t.pair):
        raise ArgumentError("tuple is not in the canonical frame")
    return FamilyParams(-t.pair[0].affine_value(), -t.pair[1].affine_value())


def phi_tuple_raw(t: MarkedTuple) -> MarkedTuple:
    """The literal un-normalised image tuple ([-b:1], [-a:1]; [1:0], [-2-a-b:1],
    [-2:1]); DegenerateConfiguration when a + b = 0 repeats -2."""
    params = _params_of_canonical(t)
    a, b = params.a, params.b
    return MarkedTuple(
        (ProjectivePoint(-b), ProjectivePoint(-a)),
        (
            ProjectivePoint.infinity(),
            ProjectivePoint(-2 - a - b),
            ProjectivePoint(-2),
        ),
        0,
    )


def printed_matrix(params: FamilyParams) -> MobiusMap:
    """The alternative 2x2 matrix presentation ((4, 8+2a+2b), (0, -a-b))."""
    a, b = params.a, params.b
    if a + b == 0:
        raise PhiUndefined("phi undefined: a + b = 0")
    return MobiusMap(4, 8 + 2 * a + 2 * b, 0, -a - b)


@dataclass(frozen=True)
class PrymFiberInvariants:
    """The two unordered j-invariant pairs attached to a parameter point:
    {j(E_t), j(E_st)} and {j(E_is_t), j(E_is_it)}, each stored sorted."""

    j_pair_top: tuple
    j_pair_bottom: tuple


def prym_fiber_invariants(params: FamilyParams) -> PrymFiberInvariants:
    """The fibre invariants at params; `curve_equation` checks its type."""

    def j(label):
        return j_invariant(curve_equation(label, params))

    top = tuple(sorted((j(CurveLabel.E_t), j(CurveLabel.E_st))))
    bottom = tuple(sorted((j(CurveLabel.E_is_t), j(CurveLabel.E_is_it))))
    return PrymFiberInvariants(top, bottom)


@dataclass(frozen=True)
class PhiFiber:
    """A parameter point, its image under phi, and the fibre invariants at
    both, computed once for every report that reads them."""

    params: FamilyParams
    image: FamilyParams
    invariants: PrymFiberInvariants
    image_invariants: PrymFiberInvariants


def phi_fiber(params: FamilyParams) -> PhiFiber:
    """phi at params and the fibre invariants at both points; PhiUndefined
    for a + b = 0; `phi_params` checks the type of params."""
    image = phi_params(params)
    return PhiFiber(params, image, prym_fiber_invariants(params), prym_fiber_invariants(image))


def phi_consistency_report(fiber: PhiFiber,
                           conv: MarkingConvention = MarkingConvention()) -> dict:
    """Structured comparison of the three presentations of phi.

    Flags exactly the two documented inconsistencies: the raw tuple form
    normalises back to the input parameters, and the printed matrix undoes
    the raw form instead of reproducing the parameter form.
    """
    require(PhiFiber, "the fibre", fiber)
    require(MarkingConvention, "the convention", conv)
    params, image = fiber.params, fiber.image
    t = tuple_of_params(params)
    raw = phi_tuple_raw(t)

    raw_normalized_conv = [r.params for r in normalize_tuple(raw, conv)]
    # the tail as given comes first, and the pair's ordering does not enter
    # normalisation, so that entry is the fully ordered normalisation
    raw_normalized = raw_normalized_conv[:1]

    matrix = printed_matrix(params)
    matrix_image = _params_of_canonical(raw.apply(matrix))

    eq1_fixes_parameters = raw_normalized[0] == params
    matrix_matches_eq2 = matrix_image == image
    matrix_returns_input = matrix_image == params

    flags = []
    if eq1_fixes_parameters:
        flags.append("raw-tuple-form-normalizes-to-input")
    if not matrix_matches_eq2:
        flags.append("printed-matrix-disagrees-with-parameter-form")

    verdicts = {name: normal_forms_match(canonical_normal_forms(params, named),
                                         canonical_normal_forms(image, named), named)
                for name, named in CONVENTIONS.items()}

    def fmt_params(p):
        return [str(p.a), str(p.b)]

    return {
        "params": fmt_params(params),
        "phi_params": fmt_params(image),
        "raw_tuple_image": raw.to_string(),
        "raw_tuple_normalized_ordered": [fmt_params(p) for p in raw_normalized],
        "raw_tuple_normalized_requested": [fmt_params(p) for p in raw_normalized_conv],
        "printed_matrix_image": fmt_params(matrix_image),
        "printed_matrix_returns_input": matrix_returns_input,
        "printed_matrix_matches_parameter_form": matrix_matches_eq2,
        "fiber_invariants_match": fiber.invariants == fiber.image_invariants,
        "equivalence_verdicts": verdicts,
        "inconsistency_flags": flags,
    }


def moduli_report(fiber: PhiFiber) -> dict:
    require(PhiFiber, "the fibre", fiber)
    params, image, inv = fiber.params, fiber.image, fiber.invariants
    return {
        "params": [str(params.a), str(params.b)],
        "phi_params": [str(image.a), str(image.b)],
        "j_pair_top": [str(j) for j in inv.j_pair_top],
        "j_pair_bottom": [str(j) for j in inv.j_pair_bottom],
    }
