"""The deck involution phi on the parameter space, its fibre invariants, and
diagnostics comparing alternative presentations of phi.

The operative definition is the parameter form
    phi(a, b) = ((2b - 2a - 8)/(a + b), (2a - 2b - 8)/(a + b)),
which is an involution on unordered pairs and preserves both unordered
j-invariant pairs attached to a fibre.  The raw 5-tuple form
([-b:1], [-a:1]; [1:0], [-2-a-b:1], [-2:1]) and the 2x2 matrix printed beside
it are written down in the consistency report, and both give the closed form
    n = -phi(a, b) = ((2a - 2b + 8)/(a + b), (2b - 2a + 8)/(a + b)).
The matrix M = ((4, 8 + 2a + 2b), (0, -a - b)) sends the raw triple
(inf, -2 - a - b, -2) to the frame (inf, 2, -2), so it is the raw tuple's
frame map, and it sends the raw pair (-b, -a) to -n; the swapped tail
reaches the frame by -M, which gives phi(a, b).  So the raw tuple form
returns the input exactly on the line a + b = 4, and the matrix never
reproduces the parameter form, which would need phi(a, b) = (0, 0).

A `PhiFiber` is its point (a, b) alone; the image and the fibre invariants
at both points follow from it and are computed once.  The report prints the
raw tuple as text and reads both alternatives off n.  Its equivalence verdicts
(`canonical_tuples_equivalent`) need no normalisation either: a canonical
tuple `tuple_of_params(p)` normalises by construction to p, and to (-a, -b)
as well when the triple tail is unordered.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import PhiUndefined, require
from .family import CurveLabel, FamilyParams, curve_equation, j_invariant
from .projline import CONVENTIONS, _require_convention, canonical_tuples_equivalent


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
    """A parameter point at which phi is defined, with its image under phi
    and the fibre invariants at both, each computed once for every report
    that reads it.  Construction computes the image, so `phi_params` refuses
    any other params, and a + b = 0 with PhiUndefined."""

    params: FamilyParams

    def __post_init__(self):
        self.image  # computed now, so that no fibre exists where phi is undefined

    @functools.cached_property
    def image(self) -> FamilyParams:
        return phi_params(self.params)

    @functools.cached_property
    def invariants(self) -> PrymFiberInvariants:
        return prym_fiber_invariants(self.params)

    @functools.cached_property
    def image_invariants(self) -> PrymFiberInvariants:
        return prym_fiber_invariants(self.image)


def _printed(params: FamilyParams) -> list:
    return [str(params.a), str(params.b)]


def phi_consistency_report(fiber: PhiFiber, convention: str = "pair-unordered") -> dict:
    """Structured comparison of the three presentations of phi, read off the
    closed form n = -phi(a, b) of the module docstring.

    The raw tuple normalises to n, and under "all-unordered" to phi(a, b) as
    well; the printed matrix sends it to the frame at n.  Flags exactly the
    two documented inconsistencies: n is the input (on a + b = 4), and n is
    not phi(a, b).  ArgumentError for a convention outside CONVENTIONS.
    """
    require(PhiFiber, "the fibre", fiber)
    _require_convention(convention)
    params, image = fiber.params, fiber.image
    negated = FamilyParams(-image.a, -image.b)
    requested = [negated, image] if convention == "all-unordered" else [negated]
    returns_input = negated == params
    matches_image = negated == image

    flags = []
    if returns_input:
        flags.append("raw-tuple-form-normalizes-to-input")
    if not matches_image:
        flags.append("printed-matrix-disagrees-with-parameter-form")

    verdicts = {name: canonical_tuples_equivalent(params, image, name) for name in CONVENTIONS}
    return {
        "params": _printed(params),
        "phi_params": _printed(image),
        # ProjectivePoint.to_string prints each affine point as its Fraction
        "raw_tuple_image": f"{-params.b},{-params.a};inf,{-2 - params.a - params.b},-2!0",
        "raw_tuple_normalized_ordered": [_printed(negated)],
        "raw_tuple_normalized_requested": [_printed(p) for p in requested],
        "printed_matrix_image": _printed(negated),
        "printed_matrix_returns_input": returns_input,
        "printed_matrix_matches_parameter_form": matches_image,
        "fiber_invariants_match": fiber.invariants == fiber.image_invariants,
        "equivalence_verdicts": verdicts,
        "inconsistency_flags": flags,
    }


def moduli_report(fiber: PhiFiber) -> dict:
    require(PhiFiber, "the fibre", fiber)
    return {
        "params": _printed(fiber.params),
        "phi_params": _printed(fiber.image),
        "j_pair_top": [str(j) for j in fiber.invariants.j_pair_top],
        "j_pair_bottom": [str(j) for j in fiber.invariants.j_pair_bottom],
    }
