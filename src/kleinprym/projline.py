"""The projective line over the rationals: points, Moebius maps, and the
marked 5-tuple calculus (a pair, a triple, a distinguished triple point).

The canonical frame for the distinguished triple is ([1:0], [2:1], [-2:1]);
every equivalence decision compares normal forms in that frame.  A tuple is
normalised by the one cross-ratio map that sends its marked triple there; a
canonical tuple `tuple_of_params` is already there, so its normal forms are
written down (`canonical_normal_forms`).  Points ([x:y] as (y, x)) and Moebius
maps are held as the primitive integer vectors of `_primitive`, so the calculus
runs on integers; `Fraction`s appear only in parsing and in `affine_value`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ArgumentError, DegenerateConfiguration, require
from .algebra import ratio_text, rational
from .family import FamilyParams


def _primitive(values) -> list:
    """The numbers `values` (read by `rational`) scaled to the primitive integer
    vector whose first nonzero entry is positive; an all-zero vector stays zero."""
    values = [v if type(v) in (int, Fraction) else rational(v) for v in values]
    den = math.lcm(*[v.denominator for v in values])
    ints = [v.numerator * (den // v.denominator) for v in values]
    g = math.gcd(*ints) or 1
    if next((v for v in ints if v), 0) < 0:
        g = -g
    return [v // g for v in ints]


class ProjectivePoint:
    """A point [x:y] of P^1(Q), stored as the primitive integer pair with
    y > 0, or [1:0] for infinity; equal points have equal pairs."""

    __slots__ = ("x", "y")

    def __init__(self, x, y=1):
        self.y, self.x = _primitive((y, x))
        if not self.y and not self.x:
            raise ArgumentError("[0:0] is not a projective point")

    @classmethod
    def infinity(cls) -> "ProjectivePoint":
        return cls(1, 0)

    @property
    def is_infinity(self) -> bool:
        return self.y == 0

    def affine_value(self) -> Fraction:
        if self.is_infinity:
            raise ArgumentError("the point at infinity has no affine value")
        return Fraction(self.x, self.y)

    def __eq__(self, other):
        if isinstance(other, ProjectivePoint):
            return self.x == other.x and self.y == other.y
        return NotImplemented

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        return f"[{self.x}:{self.y}]"

    def to_string(self) -> str:
        if self.is_infinity:
            return "inf"
        return ratio_text(self.x, self.y)

    @classmethod
    def from_string(cls, text: str) -> "ProjectivePoint":
        if not isinstance(text, str):
            raise ArgumentError(f"expected a point as text, not {text!r}")
        text = text.strip()
        if text in ("inf", "oo"):
            return cls.infinity()
        return cls(text)


class MobiusMap:
    """A Moebius map [x:y] -> [m11 x + m12 y : m21 x + m22 y] of P^1(Q), held
    as its `_primitive` matrix, so `==` and `hash` compare entries directly."""

    __slots__ = ("m11", "m12", "m21", "m22")

    def __init__(self, m11, m12, m21, m22):
        self.m11, self.m12, self.m21, self.m22 = _primitive((m11, m12, m21, m22))
        if self.m11 * self.m22 == self.m12 * self.m21:
            raise DegenerateConfiguration("Moebius matrix is singular")

    def entries(self) -> tuple:
        return (self.m11, self.m12, self.m21, self.m22)

    def __eq__(self, other):
        if isinstance(other, MobiusMap):
            return self.entries() == other.entries()
        return NotImplemented

    def __hash__(self):
        return hash(self.entries())

    def __repr__(self):
        return f"MobiusMap({', '.join(str(e) for e in self.entries())})"


def apply_mobius(m: MobiusMap, p: ProjectivePoint) -> ProjectivePoint:
    return ProjectivePoint(m.m11 * p.x + m.m12 * p.y, m.m21 * p.x + m.m22 * p.y)


def _require_distinct(points, context: str):
    if len(set(points)) != len(points):
        raise DegenerateConfiguration(f"repeated points in {context}")


def _bracket(p: ProjectivePoint, q: ProjectivePoint) -> int:
    """[p, q] = p.x q.y - p.y q.x, zero exactly when p = q."""
    return p.x * q.y - p.y * q.x


def _to_frame(d: ProjectivePoint, t1: ProjectivePoint, t2: ProjectivePoint) -> MobiusMap:
    """The map sending (d, t1, t2) to CANONICAL_TRIPLE = (inf, 2, -2): the
    cross-ratio p -> 2 - 4 [p, t1][t2, d] / ([p, d][t2, t1])."""
    u = _bracket(t2, t1)
    v = _bracket(t2, d)
    return MobiusMap(2 * u * d.y - 4 * v * t1.y, 4 * v * t1.x - 2 * u * d.x,
                     u * d.y, -u * d.x)


# ---------------------------------------------------------------------------
# Marked tuples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarkingConvention:
    """Which parts of the marking carry an ordering.

    pair_ordered: the two non-triple points are individually labelled.
    triple_tail_ordered: the two non-distinguished triple points are labelled.
    """

    pair_ordered: bool = False
    triple_tail_ordered: bool = True


FULLY_ORDERED = MarkingConvention(pair_ordered=True, triple_tail_ordered=True)
# the named conventions, in the order the CLI lists them
CONVENTIONS = {
    "ordered": FULLY_ORDERED,
    "pair-unordered": MarkingConvention(pair_ordered=False, triple_tail_ordered=True),
    "all-unordered": MarkingConvention(pair_ordered=False, triple_tail_ordered=False),
}


@dataclass(frozen=True)
class MarkedTuple:
    """Five pairwise-distinct points: a pair, a triple, and a distinguished
    index into the triple."""

    pair: tuple
    triple: tuple
    distinguished_index: int = 0

    def __post_init__(self):
        require(tuple, "the pair and the triple", self.pair, self.triple)
        require(ProjectivePoint, "a marked point", *self.pair, *self.triple)
        if len(self.pair) != 2 or len(self.triple) != 3:
            raise ArgumentError("marked tuple needs a pair and a triple")
        if type(self.distinguished_index) is not int or not 0 <= self.distinguished_index <= 2:
            raise ArgumentError("distinguished index out of range")
        _require_distinct(self.pair + self.triple, "marked tuple")

    @property
    def distinguished(self) -> ProjectivePoint:
        return self.triple[self.distinguished_index]

    @property
    def triple_tail(self):
        return tuple(p for i, p in enumerate(self.triple) if i != self.distinguished_index)

    def apply(self, m: MobiusMap) -> "MarkedTuple":
        return MarkedTuple(
            tuple(apply_mobius(m, p) for p in self.pair),
            tuple(apply_mobius(m, p) for p in self.triple),
            self.distinguished_index,
        )

    def to_string(self) -> str:
        pair = ",".join(p.to_string() for p in self.pair)
        triple = ",".join(p.to_string() for p in self.triple)
        return f"{pair};{triple}!{self.distinguished_index}"

    @classmethod
    def from_string(cls, text: str) -> "MarkedTuple":
        if not isinstance(text, str):
            raise ArgumentError(f"cannot parse marked tuple {text!r}")
        try:
            body, k = text.rsplit("!", 1)
            pair_part, triple_part = body.split(";")
            pair = tuple(ProjectivePoint.from_string(t) for t in pair_part.split(","))
            triple = tuple(ProjectivePoint.from_string(t) for t in triple_part.split(","))
            return cls(pair, triple, int(k))
        except (ValueError, IndexError) as exc:
            raise ArgumentError(f"cannot parse marked tuple {text!r}") from exc


CANONICAL_TRIPLE = (
    ProjectivePoint.infinity(),
    ProjectivePoint(2),
    ProjectivePoint(-2),
)


def tuple_of_params(params) -> MarkedTuple:
    """The canonical marked tuple ([-a:1], [-b:1]; [1:0], [2:1], [-2:1])."""
    return MarkedTuple(
        (ProjectivePoint(-params.a), ProjectivePoint(-params.b)),
        CANONICAL_TRIPLE,
        0,
    )


@dataclass(frozen=True)
class NormalizationResult:
    params: FamilyParams
    transform: MobiusMap


def normalize_tuple(t: MarkedTuple, conv: MarkingConvention = MarkingConvention()):
    """Normalise the triple to the canonical frame and read off the parameters.

    Returns a list of NormalizationResult: one entry when the triple tail is
    ordered, otherwise both tail assignments (parameters related by
    (a, b) -> (-a, -b)), the tail as given first.  The pair's ordering does
    not enter: the convention's `pair_ordered` matters only when results
    are compared.
    """
    tail = t.triple_tail
    assignments = [tail] if conv.triple_tail_ordered else [tail, (tail[1], tail[0])]
    results = []
    for tl in assignments:
        m = _to_frame(t.distinguished, *tl)
        # the pair points differ from the distinguished one, so both images are affine
        a, b = (-apply_mobius(m, p).affine_value() for p in t.pair)
        results.append(NormalizationResult(FamilyParams(a, b), m))
    return results


def canonical_normal_forms(params, conv: MarkingConvention) -> list:
    """The parameters that `normalize_tuple` reads off `tuple_of_params(params)`,
    found without normalising: the frame map of a canonical tuple is the
    identity, and the swapped tail (inf, -2, 2) goes to the frame by p -> -p.
    (-a, -b) lies in the domain whenever (a, b) does."""
    if conv.triple_tail_ordered:
        return [params]
    return [params, FamilyParams(-params.a, -params.b)]


def _params_match(p1, p2, conv: MarkingConvention) -> bool:
    if (p1.a, p1.b) == (p2.a, p2.b):
        return True
    if not conv.pair_ordered and (p1.a, p1.b) == (p2.b, p2.a):
        return True
    return False


def normal_forms_match(n1, n2, conv: MarkingConvention) -> bool:
    """True iff a parameter pair of n1 matches one of n2 under the convention."""
    return any(_params_match(p1, p2, conv) for p1 in n1 for p2 in n2)
