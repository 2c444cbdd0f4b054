from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from projline_oracle import tuples_equivalent
from kleinprym.errors import ArgumentError, DegenerateConfiguration
from kleinprym.family import check_domain
from kleinprym.projline import (
    CANONICAL_TRIPLE,
    CONVENTIONS,
    MarkedTuple,
    MobiusMap,
    ProjectivePoint,
    _to_frame,
    apply_mobius,
    canonical_tuples_equivalent,
    normalize_tuple,
    tuple_of_params,
)

points = st.one_of(
    st.fractions(min_value=-20, max_value=20, max_denominator=10).map(
        ProjectivePoint),
    st.just(ProjectivePoint.infinity()),
)

maps = st.tuples(*[st.integers(-7, 7)] * 4).filter(
    lambda e: e[0] * e[3] - e[1] * e[2] != 0).map(lambda e: MobiusMap(*e))


def test_point_canonical_representation():
    assert ProjectivePoint(4, 2) == ProjectivePoint(2)
    assert ProjectivePoint(3, 0) == ProjectivePoint.infinity()
    with pytest.raises(ArgumentError):
        ProjectivePoint(0, 0)


def test_point_string_round_trip():
    for text in ("inf", "5", "-3/7", "-1/2", "-22/7", "0", "12/5"):
        assert ProjectivePoint.from_string(text).to_string() == text
    assert ProjectivePoint.from_string(" -6/14 ").to_string() == "-3/7"
    assert ProjectivePoint.from_string("oo").to_string() == "inf"


def test_point_is_held_as_a_primitive_integer_pair():
    p = ProjectivePoint(Fraction(-6, 5), Fraction(14, 15))
    assert (p.x, p.y) == (-9, 7) and type(p.x) is type(p.y) is int
    assert repr(p) == "[-9:7]"
    assert repr(ProjectivePoint(-5, 0)) == repr(ProjectivePoint.infinity()) == "[1:0]"
    assert repr(ProjectivePoint(3)) == "[3:1]"
    assert p.affine_value() == Fraction(-9, 7)


rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)
nonzero = rationals.filter(bool)


@given(rationals, rationals, nonzero)
def test_scaled_coordinates_give_one_point(x, y, k):
    assume(x or y)
    p, scaled = ProjectivePoint(x, y), ProjectivePoint(k * x, k * y)
    assert scaled == p and hash(scaled) == hash(p)
    assert {p: "p"}[scaled] == "p"


def fraction_image(entries, p: ProjectivePoint) -> ProjectivePoint:
    """The map x -> (m11 x + m12)/(m21 x + m22) on `Fraction`s, infinity
    handled: the oracle of the integer `apply_mobius`."""
    m11, m12, m21, m22 = (Fraction(e) for e in entries)
    if p.is_infinity:
        return ProjectivePoint.infinity() if m21 == 0 else ProjectivePoint(m11 / m21)
    x = p.affine_value()
    if m21 * x + m22 == 0:
        return ProjectivePoint.infinity()
    return ProjectivePoint((m11 * x + m12) / (m21 * x + m22))


rational_entries = st.tuples(*[rationals] * 4).filter(
    lambda e: e[0] * e[3] != e[1] * e[2])


@given(rational_entries, points)
def test_apply_mobius_matches_the_fraction_map(entries, p):
    assert apply_mobius(MobiusMap(*entries), p) == fraction_image(entries, p)


def test_integer_points_make_no_fraction(fraction_count):
    p = ProjectivePoint
    d, t1, t2 = p(Fraction(1, 3)), p(-7), p.infinity()
    pts = [p(Fraction(-5, 2)), p(4), p.infinity(), p(0)]
    fraction_count[0] = 0
    m = _to_frame(d, t1, t2)
    images = [apply_mobius(m, q) for q in pts + [d, t1, t2]]
    assert fraction_count[0] == 0
    assert images[-3:] == list(CANONICAL_TRIPLE)
    Fraction(1, 2)
    assert fraction_count[0] == 1  # the counter does see a Fraction


# The general three-point solver, kept here as the oracle for the closed-form
# map to the frame that `normalize_tuple` uses.


def compose(m1: MobiusMap, m2: MobiusMap) -> MobiusMap:
    """m1 after m2 (the matrix product m1 m2)."""
    a11, a12, a21, a22 = m1.entries()
    b11, b12, b21, b22 = m2.entries()
    return MobiusMap(a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
                     a21 * b11 + a22 * b21, a21 * b12 + a22 * b22)


def inverse(m: MobiusMap) -> MobiusMap:
    m11, m12, m21, m22 = m.entries()
    return MobiusMap(m22, -m12, -m21, m11)


def frame_matrix(p1, p2, p3) -> MobiusMap:
    """The map sending (p1, p2, p3) to ([0:1], [1:1], [1:0])."""
    a = p2.x * p3.y - p3.x * p2.y
    b = p2.x * p1.y - p1.x * p2.y
    return MobiusMap(p1.y * a, -p1.x * a, p3.y * b, -p3.x * b)


def mobius_through(src, dst) -> MobiusMap:
    """The unique Moebius map with src_i -> dst_i (i = 1..3)."""
    return compose(inverse(frame_matrix(*dst)), frame_matrix(*src))


def test_mobius_canonical_scaling():
    m = MobiusMap(Fraction(1, 2), 0, 0, Fraction(3, 2))
    assert m.entries() == (1, 0, 0, 3)
    assert MobiusMap(-2, 0, 0, -6) == m


def test_scaled_rational_entries_give_one_map():
    m = MobiusMap(Fraction(1, 3), Fraction(-2, 3), 1, Fraction(5, 7))
    scaled = MobiusMap(Fraction(7, 2), -7, Fraction(21, 2), Fraction(15, 2))
    assert m.entries() == scaled.entries() == (7, -14, 21, 15)
    assert hash(m) == hash(scaled)
    assert {m: "m"}[scaled] == "m"
    assert len({m, scaled, MobiusMap(1, 0, 0, 1)}) == 2


def test_negative_leading_entry_flips_the_sign():
    assert MobiusMap(-3, 6, 1, 0).entries() == (3, -6, -1, 0)
    assert MobiusMap(0, Fraction(-1, 2), 2, 5).entries() == (0, 1, -4, -10)


@pytest.mark.parametrize("entries", [
    (Fraction(1, 2), 1, Fraction(3, 2), 3),
    (0, Fraction(2, 3), 0, 5),
    (0, 0, 0, 0),
])
def test_singular_matrix_is_refused(entries):
    with pytest.raises(DegenerateConfiguration):
        MobiusMap(*entries)


@given(maps, points)
def test_inverse_undoes_apply(m, p):
    assert apply_mobius(inverse(m), apply_mobius(m, p)) == p


@given(maps, maps, points)
def test_compose_is_function_composition(m1, m2, p):
    assert apply_mobius(compose(m1, m2), p) == apply_mobius(m1, apply_mobius(m2, p))


@given(st.lists(points, min_size=6, max_size=6, unique=True))
def test_mobius_through_hits_targets(pts):
    src, dst = tuple(pts[:3]), tuple(pts[3:])
    m = mobius_through(src, dst)
    assert tuple(apply_mobius(m, p) for p in src) == dst


@given(st.lists(points, min_size=5, max_size=5, unique=True), st.integers(0, 2))
def test_normalize_transform_is_the_three_point_map(pts, k):
    t = MarkedTuple(tuple(pts[:2]), tuple(pts[2:]), k)
    t1, t2 = t.triple_tail
    results = normalize_tuple(t, "all-unordered")
    assert len(results) == 2
    for r, src in zip(results, [(t.distinguished, t1, t2), (t.distinguished, t2, t1)]):
        assert r.transform == mobius_through(src, CANONICAL_TRIPLE)
        assert tuple(apply_mobius(r.transform, p) for p in src) == CANONICAL_TRIPLE


def test_marked_tuple_string_round_trip():
    text = "5,-1/2;inf,2,-2!0"
    t = MarkedTuple.from_string(text)
    assert t.to_string() == text
    assert t.distinguished.is_infinity
    with pytest.raises(ArgumentError):
        MarkedTuple.from_string("1,2;3,4!0")


def test_marked_tuple_rejects_repeats():
    p = ProjectivePoint
    with pytest.raises(DegenerateConfiguration):
        MarkedTuple((p(1), p(1)), (p(2), p(3), p(4)), 0)


def test_canonical_tuple_normalizes_to_itself():
    params = check_domain(Fraction(1, 3), 5)
    results = normalize_tuple(tuple_of_params(params), "ordered")
    assert len(results) == 1
    assert results[0].params == params
    assert results[0].transform == MobiusMap(1, 0, 0, 1)


def test_unordered_tail_gives_negated_parameters():
    params = check_domain(3, 7)
    results = normalize_tuple(tuple_of_params(params), "all-unordered")
    got = {(r.params.a, r.params.b) for r in results}
    assert got == {(3, 7), (-3, -7)}


@given(maps)
def test_push_then_normalize_round_trips(m):
    params = check_domain(Fraction(-2, 5), 4)
    pushed = tuple_of_params(params).apply(m)
    assert normalize_tuple(pushed, "ordered")[0].params == params
    assert tuples_equivalent(pushed, tuple_of_params(params), "ordered")


def test_pair_order_matters_only_when_ordered():
    t1 = tuple_of_params(check_domain(1, 5))
    t2 = tuple_of_params(check_domain(5, 1))
    assert not tuples_equivalent(t1, t2, "ordered")
    assert tuples_equivalent(t1, t2, "pair-unordered")


def test_canonical_triple_is_the_expected_frame():
    assert CANONICAL_TRIPLE[0].is_infinity
    assert CANONICAL_TRIPLE[1] == ProjectivePoint(2)
    assert CANONICAL_TRIPLE[2] == ProjectivePoint(-2)


domain_params = st.tuples(
    st.fractions(min_value=-15, max_value=15, max_denominator=6),
    st.fractions(min_value=-15, max_value=15, max_denominator=6),
).filter(lambda ab: ab[0] != ab[1] and ab[0] ** 2 != 4 and ab[1] ** 2 != 4
         ).map(lambda ab: check_domain(*ab))


@given(domain_params, domain_params, st.sampled_from(["other", "same", "swapped",
                                                      "negated", "negated-swapped"]))
def test_canonical_normal_forms_decide_equivalence(p, other, relation):
    # the second point is often related to the first, so both verdicts occur
    q = {"other": other, "same": p, "swapped": p.swapped(),
         "negated": check_domain(-p.a, -p.b),
         "negated-swapped": check_domain(-p.b, -p.a)}[relation]
    # the normal forms that canonical_tuples_equivalent writes down
    forms = {"ordered": [p], "pair-unordered": [p],
             "all-unordered": [p, check_domain(-p.a, -p.b)]}
    for conv in CONVENTIONS:
        assert forms[conv] == \
            [r.params for r in normalize_tuple(tuple_of_params(p), conv)]
        assert canonical_tuples_equivalent(p, q, conv) == \
            tuples_equivalent(tuple_of_params(p), tuple_of_params(q), conv)
