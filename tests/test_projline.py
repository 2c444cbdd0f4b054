from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kleinprym.errors import ArgumentError, DegenerateConfiguration
from kleinprym.family import check_domain
from kleinprym.projline import (
    CANONICAL_TRIPLE,
    FULLY_ORDERED,
    MarkedTuple,
    MarkingConvention,
    MobiusMap,
    ProjectivePoint,
    apply_mobius,
    mobius_through,
    normalize_tuple,
    tuple_of_params,
    tuples_equivalent,
)

points = st.one_of(
    st.fractions(min_value=-20, max_value=20, max_denominator=10).map(
        ProjectivePoint.affine),
    st.just(ProjectivePoint.infinity()),
)

maps = st.tuples(*[st.integers(-7, 7)] * 4).filter(
    lambda e: e[0] * e[3] - e[1] * e[2] != 0).map(lambda e: MobiusMap(*e))


def test_point_canonical_representation():
    assert ProjectivePoint(4, 2) == ProjectivePoint.affine(2)
    assert ProjectivePoint(3, 0) == ProjectivePoint.infinity()
    with pytest.raises(ArgumentError):
        ProjectivePoint(0, 0)


def test_point_string_round_trip():
    for text in ("inf", "5", "-3/7"):
        assert ProjectivePoint.from_string(text).to_string() == text


def test_mobius_canonical_scaling():
    m = MobiusMap(Fraction(1, 2), 0, 0, Fraction(3, 2))
    assert m.canonical().entries() == (1, 0, 0, 3)
    assert MobiusMap(-2, 0, 0, -6) == m


@given(maps, points)
def test_inverse_undoes_apply(m, p):
    assert apply_mobius(m.inverse(), apply_mobius(m, p)) == p


@given(maps, maps, points)
def test_compose_is_function_composition(m1, m2, p):
    assert apply_mobius(m1.compose(m2), p) == apply_mobius(m1, apply_mobius(m2, p))


@given(st.lists(points, min_size=6, max_size=6, unique=True))
def test_mobius_through_hits_targets(pts):
    src, dst = tuple(pts[:3]), tuple(pts[3:])
    m = mobius_through(src, dst)
    assert tuple(apply_mobius(m, p) for p in src) == dst


def test_marked_tuple_string_round_trip():
    text = "5,-1/2;inf,2,-2!0"
    t = MarkedTuple.from_string(text)
    assert t.to_string() == text
    assert t.distinguished.is_infinity
    with pytest.raises(ArgumentError):
        MarkedTuple.from_string("1,2;3,4!0")


def test_marked_tuple_rejects_repeats():
    p = ProjectivePoint.affine
    with pytest.raises(DegenerateConfiguration):
        MarkedTuple((p(1), p(1)), (p(2), p(3), p(4)), 0)


def test_canonical_tuple_normalizes_to_itself():
    params = check_domain(Fraction(1, 3), 5)
    results = normalize_tuple(tuple_of_params(params), FULLY_ORDERED)
    assert len(results) == 1
    assert results[0].params == params
    assert results[0].transform == MobiusMap.identity()


def test_unordered_tail_gives_negated_parameters():
    params = check_domain(3, 7)
    conv = MarkingConvention(pair_ordered=False, triple_tail_ordered=False)
    results = normalize_tuple(tuple_of_params(params), conv)
    got = {(r.params.a, r.params.b) for r in results}
    assert got == {(3, 7), (-3, -7)}


@given(maps)
def test_push_then_normalize_round_trips(m):
    params = check_domain(Fraction(-2, 5), 4)
    pushed = tuple_of_params(params).apply(m)
    assert normalize_tuple(pushed, FULLY_ORDERED)[0].params == params
    assert tuples_equivalent(pushed, tuple_of_params(params), FULLY_ORDERED)


def test_pair_order_matters_only_when_ordered():
    t1 = tuple_of_params(check_domain(1, 5))
    t2 = tuple_of_params(check_domain(5, 1))
    assert not tuples_equivalent(t1, t2, FULLY_ORDERED)
    assert tuples_equivalent(t1, t2, MarkingConvention(pair_ordered=False))


def test_canonical_triple_is_the_expected_frame():
    assert CANONICAL_TRIPLE[0].is_infinity
    assert CANONICAL_TRIPLE[1] == ProjectivePoint.affine(2)
    assert CANONICAL_TRIPLE[2] == ProjectivePoint.affine(-2)
