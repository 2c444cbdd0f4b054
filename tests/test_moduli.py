from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from projline_oracle import tuples_equivalent
from kleinprym.errors import DegenerateConfiguration, PhiUndefined
from kleinprym.family import check_domain
from kleinprym.moduli import (
    PhiFiber,
    phi_consistency_report,
    phi_params,
    phi_tuple_raw,
    printed_matrix,
    prym_fiber_invariants,
)
from kleinprym.projline import CONVENTIONS, normalize_tuple, tuple_of_params

domain_params = st.tuples(
    st.fractions(min_value=-15, max_value=15, max_denominator=6),
    st.fractions(min_value=-15, max_value=15, max_denominator=6),
).filter(lambda ab: ab[0] != ab[1] and ab[0] ** 2 != 4 and ab[1] ** 2 != 4
         ).map(lambda ab: check_domain(*ab))


def test_phi_anchors():
    assert phi_params(check_domain(0, 1)) == check_domain(-6, -10)
    assert phi_params(check_domain(1, 3)) == check_domain(-1, -3)


def test_phi_undefined_on_antidiagonal():
    with pytest.raises(PhiUndefined):
        phi_params(check_domain(1, -1))


@given(domain_params)
def test_phi_squared_is_pair_swap(params):
    assume(params.phi_defined)
    assert phi_params(phi_params(params)) == params.swapped()


@given(domain_params)
def test_phi_image_stays_in_domain(params):
    assume(params.phi_defined)
    image = phi_params(params)  # check_domain inside would raise otherwise
    assert image.a != image.b


@given(domain_params)
def test_fiber_invariants_are_phi_invariant(params):
    assume(params.phi_defined)
    assert prym_fiber_invariants(params) == prym_fiber_invariants(phi_params(params))


def test_fiber_invariant_anchor():
    inv = prym_fiber_invariants(check_domain(0, 1))
    assert inv.j_pair_bottom == tuple(sorted((Fraction(1728), Fraction(21952, 9))))
    assert Fraction(287496) in inv.j_pair_top


def test_raw_tuple_form_normalizes_back_to_input():
    params = check_domain(1, 3)
    raw = phi_tuple_raw(params)
    assert normalize_tuple(raw, "ordered")[0].params == params


def test_raw_tuple_form_degenerates_on_the_antidiagonal():
    # a + b = 0 puts -2-a-b on -2, which MarkedTuple refuses as a repeated point
    with pytest.raises(DegenerateConfiguration, match="repeated points"):
        phi_tuple_raw(check_domain(Fraction(7, 5), Fraction(-7, 5)))


def test_printed_matrix_undoes_raw_tuple_form():
    params = check_domain(1, 3)
    raw = phi_tuple_raw(params)
    moved = raw.apply(printed_matrix(params))
    # the matrix carries the raw image back to the canonical frame at (1,3)
    assert normalize_tuple(moved, "ordered")[0].params == params


def test_consistency_report_flags_exactly_two_issues():
    report = phi_consistency_report(PhiFiber(check_domain(1, 3)))
    assert report["raw_tuple_normalized_ordered"] == [["1", "3"]]
    assert report["phi_params"] == ["-1", "-3"]
    assert report["printed_matrix_returns_input"]
    assert not report["printed_matrix_matches_parameter_form"]
    assert report["fiber_invariants_match"]
    assert report["inconsistency_flags"] == [
        "raw-tuple-form-normalizes-to-input",
        "printed-matrix-disagrees-with-parameter-form",
    ]


@given(domain_params)
def test_report_verdicts_are_the_canonical_tuples_equivalence(params):
    assume(params.phi_defined)
    fiber = PhiFiber(params)
    verdicts = phi_consistency_report(fiber)["equivalence_verdicts"]
    t, phi_t = tuple_of_params(params), tuple_of_params(fiber.image)
    assert verdicts == {name: tuples_equivalent(t, phi_t, name) for name in CONVENTIONS}


def test_verdicts_at_a_point_whose_image_is_its_negation():
    # phi(1, 3) = (-1, -3), the other tail assignment of the same tuple
    verdicts = phi_consistency_report(PhiFiber(check_domain(1, 3)))["equivalence_verdicts"]
    assert verdicts == {"ordered": False, "pair-unordered": False, "all-unordered": True}


@pytest.mark.parametrize("name", sorted(CONVENTIONS))
def test_requested_normalization_extends_the_ordered_one(name):
    report = phi_consistency_report(PhiFiber(check_domain(Fraction(7, 5), Fraction(-13, 4))), name)
    ordered = report["raw_tuple_normalized_ordered"]
    requested = report["raw_tuple_normalized_requested"]
    assert len(ordered) == 1 and requested[:1] == ordered
    assert len(requested) == (2 if name == "all-unordered" else 1)


def test_consistency_report_requires_phi_defined():
    with pytest.raises(PhiUndefined):
        PhiFiber(check_domain(1, -1))
