from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, strategies as st

from moduli_oracle import params_of_canonical, printed_matrix
from projline_oracle import tuples_equivalent
from kleinprym.errors import DegenerateConfiguration, PhiUndefined
from kleinprym.family import check_domain
from kleinprym.moduli import (
    PhiFiber,
    phi_consistency_report,
    phi_params,
    phi_tuple_raw,
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


def test_raw_tuple_form_normalizes_to_minus_phi_off_the_line():
    params = check_domain(Fraction(7, 5), Fraction(-13, 4))
    assert phi_params(params) == check_domain(Fraction(346, 37), Fraction(-26, 37))
    normal = normalize_tuple(phi_tuple_raw(params), "ordered")[0].params
    assert normal == check_domain(Fraction(-346, 37), Fraction(26, 37))


def test_the_closed_form_holds_over_q_a_b():
    a, b = sympy.symbols("a b")
    s = a + b
    phi = ((2 * b - 2 * a - 8) / s, (2 * a - 2 * b - 8) / s)
    n = (-phi[0], -phi[1])
    m = sympy.Matrix([[4, 8 + 2 * a + 2 * b], [0, -a - b]])

    def image(matrix, x):  # of the affine point x; None for infinity
        top, bottom = matrix * (sympy.Matrix([1, 0]) if x is None else sympy.Matrix([x, 1]))
        return None if sympy.simplify(bottom) == 0 else sympy.simplify(top / bottom)

    # M sends the raw triple (inf, -2 - a - b, -2) to the frame (inf, 2, -2) ...
    assert [image(m, x) for x in (None, -2 - s, -2)] == [None, 2, -2]
    # ... and is the frame map of projline's cross-ratio, p -> 2 - 4 [p, t1][t2, d]
    # / ([p, d][t2, t1]) with d = inf, which at affine p reads 2 - 4 (p - t1)/(t2 - t1)
    p = sympy.Symbol("p")
    t1, t2 = -2 - s, -2
    assert sympy.simplify(image(m, p) - (2 - 4 * (p - t1) / (t2 - t1))) == 0
    # the pair (-b, -a) goes to -n, so the ordered normal form is n
    assert [sympy.simplify(-image(m, x) - v) for x, v in zip((-b, -a), n)] == [0, 0]
    # x -> -M(x) sends the swapped tail (-2, -2 - a - b) to (2, -2), giving phi(a, b)
    minus_m = sympy.diag(-1, 1) * m
    assert [image(minus_m, x) for x in (None, -2, -2 - s)] == [None, 2, -2]
    assert [sympy.simplify(-image(minus_m, x) - v) for x, v in zip((-b, -a), phi)] == [0, 0]
    # n = (a, b) on the whole line a + b = 4 and, where a != b, nowhere else
    returns = [sympy.numer(sympy.together(v - w)) for v, w in zip(n, (a, b))]
    assert [sympy.expand(v.subs(b, 4 - a)) for v in returns] == [0, 0]
    for sol in sympy.solve(returns, [a, b], dict=True):
        assert sympy.expand((s - 4).subs(sol)) == 0 or sympy.expand((a - b).subs(sol)) == 0
    # and n = phi nowhere, since that needs phi(a, b) = (0, 0)
    matches = [sympy.numer(sympy.together(v - w)) for v, w in zip(n, phi)]
    assert sympy.solve(matches, [a, b], dict=True) == []


@example(check_domain(1, 3))
@example(check_domain(5, -1))
@example(check_domain(Fraction(7, 5), Fraction(-13, 4)))
@given(domain_params)
def test_the_report_reads_the_computed_presentations(params):
    assume(params.phi_defined)
    fiber = PhiFiber(params)
    raw = phi_tuple_raw(params)
    matrix_image = params_of_canonical(raw.apply(printed_matrix(params)))
    ordered = normalize_tuple(raw, "ordered")[0].params

    def fmt(p):
        return [str(p.a), str(p.b)]

    for name in CONVENTIONS:
        report = phi_consistency_report(fiber, name)
        assert report["raw_tuple_image"] == raw.to_string()
        assert report["raw_tuple_normalized_ordered"] == [fmt(ordered)]
        assert report["raw_tuple_normalized_requested"] == [
            fmt(r.params) for r in normalize_tuple(raw, name)]
        assert report["printed_matrix_image"] == fmt(matrix_image)
        assert report["printed_matrix_returns_input"] == (matrix_image == params)
        assert report["printed_matrix_matches_parameter_form"] == (matrix_image == fiber.image)
        assert report["inconsistency_flags"] == [flag for flag, raised in [
            ("raw-tuple-form-normalizes-to-input", ordered == params),
            ("printed-matrix-disagrees-with-parameter-form", matrix_image != fiber.image),
        ] if raised]


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
