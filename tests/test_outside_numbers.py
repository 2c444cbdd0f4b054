"""Every entry point that takes numbers from outside reads them through
`algebra.rational`: each call returns a value or raises a KleinPrymError.
The calls that take the library's own values (labels, parameters, models,
points, subgroups, curves, matrices) refuse any other type the same way,
and so does every name that `kleinprym` exports and every public function
of its library modules."""

import ast
import dataclasses
import importlib
import inspect
import math
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

import kleinprym
from kleinprym.algebra import (Polynomial, brief, gcd, is_squarefree, parse_integer,
                               parse_rational, ratio_text, rational, resultant,
                               substitute_rational_map)
from kleinprym.errors import (ArgumentError, DegreeError, DomainError, KleinPrymError,
                              PointError)
from kleinprym.family import (CurveLabel, FamilyParams, InvolutionLabel, QuotientMapData,
                              check_domain, curve_equation, curve_report, fixed_point_count,
                              j_invariant, quartic_invariants, quotient_map,
                              verify_quotient_identity)
from kleinprym.isogeny import (KernelPoint, WeierstrassCurve, dual_nonisomorphism_check,
                               j_weierstrass, velu_quotient)
from kleinprym.moduli import (PhiFiber, moduli_report, phi_consistency_report, phi_params,
                              phi_tuple_raw, prym_fiber_invariants)
from kleinprym.periods import (ComplexApprox, PeriodPair, PrymPeriodMatrix, analytic_j,
                               elliptic_periods_agm, optimal_agm, periods_report,
                               product_to_prym_reduction, prym_period_matrix, quotient_periods,
                               riemann_check)
from kleinprym.projline import (MarkedTuple, MobiusMap, ProjectivePoint, apply_mobius,
                                canonical_tuples_equivalent, normalize_tuple, tuple_of_params)
from kleinprym.torsion import (
    QuotientSubgroup,
    TorsionPoint,
    TorsionSubgroup,
    duality_chain,
    example_surj_report,
    factor_intersection,
    full_group,
    intersection,
    is_isotropic,
    ker_phi_H,
    perp,
    project_to_quotient,
    quotient_image,
    span,
)

E = WeierstrassCurve.make(1, 0)  # y^2 = x^3 + x, with (0, 0) of order 2
P = TorsionPoint((1, 0, 0, 0), 2)
K = span([P])
Q = ker_phi_H(K)
PARAMS = check_domain(1, 3)
FIBER = PhiFiber(PARAMS)
PAIR = (ProjectivePoint(0), ProjectivePoint(1))
TRIPLE = (ProjectivePoint.infinity(), ProjectivePoint(2), ProjectivePoint(-2))
ONE = ComplexApprox(mpmath.mpf(1), mpmath.mpf(0), 128)
TUPLE = tuple_of_params(PARAMS)
X = Polynomial([0, 1])
MAP = quotient_map(CurveLabel.E_t)

ENTRY_POINTS = {
    "check_domain": check_domain,
    "FamilyParams": FamilyParams,
    "WeierstrassCurve.make": WeierstrassCurve.make,
    "WeierstrassCurve.from_string": lambda u, v: WeierstrassCurve.from_string(u),
    "WeierstrassCurve.from_string(u,v)": lambda u, v: WeierstrassCurve.from_string(f"{u},{v}"),
    "KernelPoint.on_curve": lambda u, v: KernelPoint.on_curve(E, u, v),
    "KernelPoint.from_string": lambda u, v: KernelPoint.from_string(E, u),
    "KernelPoint.from_string(u,v)": lambda u, v: KernelPoint.from_string(E, f"{u},{v}"),
    "TorsionPoint.make": lambda u, v: TorsionPoint.make((u, v, 0, 0), 6),
    "TorsionPoint.make(level)": lambda u, v: TorsionPoint.make((Fraction(1, 2), 0, 0, 0), u),
    "TorsionPoint.make(coords)": lambda u, v: TorsionPoint.make(u, 2),
    "ProjectivePoint": ProjectivePoint,
    "ProjectivePoint.from_string": lambda u, v: ProjectivePoint.from_string(u),
    "MarkedTuple.from_string": lambda u, v: MarkedTuple.from_string(u),
    "MobiusMap": lambda u, v: MobiusMap(u, 1, v, 3),
    "span": lambda u, v: span([u, v]),
    "span(p, u)": lambda u, v: span([P, u]),
    "span(gens)": lambda u, v: span(u),
    "perp": lambda u, v: perp(u),
    "ker_phi_H": lambda u, v: ker_phi_H(u),
    "intersection": lambda u, v: intersection(K, u),
    "quotient_image": lambda u, v: quotient_image(u, v),
    "project_to_quotient": lambda u, v: project_to_quotient(u, [P]),
    "factor_intersection": lambda u, v: factor_intersection(K, u, v),
    "factor_intersection(factor)": lambda u, v: factor_intersection(K, Q, u),
    "TorsionSubgroup.reduce": lambda u, v: K.reduce(u),
    "TorsionSubgroup": TorsionSubgroup,
    "TorsionSubgroup(level)": lambda u, v: TorsionSubgroup(u, K.echelon),
    "QuotientSubgroup": QuotientSubgroup,
    "QuotientSubgroup(K, u)": lambda u, v: QuotientSubgroup(K, u),
    # the other names that kleinprym exports
    "KleinPrymError": KleinPrymError,
    "ComplexApprox": lambda u, v: ComplexApprox(u, v, 128),
    "Polynomial": lambda u, v: Polynomial(u),
    "Polynomial([u, v])": lambda u, v: Polynomial([u, v]),
    "MarkedTuple": MarkedTuple,
    "MarkedTuple(points)": lambda u, v: MarkedTuple((PAIR[0], u), (TRIPLE[0], TRIPLE[1], v)),
    "MarkedTuple(index)": lambda u, v: MarkedTuple(PAIR, TRIPLE, u),
    "QuotientMapData": lambda u, v: QuotientMapData(u, v, u, v),
    "CurveLabel": lambda u, v: CurveLabel(u),
    "InvolutionLabel": lambda u, v: InvolutionLabel(u),
    "phi_params": lambda u, v: phi_params(u),
    "prym_fiber_invariants": lambda u, v: prym_fiber_invariants(u),
    "TorsionPoint": TorsionPoint,
    "duality_chain": lambda u, v: duality_chain(u),
    "example_surj_report": lambda u, v: example_surj_report(),
    "KernelPoint": lambda u, v: KernelPoint(u, v, 2),
    "KernelPoint(order)": lambda u, v: KernelPoint(Fraction(0), Fraction(0), u),
    "WeierstrassCurve": WeierstrassCurve,
    "velu_quotient": velu_quotient,
    "velu_quotient(E, u)": lambda u, v: velu_quotient(E, u),
    "PeriodPair": lambda u, v: PeriodPair(u, v, u),
    "PrymPeriodMatrix": lambda u, v: PrymPeriodMatrix(u),
    "elliptic_periods_agm": elliptic_periods_agm,
    "elliptic_periods_agm(label, u, v)": lambda u, v: elliptic_periods_agm(CurveLabel.E_t, u, v),
    "elliptic_periods_agm(bits)":
        lambda u, v: elliptic_periods_agm(CurveLabel.E_t, PARAMS, u),
    # the calls that take labels, parameters, models, fibres and matrices
    "fixed_point_count": lambda u, v: fixed_point_count(u, PARAMS),
    "fixed_point_count(params)": lambda u, v: fixed_point_count(InvolutionLabel.sigma, u),
    "quotient_map": lambda u, v: quotient_map(u),
    "curve_equation": lambda u, v: curve_equation(u, PARAMS),
    "curve_equation(params)": lambda u, v: curve_equation(CurveLabel.E_t, u),
    "j_invariant": lambda u, v: j_invariant(u),
    "curve_report": curve_report,
    "curve_report(label, u)": lambda u, v: curve_report(CurveLabel.E_t, u),
    "PhiFiber": lambda u, v: PhiFiber(u),
    "moduli_report": lambda u, v: moduli_report(u),
    "phi_consistency_report": lambda u, v: phi_consistency_report(u),
    "phi_consistency_report(fiber, u)": lambda u, v: phi_consistency_report(FIBER, u),
    "dual_nonisomorphism_check": lambda u, v: dual_nonisomorphism_check(u, v, u, v, True),
    "dual_nonisomorphism_check(assertion)":
        lambda u, v: dual_nonisomorphism_check(E, KernelPoint.on_curve(E, 0, 0), E,
                                               KernelPoint.on_curve(E, 0, 0), u),
    "analytic_j": lambda u, v: analytic_j(u, 128),
    "analytic_j(bits)": lambda u, v: analytic_j(1j, u),
    "prym_period_matrix": prym_period_matrix,
    "riemann_check": lambda u, v: riemann_check(u),
    "periods_report": periods_report,
    # the other public functions of the library modules
    "rational": lambda u, v: rational(u),
    "brief": lambda u, v: brief(u),
    "parse_rational": lambda u, v: parse_rational(u),
    "parse_integer": lambda u, v: parse_integer(u),
    "ratio_text": ratio_text,
    "gcd": gcd,
    "gcd(x, u)": lambda u, v: gcd(X, u),
    "resultant": resultant,
    "resultant(x, u)": lambda u, v: resultant(X, u),
    "is_squarefree": lambda u, v: is_squarefree(u),
    "substitute_rational_map": lambda u, v: substitute_rational_map(X, u, v),
    "Polynomial.divmod": lambda u, v: X.divmod(u),
    "apply_mobius": apply_mobius,
    "apply_mobius(m, u)": lambda u, v: apply_mobius(MobiusMap(1, 0, 0, 1), u),
    "MarkedTuple.apply": lambda u, v: TUPLE.apply(u),
    "tuple_of_params": lambda u, v: tuple_of_params(u),
    "normalize_tuple": normalize_tuple,
    "normalize_tuple(t, u)": lambda u, v: normalize_tuple(TUPLE, u),
    "canonical_tuples_equivalent": lambda u, v: canonical_tuples_equivalent(u, v, "ordered"),
    "canonical_tuples_equivalent(p, p, u)":
        lambda u, v: canonical_tuples_equivalent(PARAMS, PARAMS, u),
    "verify_quotient_identity": lambda u, v: verify_quotient_identity(u, v, v),
    "verify_quotient_identity(q, u, v)": lambda u, v: verify_quotient_identity(MAP, u, v),
    "quartic_invariants": lambda u, v: quartic_invariants(u),
    "phi_tuple_raw": lambda u, v: phi_tuple_raw(u),
    "j_weierstrass": lambda u, v: j_weierstrass(u),
    "optimal_agm": lambda u, v: optimal_agm(u, v, 128),
    "optimal_agm(bits)": lambda u, v: optimal_agm(1, 2, u),
    "quotient_periods": lambda u, v: quotient_periods(u, 128),
    "quotient_periods(bits)": lambda u, v: quotient_periods(PARAMS, u),
    "product_to_prym_reduction": product_to_prym_reduction,
    "full_group": lambda u, v: full_group(u),
    "is_isotropic": lambda u, v: is_isotropic(u),
}

LIBRARY_MODULES = ("algebra", "projline", "family", "moduli", "isogeny", "periods", "torsion")


def test_every_exported_callable_is_an_entry_point():
    exported = {name for name in kleinprym.__all__ if callable(getattr(kleinprym, name))}
    assert exported <= ENTRY_POINTS.keys()


def test_every_public_library_function_is_an_entry_point():
    public = set()
    for name in LIBRARY_MODULES:
        module = importlib.import_module(f"kleinprym.{name}")
        public |= {key for key, value in vars(module).items()
                   if not key.startswith("_") and inspect.isfunction(value)
                   and value.__module__ == module.__name__}
    assert public <= ENTRY_POINTS.keys()


REPO = Path(__file__).resolve().parent.parent
# the program and the benchmark, whose references keep a public function
PROGRAM_PATHS = ("src/kleinprym", "scripts", "perfbench")


def _program_references() -> set:
    """Every name that a program or benchmark file reads as an ast `Name`,
    `Attribute` or import alias, and every attribute that the traced
    benchmark binds by a string (the third entry of `tracing.SPANS` and
    `tracing.COUNTERS` rows).  Docstrings and comments do not count, and
    neither do the benchmark's own tests."""
    names = set()
    for root in PROGRAM_PATHS:
        for path in (REPO / root).rglob("*.py"):
            if "tests" in path.relative_to(REPO / root).parts:
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
                elif (isinstance(node, ast.Assign) and path.name == "tracing.py"
                      and any(getattr(t, "id", None) in ("SPANS", "COUNTERS")
                              for t in node.targets)):
                    names |= {row.elts[2].value for row in node.value.elts}
    return names


def test_every_public_library_function_has_a_program_caller():
    # a public function that only the tests call belongs in the tests
    referenced = _program_references()
    unreferenced = set()
    for name in LIBRARY_MODULES:
        module = importlib.import_module(f"kleinprym.{name}")
        unreferenced |= {f"{name}.{key}" for key, value in vars(module).items()
                         if not key.startswith("_") and inspect.isfunction(value)
                         and value.__module__ == module.__name__ and key not in referenced}
    assert not unreferenced


# the records that the library returns and no call takes, which check nothing
OUTPUT_RECORDS = {"NormalizationResult", "PrymFiberInvariants", "ReductionTrace"}


def _public_records() -> dict:
    records = {}
    for name in LIBRARY_MODULES:
        module = importlib.import_module(f"kleinprym.{name}")
        records |= {key: value for key, value in vars(module).items()
                    if not key.startswith("_") and inspect.isclass(value)
                    and dataclasses.is_dataclass(value) and value.__module__ == module.__name__}
    return records


@pytest.mark.parametrize("record", sorted(_public_records().keys() - OUTPUT_RECORDS))
def test_every_input_record_checks_its_fields(record):
    cls = _public_records()[record]
    with pytest.raises(KleinPrymError):
        cls(*[None for field in dataclasses.fields(cls) if field.init])


def test_no_call_takes_an_output_record():
    # an output record may skip its checks only while no `require` names it
    assert OUTPUT_RECORDS <= _public_records().keys()
    for path in (REPO / "src/kleinprym").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "require":
                named = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                assert not named & OUTPUT_RECORDS, (path.name, node.lineno)


outside = st.one_of(
    st.sampled_from(["1/3", "1e3", "abc", "", " -7 ", "inf", "0,0", float("nan"), float("inf"),
                     float("-inf"), 0.5, None, 1j, 2 + 0j, object(), True, b"1", Decimal("1.5"),
                     Decimal("NaN"), Decimal("-Infinity"), Decimal("1e10000000")]),
    st.text(max_size=6),
    st.integers(-8, 8),
    st.fractions(max_denominator=12),
    st.floats(),
    st.complex_numbers(max_magnitude=8),
)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(ENTRY_POINTS)), outside, outside)
@example("KernelPoint.on_curve", "abc", 1)
@example("WeierstrassCurve.make", float("nan"), 1)
@example("WeierstrassCurve.make", float("inf"), 1)
@example("TorsionPoint.make", float("nan"), 0)
@example("ProjectivePoint", 0.5, 1)
@example("MobiusMap", 0.5, 0)
@example("ProjectivePoint.from_string", None, 0)
@example("MarkedTuple.from_string", None, 0)
@example("TorsionPoint.make(coords)", None, 0)
@example("check_domain", Decimal("1e10000000"), 1)
@example("span", 1, 2)
@example("span(p, u)", (1, 0, 0, 0), 0)
@example("span(gens)", None, 0)
@example("perp", P, 0)
@example("ker_phi_H", None, 0)
@example("intersection", P, 0)
@example("factor_intersection", K, "E")
@example("TorsionSubgroup.reduce", (1, 0, 0, 0), 0)
@example("analytic_j", 6.043403753606048e-131j, 0)
@example("analytic_j", 1e-9j, 0)
@example("analytic_j", 1e9j, 0)
def test_an_outside_value_gives_a_value_or_a_library_error(name, u, v):
    try:
        ENTRY_POINTS[name](u, v)
    except KleinPrymError:
        pass


@pytest.mark.parametrize("call", [
    lambda: span([1, 2]), lambda: span([P, (1, 0, 0, 0)]), lambda: span(None), lambda: span(P),
    lambda: perp(P), lambda: ker_phi_H(None), lambda: intersection(K, P),
    lambda: factor_intersection(K, K, "E"), lambda: K.reduce((1, 0, 0, 0)),
], ids=["span([1, 2])", "span([p, (1, 0, 0, 0)])", "span(None)", "span(p)", "perp(p)",
        "ker_phi_H(None)", "intersection(K, p)", "factor_intersection(K, K, 'E')",
        "K.reduce((1, 0, 0, 0))"])
def test_a_torsion_subgroup_call_refuses_a_wrong_type(call):
    with pytest.raises(ArgumentError):
        call()


@pytest.mark.parametrize("call", [
    lambda: fixed_point_count("sigma", PARAMS), lambda: quotient_map("E_t"),
    lambda: curve_equation("E_t", PARAMS), lambda: curve_equation(CurveLabel.E_t, (1, 2)),
    lambda: phi_params(None), lambda: prym_fiber_invariants(None), lambda: PhiFiber(None),
    lambda: moduli_report(None), lambda: phi_consistency_report(None),
    lambda: j_invariant(None), lambda: curve_report("E_t", None), lambda: riemann_check(None),
    lambda: velu_quotient(None, None),
    lambda: dual_nonisomorphism_check(None, None, None, None, True),
    lambda: analytic_j("x"), lambda: prym_period_matrix(1j, "x"), lambda: Polynomial(["x"]),
    lambda: CurveLabel("x"),
    lambda: riemann_check(PrymPeriodMatrix("x")),
    lambda: prym_period_matrix(ComplexApprox(1, 2, "x"), 1j),
    lambda: repr(ComplexApprox("a", "b", 128)), lambda: PeriodPair(1, 2, 3).tau.to_mpc(),
    lambda: PrymPeriodMatrix(((ONE,) * 4, (ONE,) * 3)),
    lambda: ComplexApprox(ONE.real, ONE.imag, 128.0),
    lambda: normalize_tuple(None), lambda: normalize_tuple(TUPLE, None),
    lambda: normalize_tuple(TUPLE, "sorted"), lambda: tuple_of_params(None),
    lambda: apply_mobius(None, PAIR[0]), lambda: TUPLE.apply(None),
    lambda: quotient_periods(None), lambda: quartic_invariants(None),
    lambda: verify_quotient_identity(None, None, None),
    lambda: j_weierstrass(None), lambda: parse_rational(None), lambda: gcd(None, None),
    lambda: Polynomial([1]).divmod(None), lambda: optimal_agm("x", 1, 128),
    lambda: optimal_agm(1, 1, "x"), lambda: full_group("x"),
    lambda: canonical_tuples_equivalent(None, PARAMS, "ordered"),
    lambda: canonical_tuples_equivalent(PARAMS, PARAMS, None),
    lambda: canonical_tuples_equivalent(PARAMS, PARAMS, True), lambda: phi_tuple_raw(TUPLE),
    lambda: QuotientMapData(None, None, None, None),
], ids=["fixed_point_count('sigma', p)", "quotient_map('E_t')", "curve_equation('E_t', p)",
        "curve_equation(E_t, (1, 2))", "phi_params(None)", "prym_fiber_invariants(None)",
        "PhiFiber(None)", "moduli_report(None)", "phi_consistency_report(None)",
        "j_invariant(None)", "curve_report('E_t', None)", "riemann_check(None)",
        "velu_quotient(None, None)", "dual_nonisomorphism_check(None, ...)", "analytic_j('x')",
        "prym_period_matrix(1j, 'x')", "Polynomial(['x'])", "CurveLabel('x')",
        "riemann_check(PrymPeriodMatrix('x'))", "prym_period_matrix(ComplexApprox(1, 2, 'x'), i)",
        "repr(ComplexApprox('a', 'b', 128))", "PeriodPair(1, 2, 3).tau",
        "PrymPeriodMatrix(rows of 4 and 3)", "ComplexApprox(re, im, 128.0)",
        "normalize_tuple(None)", "normalize_tuple(t, None)", "normalize_tuple(t, 'sorted')",
        "tuple_of_params(None)", "apply_mobius(None, p)", "MarkedTuple.apply(None)",
        "quotient_periods(None)", "quartic_invariants(None)",
        "verify_quotient_identity(None, None, None)",
        "j_weierstrass(None)", "parse_rational(None)", "gcd(None, None)",
        "Polynomial([1]).divmod(None)", "optimal_agm('x', 1, 128)", "optimal_agm(1, 1, 'x')",
        "full_group('x')", "canonical_tuples_equivalent(None, p, conv)",
        "canonical_tuples_equivalent(p, p, None)", "canonical_tuples_equivalent(p, p, True)",
        "phi_tuple_raw(t)", "QuotientMapData(None, None, None, None)"])
def test_a_library_call_refuses_a_wrong_type(call):
    with pytest.raises(ArgumentError):
        call()


@pytest.mark.parametrize("call", [
    lambda: analytic_j(complex(0, math.inf)), lambda: analytic_j(complex(math.nan, 1)),
    lambda: prym_period_matrix(1j, complex(math.nan, math.nan)),
    lambda: prym_period_matrix(complex(math.inf, 1), 1j),
], ids=["analytic_j(inf i)", "analytic_j(nan + i)", "prym_period_matrix(i, nan)",
        "prym_period_matrix(inf + i, i)"])
def test_a_non_finite_tau_or_z_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("call", [
    lambda: optimal_agm(1, 2, 10**9), lambda: optimal_agm(1, -1, 128),
    lambda: optimal_agm(0, 1, 128), lambda: optimal_agm(math.inf, 1, 128),
], ids=["optimal_agm(1, 2, 10**9)", "optimal_agm(1, -1, 128)", "optimal_agm(0, 1, 128)",
        "optimal_agm(inf, 1, 128)"])
def test_an_agm_out_of_its_domain_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_wrong_shapes_are_refused_not_misread():
    # a degree outside 3..4 and points off the curve, where a type check alone
    # would pass
    with pytest.raises(DegreeError):
        quartic_invariants(Polynomial([1, 0, 1]))
    with pytest.raises(PointError):
        KernelPoint.on_curve(E, 0, 1)
    with pytest.raises(ArgumentError):
        ratio_text(1, 0)


LIMIT = sys.get_int_max_str_digits()


@pytest.mark.parametrize("value", [
    Decimal("1e10000000"), Decimal("-1e-10000000"), Decimal(f"1e{LIMIT + 1}"),
    Decimal("1." + "1" * 10**6), Decimal("NaN"), Decimal("sNaN"), Decimal("-Infinity"),
], ids=["1e10000000", "-1e-10000000", "1e(limit+1)", "10^6 digits", "NaN", "sNaN",
        "-Infinity"])
def test_a_decimal_past_the_digit_bound_is_refused_at_once(value):
    # Fraction(Decimal("1e10000000")) alone builds a 33-Mbit integer in seconds
    start = time.perf_counter()
    with pytest.raises(ArgumentError):
        rational(value)
    assert time.perf_counter() - start < 0.5


def test_a_decimal_within_the_digit_bound_is_its_fraction():
    for value in (Decimal("1.5"), Decimal("-0"), Decimal(f"1e{LIMIT}"), Decimal(f"-7e-{LIMIT}")):
        assert rational(value) == Fraction(value)
