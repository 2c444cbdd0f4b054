"""Every entry point that takes numbers from outside reads them through
`algebra.rational`: each call returns a value or raises a KleinPrymError.
The torsion subgroup calls, which take points and subgroups, refuse any
other type the same way."""

import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from kleinprym.algebra import rational
from kleinprym.errors import ArgumentError, KleinPrymError
from kleinprym.family import FamilyParams, check_domain
from kleinprym.isogeny import KernelPoint, WeierstrassCurve
from kleinprym.projline import MarkedTuple, MobiusMap, ProjectivePoint
from kleinprym.torsion import (
    TorsionPoint,
    factor_intersection,
    intersection,
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
}

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
