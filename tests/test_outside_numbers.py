"""Every entry point that takes numbers from outside reads them through
`algebra.rational`: each call returns a value or raises a KleinPrymError."""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from kleinprym.errors import KleinPrymError
from kleinprym.family import FamilyParams, check_domain
from kleinprym.isogeny import KernelPoint, WeierstrassCurve
from kleinprym.projline import MobiusMap, ProjectivePoint
from kleinprym.torsion import TorsionPoint

E = WeierstrassCurve.make(1, 0)  # y^2 = x^3 + x, with (0, 0) of order 2

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
    "ProjectivePoint": ProjectivePoint,
    "MobiusMap": lambda u, v: MobiusMap(u, 1, v, 3),
}

outside = st.one_of(
    st.sampled_from(["1/3", "1e3", "abc", "", " -7 ", "inf", "0,0", float("nan"), float("inf"),
                     float("-inf"), 0.5, None, 1j, 2 + 0j, object(), True, b"1"]),
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
def test_an_outside_value_gives_a_value_or_a_library_error(name, u, v):
    try:
        ENTRY_POINTS[name](u, v)
    except KleinPrymError:
        pass

