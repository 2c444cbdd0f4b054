import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kleinprym.errors import ArgumentError, LevelError, NotIsotropic
from kleinprym.torsion import (
    MAX_LEVEL,
    TorsionPoint,
    duality_chain,
    example_surj_report,
    factor_intersection,
    full_group,
    is_isotropic,
    ker_phi_H,
    perp,
    project_to_quotient,
    span,
    weil_pairing,
)


def pt(*coords, level):
    return TorsionPoint.make(coords, level)


levels = st.integers(2, 6)


@st.composite
def torsion_points(draw, level=None):
    n = draw(levels) if level is None else level
    coords = [Fraction(draw(st.integers(0, n - 1)), n) for _ in range(4)]
    return TorsionPoint.make(coords, n)


def test_make_validates_level_and_denominators():
    with pytest.raises(ArgumentError):
        TorsionPoint.make((0, 0, 0, 0), 13)
    with pytest.raises(LevelError):
        TorsionPoint.make((Fraction(1, 3), 0, 0, 0), 4)


def test_make_reduces_rationals_mod_1():
    p = pt(Fraction(-1, 4), Fraction(5, 4), 0, 0, level=4)
    assert p.coords == (3, 1, 0, 0)
    assert p.to_strings() == ["3/4", "1/4", "0", "0"]


def test_arithmetic_and_order():
    p = pt(Fraction(1, 4), 0, Fraction(3, 4), 0, level=4)
    assert (p + p).coords == (2, 0, 2, 0)
    assert (p - p).is_zero()
    assert p.order() == 4
    assert p.scale(4).is_zero()
    assert (-p).coords == (3, 0, 1, 0)


@pytest.mark.parametrize("level", range(2, 9))
def test_order_is_least_annihilating_multiple(level):
    for p in full_group(level):
        least = next(k for k in range(1, level + 1) if p.scale(k).is_zero())
        assert p.order() == least


@given(torsion_points(level=4), torsion_points(level=4), torsion_points(level=4))
@settings(max_examples=60)
def test_pairing_is_bilinear_and_alternating(x, y, z):
    assert weil_pairing(x, x) == 0
    assert weil_pairing(x, y) == (-weil_pairing(y, x)) % 1
    assert weil_pairing(x + z, y) == (weil_pairing(x, y) + weil_pairing(z, y)) % 1


def test_pairing_values_lie_in_level_fractions():
    x = pt(Fraction(1, 6), 0, 0, 0, level=6)
    y = pt(0, Fraction(1, 6), 0, 0, level=6)
    assert weil_pairing(x, y) == Fraction(1, 6)


def test_pairing_nondegenerate_at_level_2():
    group = full_group(2)
    for x in group:
        if x.is_zero():
            continue
        assert any(weil_pairing(x, y) != 0 for y in group)


@given(torsion_points())
@settings(max_examples=40)
def test_perp_order_complements_isotropic_span(p):
    s = span([p])
    if not is_isotropic(s):
        return
    n = p.level
    assert perp(s).order * s.order == n ** 4


def test_ker_phi_H_requires_isotropy():
    bad = span([pt(Fraction(1, 2), 0, 0, 0, level=2),
                pt(0, Fraction(1, 2), 0, 0, level=2)])
    assert not is_isotropic(bad)
    with pytest.raises(NotIsotropic):
        ker_phi_H(bad)


def test_quotient_projection_is_constant_on_cosets():
    kernel = span([pt(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2),
                      level=2)])
    q = project_to_quotient(kernel, full_group(2))
    for p in full_group(2):
        for k in kernel.elements:
            assert q.project(p) == q.project(p + k)
    assert q.order == 8  # 16 points / kernel of order 2


def _coset_least(kernel, level):
    """The enumeration oracle: each point's coset representative, taken as
    min(p + k for k in kernel.elements) once per coset."""
    least = {}
    for p in full_group(level):
        if p not in least:
            coset = [p + k for k in kernel.elements]
            least.update(dict.fromkeys(coset, min(coset)))
    return least


def _sample_kernels(level):
    rng = random.Random(level)
    points = rng.sample(full_group(level), 8)
    yield from (span([p]) for p in points)
    for p, q in zip(points[::2], points[1::2]):
        yield span([p, q])
    # a non-isotropic pair: the first factor's full level-N torsion
    yield span([pt(Fraction(1, level), 0, 0, 0, level=level),
                pt(0, Fraction(1, level), 0, 0, level=level)])


@pytest.mark.parametrize("level", range(2, 9))
def test_coset_reduction_matches_enumeration(level):
    points = full_group(level)
    kernels = list(_sample_kernels(level))
    assert any(not is_isotropic(k) for k in kernels)
    for kernel in kernels:
        least = _coset_least(kernel, level)
        q = project_to_quotient(kernel, points)
        assert all(q.project(p) == least[p] for p in points)
        assert list(q.representatives) == sorted(set(least.values()))
        assert q.order * kernel.order == level ** 4


@st.composite
def kernels_and_points(draw):
    n = draw(levels)
    gens = draw(st.lists(torsion_points(level=n), min_size=1, max_size=3))
    return span(gens), draw(torsion_points(level=n))


@given(kernels_and_points())
@settings(max_examples=60)
def test_reduction_lies_in_the_coset_and_is_constant_on_it(case):
    kernel, p = case
    q = project_to_quotient(kernel, [p])
    r = q.project(p)
    assert r - p in kernel.elements
    assert q.representatives == (r,)
    assert all(q.project(p + k) == r for k in kernel.elements)


@pytest.mark.parametrize("d", range(2, MAX_LEVEL + 1))
def test_duality_chain_fully_verified(d):
    report = duality_chain(d)
    assert report["all_ok"], report["checks"]
    assert len(report["ker_phi_H"]) == d * d
    assert len(report["G"]) == d


def test_duality_chain_generator():
    report = duality_chain(3)
    assert report["G_generator"] == ["0", "1/3", "0", "2/3"]


def test_factor_intersection_argument_validation():
    kernel = span([pt(Fraction(1, 2), 0, Fraction(1, 2), 0, level=2)])
    q = ker_phi_H(kernel)
    with pytest.raises(ArgumentError):
        factor_intersection(kernel, q, "G")


def test_example_surj_all_checks_pass():
    report = example_surj_report()
    assert report["all_ok"], report["checks"]
    assert len(report["ker_phi_A"]) == 4
    assert len(report["mu_E_diag_cap_mu_E_antidiag"]) == 2
    assert len(report["mu_E_alpha_cap_mu_E_minus_alpha"]) == 2
