from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from kleinprym.algebra import (
    Polynomial,
    discriminant,
    format_rational,
    gcd,
    is_squarefree,
    parse_rational,
    resultant,
    substitute_rational_map,
    tolerance,
)
from kleinprym.errors import DegreeError, DomainError
from kleinprym.periods import ComplexApprox

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)
small_polys = st.lists(rationals, min_size=1, max_size=6).map(Polynomial)


def test_parse_format_round_trip():
    for text in ("3", "-5/7", "0", "22/7"):
        assert format_rational(parse_rational(text)) == text


def test_polynomial_basics():
    x = Polynomial.x()
    p = x * x - Polynomial.one()
    assert p.degree == 2
    assert p.evaluate(Fraction(3)) == 8
    assert (p * Polynomial.zero()).is_zero
    assert Polynomial.from_string("-1,0,1") == p
    assert p.to_string() == "-1,0,1"


def test_from_roots_evaluates_to_zero():
    p = Polynomial.from_roots([1, -2, Fraction(1, 3)], leading=5)
    for r in (1, -2, Fraction(1, 3)):
        assert p.evaluate(Fraction(r)) == 0
    assert p.leading == 5


@given(small_polys, small_polys)
def test_divmod_identity(f, g):
    if g.is_zero:
        with pytest.raises(DegreeError):
            f.divmod(g)
        return
    q, r = f.divmod(g)
    assert q * g + r == f
    assert r.is_zero or r.degree < g.degree


@given(st.lists(st.integers(-5, 5), min_size=2, max_size=5))
def test_resultant_vanishes_iff_common_root(roots):
    f = Polynomial.from_roots(roots[: len(roots) // 2 + 1])
    g = Polynomial.from_roots(roots[len(roots) // 2 + 1:] or [roots[0] + 100])
    shared = set(roots[: len(roots) // 2 + 1]) & set(
        roots[len(roots) // 2 + 1:] or [roots[0] + 100])
    assert (resultant(f, g) == 0) == bool(shared)


@given(st.lists(st.integers(-6, 6), min_size=2, max_size=5))
def test_discriminant_detects_repeated_roots(roots):
    f = Polynomial.from_roots(roots, leading=3)
    repeated = len(set(roots)) < len(roots)
    assert (discriminant(f) == 0) == repeated
    assert is_squarefree(f) == (not repeated)


def test_resultant_product_formula():
    # Res(f, g) = lc(f)^deg g * lc(g)^deg f * prod (ri - sj) for monic-split input
    f = Polynomial.from_roots([0, 2], leading=2)
    g = Polynomial.from_roots([1, -1, 3], leading=1)
    expected = Fraction(2) ** 3
    for ri in (0, 2):
        for sj in (1, -1, 3):
            expected *= ri - sj
    assert resultant(f, g) == expected


@given(small_polys, st.fractions(min_value=-8, max_value=8, max_denominator=6))
@settings(max_examples=60)
def test_substitute_rational_map_agrees_pointwise(f, x0):
    num = Polynomial((1, 2))       # 2x + 1
    den = Polynomial((-3, 0, 1))   # x^2 - 3
    g, k = substitute_rational_map(f, num, den)
    d = den.evaluate(x0)
    if d == 0:
        return
    assert g.evaluate(x0) == d ** k * f.evaluate(num.evaluate(x0) / d)


def test_gcd_is_monic_common_divisor():
    f = Polynomial.from_roots([1, 2, 3])
    g = Polynomial.from_roots([2, 3, 4], leading=7)
    h = gcd(f, g)
    assert h == Polynomial.from_roots([2, 3])
    assert h.leading == 1


def test_complex_approx_rejects_precision_below_the_minimum():
    with pytest.raises(DomainError):
        ComplexApprox.from_value(1, 32)


def test_tolerance_scales_with_precision():
    assert tolerance(64) == 2.0 ** -60
    assert tolerance(128) < tolerance(64)
