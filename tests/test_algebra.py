import functools
import math
import sys
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from kleinprym.algebra import (
    Polynomial,
    gcd,
    is_squarefree,
    parse_integer,
    parse_rational,
    ratio_text,
    resultant,
    substitute_rational_map,
)
from kleinprym.errors import ArgumentError, DegreeError

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)
small_polys = st.lists(rationals, min_size=1, max_size=6).map(Polynomial)


# coefficients of height up to 10^6, against a plain list-of-Fractions reference
HEIGHT = 10**6
tall_rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-HEIGHT, HEIGHT), st.integers(1, HEIGHT)),
)
tall_lists = st.lists(tall_rationals, max_size=6)
scalars = st.one_of(st.integers(-HEIGHT, HEIGHT), tall_rationals)


def trimmed(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(f, g, sign=1):
    n = max(len(f), len(g))
    f, g = list(f) + [0] * (n - len(f)), list(g) + [0] * (n - len(g))
    return trimmed(x + sign * y for x, y in zip(f, g))


def ref_mul(f, g):
    if not f or not g:
        return ()
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return trimmed(out)


def ref_divmod(f, g):
    q, r = [Fraction(0)] * max(len(f) - len(g) + 1, 0), list(f)
    while len(r) >= len(g):
        c = r[-1] / g[-1]
        shift = len(r) - len(g)
        q[shift] = c
        r = list(ref_add(r, [0] * shift + [c * y for y in g], -1))
    return trimmed(q), tuple(r)


def in_stored_form(p):
    return (p.den > 0 and all(type(n) is int for n in p.nums) and type(p.den) is int
            and (not p.nums or p.nums[-1] != 0)
            and math.gcd(p.den, *p.nums) == 1)


@given(tall_lists, tall_lists, scalars)
@settings(max_examples=150)
def test_arithmetic_matches_the_fraction_reference(fs, gs, c):
    f, g = Polynomial(fs), Polynomial(gs)
    fs, gs = trimmed(fs), trimmed(gs)
    assert f.coeffs == fs and all(type(v) is Fraction for v in f.coeffs)
    assert f.degree == len(fs) - 1
    assert [f[i] for i in range(-1, len(fs) + 2)] == [0, *fs, 0, 0]
    results = (
        (f + g, ref_add(fs, gs)),
        (f - g, ref_add(fs, gs, -1)),
        (f * g, ref_mul(fs, gs)),
        (f * c, trimmed(x * c for x in fs)),
        (c * f, trimmed(x * c for x in fs)),
        (f.derivative(), trimmed(i * x for i, x in enumerate(fs))[1:]),
    )
    for p, expected in results:
        assert p.coeffs == expected
        assert in_stored_form(p)
    if gs:
        q, r = f.divmod(g)
        assert (q.coeffs, r.coeffs) == ref_divmod(fs, gs)
        assert in_stored_form(q) and in_stored_form(r)
    if fs:
        assert f.monic().coeffs == tuple(x / fs[-1] for x in fs)
        assert f.leading == fs[-1]


@given(tall_lists, st.integers(1, HEIGHT), st.integers(1, HEIGHT))
def test_equal_values_are_equal_and_hash_alike(fs, m, k):
    f = Polynomial(fs)
    # the same value reached through differently scaled intermediate forms
    others = (
        (f * m) * Fraction(1, m),
        Polynomial([x * k for x in fs]) * Fraction(1, k),
        Polynomial._lowest([n * m for n in f.nums], f.den * m),
        f + Polynomial([Fraction(m, k)]) - Polynomial([Fraction(m, k)]),
        (f * Polynomial([m, k])).divmod(Polynomial([m, k]))[0],
    )
    for other in others:
        assert other == f and hash(other) == hash(f)
        assert (other.nums, other.den) == (f.nums, f.den)
    assert (f + Polynomial([1]) == f) is False
    if not f.is_zero:
        assert f * Fraction(m + 1, m) != f  # may keep f's numerators
    assert Polynomial([Fraction(1, 2)]) != Polynomial([Fraction(1, 3)])


def test_the_zero_polynomial_has_degree_minus_one():
    p = Polynomial([Fraction(3, 7), 5])
    zeros = (Polynomial.zero(), Polynomial([0, Fraction(0), 0]), p - p,
             p * 0, p * Polynomial.zero(), Polynomial([5]).derivative())
    for z in zeros:
        assert z.degree == -1 and z.is_zero
        assert (z.nums, z.den) == ((), 1)
        assert z == Polynomial.zero() and hash(z) == hash(Polynomial.zero())
    with pytest.raises(DegreeError):
        Polynomial.zero().leading


def test_parse_format_round_trip():
    for text in ("3", "-5/7", "0", "22/7"):
        assert str(parse_rational(text)) == text
    assert parse_rational(" +6/4 ") == Fraction(3, 2)
    assert parse_rational("-007/14") == Fraction(-1, 2)


@pytest.mark.parametrize("text", ["1e3", "1.5", "1E3", ".5", "2e-3", "1_000", "3/-7",
                                  "3 /7", "--1", "", "/2", "1/0", "inf", "nan"])
def test_parse_rational_accepts_only_p_over_q(text):
    with pytest.raises(ArgumentError, match="is not a rational p/q"):
        parse_rational(text)


@pytest.mark.parametrize("text", ["1_0", "\u0663", "\u0661\u0662", "1/2", "1.0", "1e3", "--1",
                                  "+-1", "", " ", "0x10", "inf"])
def test_parse_integer_accepts_only_a_sign_and_ascii_digits(text):
    with pytest.raises(ArgumentError, match="is not an integer"):
        parse_integer(text)


def test_parse_integer_reads_p_as_parse_rational_does():
    for text in ("0", "-0", "+7", " -12 ", "\t3\n", "007"):
        assert parse_integer(text) == parse_rational(text)
    limit = sys.get_int_max_str_digits()
    assert parse_integer("7" * limit) == int("7" * limit)
    with pytest.raises(ArgumentError, match=f"more than {limit} digits"):
        parse_integer("7" * (limit + 1))


@pytest.mark.parametrize("text", ["123", "", b"12", b"", bytearray(b"12")])
def test_a_text_is_not_a_list_of_coefficients(text):
    with pytest.raises(ArgumentError, match="coefficients must be numbers"):
        Polynomial(text)


def test_parse_rational_names_the_digit_bound_and_echoes_briefly():
    limit = sys.get_int_max_str_digits()
    assert parse_rational("7" * limit + "/3") == Fraction(int("7" * limit), 3)
    for text in ("7" * (limit + 1), "1/" + "3" * (limit + 1)):
        with pytest.raises(ArgumentError, match=f"more than {limit} digits") as info:
            parse_rational(text)
        assert len(str(info.value)) < 120


@given(st.integers(-HEIGHT**2, HEIGHT**2), st.integers(1, HEIGHT**2))
def test_ratio_text_is_the_fraction_text(num, den):
    assert ratio_text(num, den) == str(Fraction(num, den))
    assert ratio_text(0, den) == "0"
    assert ratio_text(-num * den, den) == str(-num)


@given(tall_lists)
def test_to_string_prints_the_coefficients(cs):
    text = Polynomial(cs).to_string()
    assert text == (",".join(str(c) for c in trimmed(cs)) or "0")


def test_polynomial_basics():
    x = Polynomial([0, 1])
    p = x * x - Polynomial([1])
    assert p.degree == 2
    assert (p * Polynomial.zero()).is_zero
    assert p.to_string() == "-1,0,1"


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
    f_roots = roots[: len(roots) // 2 + 1]
    g_roots = roots[len(roots) // 2 + 1:] or [roots[0] + 100]
    f, g = (Polynomial(functools.reduce(ref_mul, [(-r, 1) for r in rs], (1,)))
            for rs in (f_roots, g_roots))
    assert (resultant(f, g) == 0) == bool(set(f_roots) & set(g_roots))


@given(st.lists(st.integers(-6, 6), min_size=2, max_size=5))
def test_discriminant_detects_repeated_roots(roots):
    # disc(f) = +-Res(f, f')/lc(f), so it vanishes exactly with the resultant
    f = Polynomial(functools.reduce(ref_mul, [(-r, 1) for r in roots], (3,)))
    repeated = len(set(roots)) < len(roots)
    assert (resultant(f, f.derivative()) == 0) == repeated
    assert is_squarefree(f) == (not repeated)


def test_resultant_product_formula():
    # Res(f, g) = lc(f)^deg g * lc(g)^deg f * prod (ri - sj) for monic-split input
    f = Polynomial((0, -4, 2))      # 2 x (x - 2)
    g = Polynomial((3, -1, -3, 1))  # (x - 1)(x + 1)(x - 3)
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
    x = sympy.Symbol("x")
    f_x, g_x, num_x, den_x = (sympy.Poly(p.coeffs[::-1] or [0], x).as_expr()
                              for p in (f, g, num, den))
    d = den_x.subs(x, x0)
    if d == 0:
        return
    assert g_x.subs(x, x0) == d ** k * f_x.subs(x, num_x.subs(x, x0) / d)


def ref_substitute(fs, ns, ds):
    """den^k f(num/den), k = deg f, on lists of Fractions."""
    k = max(len(fs) - 1, 0)
    out = ()
    for i, c in enumerate(fs):
        term = functools.reduce(ref_mul, [ns] * i + [ds] * (k - i), (c,))
        out = ref_add(out, term)
    return out


# degree 0 to 8 or the zero f; num and den with non-unit denominators
substitution_inputs = st.tuples(
    st.one_of(st.just([]), st.lists(tall_rationals, min_size=1, max_size=9)),
    tall_lists,
    tall_lists.filter(lambda ds: any(ds)),
)


@given(substitution_inputs)
@settings(max_examples=150)
def test_substitute_rational_map_matches_the_fraction_reference(inputs):
    fs, ns, ds = inputs
    f, num, den = Polynomial(fs), Polynomial(ns), Polynomial(ds)
    g, k = substitute_rational_map(f, num, den)
    assert k == max(f.degree, 0)
    assert g.coeffs == ref_substitute(trimmed(fs), trimmed(ns), trimmed(ds))
    assert in_stored_form(g)


def test_substitute_rational_map_rejects_a_zero_denominator():
    with pytest.raises(DegreeError):
        substitute_rational_map(Polynomial([1, 2]), Polynomial([0, 1]), Polynomial.zero())


def test_gcd_is_monic_common_divisor():
    f = Polynomial((-6, 11, -6, 1))        # (x - 1)(x - 2)(x - 3)
    g = Polynomial((-168, 182, -63, 7))    # 7 (x - 2)(x - 3)(x - 4)
    h = gcd(f, g)
    assert h == Polynomial((6, -5, 1))     # (x - 2)(x - 3)
    assert h.leading == 1
