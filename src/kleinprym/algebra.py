"""Exact scalars, a univariate rational polynomial type, and the precision
constants of the analytic layer.

Rationals are `fractions.Fraction`; outside values enter through `rational`.
A `Polynomial` stores integer numerators over one common denominator (von zur
Gathen & Gerhard, *Modern Computer Algebra*, ch. 6).  The program holds the
family's quotient maps in it, and its models: a model y^2 = f(x) is its
right-hand side f.  `family` stores both as they are (`Polynomial._stored`):
the models' numerators written down from (a, b), the maps a literal table.
`family` decides each quotient identity at one integer point, so no program
path does polynomial arithmetic.  The constructor, `+`, `-`, `*`, `divmod`,
`gcd`, `resultant`, `is_squarefree` and `substitute_rational_map` run on no
program path: the traced benchmark binds some of them by name, and the tests
use them as oracles.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from decimal import Decimal
from fractions import Fraction

from .errors import ArgumentError, DegreeError, require


_RATIONAL = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?")
_INTEGER = re.compile(r"[-+]?[0-9]+")
_BRIEF_CHARS = 40  # the characters of an outside text that an error message echoes


def brief(text: str) -> str:
    """repr(text) for an error message; past `_BRIEF_CHARS` characters, the
    repr of the first `_BRIEF_CHARS` and the length."""
    require(str, "the text", text)
    if len(text) <= _BRIEF_CHARS:
        return repr(text)
    return f"{text[:_BRIEF_CHARS]!r}... ({len(text)} characters)"


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p": an optional sign, decimal digits and an optional
    "/digits", surrounded by whitespace or not; ArgumentError for any other
    text, "1/0", "1.5" and "1e3" included, and for p or q longer than the
    interpreter's bound on int() digits (sys.get_int_max_str_digits())."""
    require(str, "the text", text)
    match = _RATIONAL.fullmatch(text.strip())
    if match:
        p, q = _int(text, match[1]), _int(text, match[2] or "1")
        if q:
            return Fraction(p, q)
    raise ArgumentError(f"{brief(text)} is not a rational p/q")


def parse_integer(text: str) -> int:
    """Parse an integer as `parse_rational` reads p: an optional sign and
    decimal digits, surrounded by whitespace or not; ArgumentError for any
    other text, "1_0" and non-ASCII digits included, and past the same digit
    bound."""
    require(str, "the text", text)
    match = _INTEGER.fullmatch(text.strip())
    if match:
        return _int(text, match[0])
    raise ArgumentError(f"{brief(text)} is not an integer")


def _int(text: str, digits: str) -> int:
    """The int of digits matched in text; ArgumentError for more digits than
    int() reads."""
    try:
        return int(digits)
    except ValueError:
        raise ArgumentError(f"{brief(text)} has an integer of more than "
                            f"{sys.get_int_max_str_digits()} digits") from None


def rational(value) -> Fraction:
    """A number from outside: text through `parse_rational`, the command
    line's grammar; ArgumentError for a non-finite float or Decimal, a
    Decimal of more digits or a larger exponent than that grammar's digit
    bound, and a value that is not a number."""
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, Decimal):
        limit = sys.get_int_max_str_digits() or math.inf  # 0 sets no bound
        if max(len(value.as_tuple().digits), abs(value.adjusted())) > limit:
            raise ArgumentError(f"{brief(str(value))} has more than {limit} digits")
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError):
        raise ArgumentError(f"expected a finite rational, not {value!r}") from None


def ratio_text(num: int, den: int) -> str:
    """num/den for den > 0 in lowest terms, as `str(Fraction(num, den))` prints it."""
    if not (type(num) is int and type(den) is int and den > 0):
        require(int, "num and den", num, den)
        if den <= 0:
            raise ArgumentError(f"the denominator must be positive, not {den}")
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _convolve(xs, ys) -> list:
    """The product of two integer coefficient sequences, low to high."""
    if not xs or not ys:
        return []
    out = [0] * (len(xs) + len(ys) - 1)
    for i, a in enumerate(xs):
        if a:
            for j, b in enumerate(ys):
                out[i + j] += a * b
    return out


class Polynomial:
    """Univariate polynomial over the rationals: sum(nums[i] x^i) / den.

    `nums` is a tuple of ints, low to high, with no trailing zero; `den` is
    a positive int; gcd(den, *nums) = 1, and the zero polynomial is () over 1.
    This form is canonical, so `==` and `hash` compare it directly.
    `coeffs`, `[]` and `leading` return Fractions.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs=()):
        if isinstance(coeffs, (str, bytes, bytearray)):  # iterable, but not of numbers
            raise ArgumentError(f"coefficients must be numbers, not a {type(coeffs).__name__}")
        try:  # `rational` raises ArgumentError, so a TypeError is a non-iterable
            cs = [c if type(c) in (int, Fraction) else rational(c) for c in coeffs]
        except TypeError:
            raise ArgumentError(f"coefficients must be iterable, not {type(coeffs).__name__}") from None
        den = math.lcm(*[c.denominator for c in cs])
        nums = [c.numerator * (den // c.denominator) for c in cs]
        while nums and not nums[-1]:
            nums.pop()
        # over the lcm of reduced denominators, gcd(den, *nums) is already 1
        self.nums = tuple(nums)
        self.den = den

    @classmethod
    def _lowest(cls, nums: list, den: int) -> "Polynomial":
        """sum(nums[i] x^i) / den, den > 0, brought to the stored form."""
        while nums and not nums[-1]:
            nums.pop()
        # tuples are built from lists and the gcd is a fold: `tuple(genexpr)`
        # and `gcd(den, *nums)` move tuples between CPython's per-size free
        # lists, which then hold up to 1 MB in a long-lived caller
        g = functools.reduce(math.gcd, nums, den)
        p = object.__new__(cls)
        p.nums = tuple([n // g for n in nums] if g != 1 else nums)
        p.den = den // g
        return p

    @classmethod
    def _stored(cls, nums: tuple, den: int) -> "Polynomial":
        """sum(nums[i] x^i) / den, for a caller that knows it to be in the
        stored form already: no trailing zero, den > 0, gcd(den, *nums) = 1."""
        p = object.__new__(cls)
        p.nums = nums
        p.den = den
        return p

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    def to_string(self) -> str:
        if self.is_zero:
            return "0"
        return ",".join([ratio_text(n, self.den) for n in self.nums])

    # -- structure ----------------------------------------------------
    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, low to high."""
        return tuple([Fraction(n, self.den) for n in self.nums])

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.nums) - 1

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise DegreeError("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    def __getitem__(self, i: int) -> Fraction:
        require(int, "the index", i)
        return Fraction(self.nums[i], self.den) if 0 <= i <= self.degree else Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.nums == other.nums and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self):
        return f"Polynomial({self.to_string()!r})"

    # -- arithmetic ---------------------------------------------------
    def _plus(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * other over the least common denominator."""
        require(Polynomial, "the summand", other)
        g = math.gcd(self.den, other.den)
        scale, other_scale = other.den // g, sign * (self.den // g)
        out = [n * scale for n in self.nums]
        out += [0] * (len(other.nums) - len(out))
        for i, n in enumerate(other.nums):
            out[i] += n * other_scale
        return Polynomial._lowest(out, self.den * scale)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(other, -1)

    def __rsub__(self, other: "Polynomial") -> "Polynomial":
        require(Polynomial, "the minuend", other)
        return other._plus(self, -1)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial._lowest([n * other.numerator for n in self.nums],
                                      self.den * other.denominator)
        require(Polynomial, "the factor", other)
        return Polynomial._lowest(_convolve(self.nums, other.nums), self.den * other.den)

    __rmul__ = __mul__

    def divmod(self, other: "Polynomial"):
        require(Polynomial, "the divisor", other)
        if other.is_zero:
            raise DegreeError("division by the zero polynomial")
        q = Polynomial.zero()
        r = self
        d = other.degree
        lc = other.leading
        while not r.is_zero and r.degree >= d:
            shift = r.degree - d
            c = r.leading / lc
            t = Polynomial([0] * shift + [c])
            q = q + t
            r = r - t * other
        return q, r

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[1]

    def derivative(self) -> "Polynomial":
        return Polynomial._lowest([i * n for i, n in enumerate(self.nums)][1:], self.den)

    def monic(self) -> "Polynomial":
        return self * (1 / self.leading)


def gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd over the rationals."""
    require(Polynomial, "f and g", f, g)
    while not g.is_zero:
        f, g = g, f % g
    if f.is_zero:
        return f
    return f.monic()


def resultant(f: Polynomial, g: Polynomial) -> Fraction:
    require(Polynomial, "f and g", f, g)
    if f.is_zero or g.is_zero:
        return Fraction(0)
    if g.degree == 0:
        return g.leading ** f.degree
    if f.degree == 0:
        return f.leading ** g.degree
    r = f % g
    if r.is_zero:
        return Fraction(0)
    sign = -1 if (f.degree * g.degree) % 2 else 1
    return sign * g.leading ** (f.degree - r.degree) * resultant(g, r)


def is_squarefree(f: Polynomial) -> bool:
    require(Polynomial, "f", f)
    if f.is_zero:
        raise DegreeError("zero polynomial")
    if f.degree == 0:
        return True
    return gcd(f, f.derivative()).degree == 0


def substitute_rational_map(f: Polynomial, num: Polynomial, den: Polynomial):
    """Return (g, k) with g = den^k * f(num/den), k = deg f.

    g is a genuine polynomial by construction.  With f = F/fd, num = N/nd and
    den = D/dd over integer numerators, g = sum F_i (N dd)^i (D nd)^(k-i) over
    fd (nd dd)^k: integer convolutions and one reduction at the end.
    """
    require(Polynomial, "f, num and den", f, num, den)
    if den.is_zero:
        raise DegreeError("zero denominator in rational substitution")
    k = max(f.degree, 0)
    n = [c * den.den for c in num.nums]
    d = [c * num.den for c in den.nums]
    d_pows = [[1]]
    for _ in range(k):
        d_pows.append(_convolve(d_pows[-1], d))
    out = []
    n_pow = [1]
    for i, c in enumerate(f.nums):
        if c:
            term = _convolve(n_pow, d_pows[k - i])
            out += [0] * (len(term) - len(out))
            for j, t in enumerate(term):
                out[j] += c * t
        if i < k:
            n_pow = _convolve(n_pow, n)
    return Polynomial._lowest(out, f.den * (num.den * den.den) ** k), k


# ---------------------------------------------------------------------------
# Working precision of the analytic layer
# ---------------------------------------------------------------------------

DEFAULT_PRECISION_BITS = 256
MIN_PRECISION_BITS = 64
# a 32768-bit periods_report takes under a second (README)
MAX_PRECISION_BITS = 32768
