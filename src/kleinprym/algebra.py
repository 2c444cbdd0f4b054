"""Exact scalar and univariate polynomial arithmetic, plus the precision
constants of the analytic layer.

Rationals are `fractions.Fraction` (always reduced, positive denominator).
Polynomials are dense with Fraction coefficients; degrees in this project
never exceed 16, so nothing clever is attempted.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ArgumentError, DegreeError

Rational = Fraction


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p"; ArgumentError for any other text, "1/0" included."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ArgumentError(f"{text!r} is not a rational p/q") from None


def format_rational(r: Fraction) -> str:
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


class Polynomial:
    """Univariate polynomial over the rationals, coefficients low-to-high."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls((c,))

    @classmethod
    def from_roots(cls, roots, leading=1) -> "Polynomial":
        p = cls.constant(leading)
        for r in roots:
            p = p * cls((-Fraction(r), 1))
        return p

    @classmethod
    def from_string(cls, text: str) -> "Polynomial":
        """Parse the "c0,c1,...,cn" coefficient-list format."""
        return cls(parse_rational(t) for t in text.split(","))

    def to_string(self) -> str:
        if self.is_zero:
            return "0"
        return ",".join(format_rational(c) for c in self.coeffs)

    # -- structure ----------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise DegreeError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i <= self.degree else Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({self.to_string()!r})"

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(self[i] + other[i] for i in range(n))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(self[i] - other[i] for i in range(n))

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial(c * other for c in self.coeffs)
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        result = Polynomial.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def divmod(self, other: "Polynomial"):
        if other.is_zero:
            raise DegreeError("division by the zero polynomial")
        q = Polynomial.zero()
        r = self
        d = other.degree
        lc = other.leading
        while not r.is_zero and r.degree >= d:
            shift = r.degree - d
            c = r.leading / lc
            t = Polynomial([Fraction(0)] * shift + [c])
            q = q + t
            r = r - t * other
        return q, r

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[1]

    def derivative(self) -> "Polynomial":
        return Polynomial(i * c for i, c in enumerate(self.coeffs) if i >= 1)

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self) -> "Polynomial":
        return self * (Fraction(1) / self.leading)


def gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd over the rationals."""
    while not g.is_zero:
        f, g = g, f % g
    if f.is_zero:
        return f
    return f.monic()


def resultant(f: Polynomial, g: Polynomial) -> Fraction:
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


def discriminant(f: Polynomial) -> Fraction:
    """Resultant-based discriminant; zero iff f has a repeated root."""
    if f.is_zero or f.degree < 1:
        raise DegreeError("discriminant needs degree >= 1")
    n = f.degree
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(f, f.derivative()) / f.leading


def is_squarefree(f: Polynomial) -> bool:
    if f.is_zero:
        raise DegreeError("zero polynomial")
    if f.degree == 0:
        return True
    return gcd(f, f.derivative()).degree == 0


def substitute_rational_map(f: Polynomial, num: Polynomial, den: Polynomial):
    """Return (g, k) with g = den^k * f(num/den), k = deg f.

    g is a genuine polynomial by construction.
    """
    if den.is_zero:
        raise DegreeError("zero denominator in rational substitution")
    k = max(f.degree, 0)
    g = Polynomial.zero()
    num_pow = Polynomial.one()
    den_pows = [Polynomial.one()]
    for _ in range(k):
        den_pows.append(den_pows[-1] * den)
    for i in range(k + 1):
        c = f[i]
        if c:
            g = g + c * num_pow * den_pows[k - i]
        if i < k:
            num_pow = num_pow * num
    return g, k


# ---------------------------------------------------------------------------
# Working precision of the analytic layer
# ---------------------------------------------------------------------------

DEFAULT_PRECISION_BITS = 256
MIN_PRECISION_BITS = 64
