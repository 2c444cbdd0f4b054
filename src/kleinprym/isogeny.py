"""Short Weierstrass arithmetic over Q, Velu quotients by rational cyclic
kernels of order <= 12, and the dual-non-isomorphism certificate for
(1,d)-polarised quotients of a product of elliptic curves.

A curve is checked for singularity when it is made.  A `KernelPoint` is a
curve and a point on it, whose multiples are walked once when it is made
(`_half_kernel`): the walk gives its order, refuses infinite order, and
keeps one point of each pair {T, -T} of the kernel, over which
`velu_quotient` sums Velu's terms (J. Velu, C. R. Acad. Sci. Paris 273, 1971).

Isomorphism over an algebraically closed field is decided by j-invariant
equality.  Non-isogeny of the two factors is never certified here: it is an
input assertion, with j(E) != j(F) reported as weak evidence only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .errors import ArgumentError, OrderError, PointError, SingularError, require
from .algebra import brief, rational

MAX_KERNEL_ORDER = 12


@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 = x^3 + p x + q, nonsingular: construction refuses 4p^3 + 27q^2 = 0."""

    p: Fraction
    q: Fraction

    def __post_init__(self):
        require(Fraction, "p and q", self.p, self.q)
        if 4 * self.p ** 3 + 27 * self.q * self.q == 0:
            raise SingularError("4p^3 + 27q^2 = 0")

    @classmethod
    def make(cls, p, q) -> "WeierstrassCurve":
        return cls(rational(p), rational(q))

    @classmethod
    def from_string(cls, text: str) -> "WeierstrassCurve":
        require(str, "the text", text)
        parts = text.split(",")
        if len(parts) != 2:
            raise ArgumentError(f"curve format is 'p,q', got {brief(text)}")
        return cls.make(*parts)

    def contains(self, x: Fraction, y: Fraction) -> bool:
        require(Fraction, "x and y", x, y)
        return y * y == x ** 3 + self.p * x + self.q


def j_weierstrass(curve: WeierstrassCurve) -> Fraction:
    require(WeierstrassCurve, "the curve", curve)
    return 1728 * 4 * curve.p ** 3 / (4 * curve.p ** 3 + 27 * curve.q ** 2)


def _add_points(curve: WeierstrassCurve, P, Q):
    """The group law on points that the caller knows to lie on the curve:
    affine points are (x, y) pairs, and None is the point at infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if y1 + y2 == 0:
            return None
        lam = (3 * x1 * x1 + curve.p) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    y3 = lam * (x1 - x3) - y1
    return (x3, y3)


def _half_kernel(curve: WeierstrassCurve, P):
    """(n, points): the order n of a rational point P on the curve and its
    multiples T = kP for k = 1, ..., n // 2, one of each pair {T, -T} of
    nonzero multiples.  The walk stops at the first T = -T (y = 0: n = 2k)
    or, before it, the first T + P = -T (same x: n = 2k + 1), so it makes at
    most n // 2 additions; OrderError past n = MAX_KERNEL_ORDER, since no
    rational point has order 11 or 13 (Mazur)."""
    points = [P]
    for k in range(1, MAX_KERNEL_ORDER // 2 + 1):
        x, y = points[-1]
        if y == 0:
            return 2 * k, points
        T = _add_points(curve, points[-1], P)
        if T[0] == x:
            return 2 * k + 1, points
        points.append(T)
    raise OrderError(f"point order exceeds {MAX_KERNEL_ORDER}")


@dataclass(frozen=True)
class KernelPoint:
    """A rational point of finite order on its curve, checked when it is made."""

    curve: WeierstrassCurve
    x: Fraction
    y: Fraction

    def __post_init__(self):
        require(WeierstrassCurve, "the curve", self.curve)
        if not self.curve.contains(self.x, self.y):
            raise PointError(f"({self.x}, {self.y}) is not on "
                             f"y^2 = x^3 + {self.curve.p} x + {self.curve.q}")
        self._walk  # computed now, so that no point of infinite order exists

    @functools.cached_property
    def _walk(self):
        return _half_kernel(self.curve, (self.x, self.y))

    @property
    def order(self) -> int:
        return self._walk[0]

    @classmethod
    def on_curve(cls, curve: WeierstrassCurve, x, y) -> "KernelPoint":
        return cls(curve, rational(x), rational(y))

    @classmethod
    def from_string(cls, curve: WeierstrassCurve, text: str) -> "KernelPoint":
        require(str, "the text", text)
        parts = text.split(",")
        if len(parts) != 2:
            raise ArgumentError(f"point format is 'x,y', got {brief(text)}")
        return cls.on_curve(curve, *parts)


def velu_quotient(P: KernelPoint) -> WeierstrassCurve:
    """The short Weierstrass image of the degree-n isogeny with kernel <P>."""
    require(KernelPoint, "the kernel point", P)
    curve = P.curve
    v = w = Fraction(0)
    for x, y in P._walk[1]:
        gx = 3 * x * x + curve.p
        vq = gx if y == 0 else 2 * gx
        v += vq
        w += 4 * y * y + x * vq
    return WeierstrassCurve(curve.p - 5 * v, curve.q - 7 * w)


def dual_nonisomorphism_check(P: KernelPoint, Q: KernelPoint,
                              nonisogenous_asserted: bool) -> dict:
    """Certificate that (E x F)/<(P, Q)> is not abstractly isomorphic to its
    dual, P on E and Q on F: the premise is j(E/P) != j(E) or j(F/Q) != j(F),
    and the non-isogeny hypothesis is taken on the caller's word."""
    require(KernelPoint, "a kernel point", P, Q)
    require(bool, "nonisogenous_asserted", nonisogenous_asserted)
    if P.order != Q.order:
        raise OrderError(f"kernel orders differ: {P.order} != {Q.order}")
    jE, jF = j_weierstrass(P.curve), j_weierstrass(Q.curve)
    jEP, jFQ = j_weierstrass(velu_quotient(P)), j_weierstrass(velu_quotient(Q))
    premise = (jEP != jE) or (jFQ != jF)
    if not nonisogenous_asserted:
        conclusion = "hypothesis unverified: non-isogeny not asserted"
    elif premise:
        conclusion = "A is not isomorphic to its dual"
    else:
        conclusion = "no conclusion: both quotients preserve j"
    return {
        "d": P.order,
        "j_E": str(jE),
        "j_E_mod_P": str(jEP),
        "j_F": str(jF),
        "j_F_mod_Q": str(jFQ),
        "premise_holds": premise,
        "nonisogenous_evidence": {
            "j_values_differ": jE != jF,
            "asserted_by_caller": nonisogenous_asserted,
        },
        "conclusion": conclusion,
    }
