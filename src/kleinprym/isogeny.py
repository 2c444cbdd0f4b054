"""Short Weierstrass arithmetic over Q, Velu quotients by rational cyclic
kernels of order <= 12, and the dual-non-isomorphism certificate for
(1,d)-polarised quotients of a product of elliptic curves.

A curve is checked for singularity when it is made.  `velu_quotient` walks
the kernel once, summing Velu's terms over one point of each pair {T, -T}
(J. Velu, C. R. Acad. Sci. Paris 273, 1971), and raises OrderError unless
the multiples close up at the order that the point claims.

Isomorphism over an algebraically closed field is decided by j-invariant
equality.  Non-isogeny of the two factors is never certified here: it is an
input assertion, with j(E) != j(F) reported as weak evidence only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ArgumentError, OrderError, PointError, SingularError, require
from .algebra import rational

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
        parts = text.split(",") if isinstance(text, str) else ()
        if len(parts) != 2:
            raise ArgumentError(f"curve format is 'p,q', got {text!r}")
        return cls.make(*parts)

    def contains(self, x: Fraction, y: Fraction) -> bool:
        return y * y == x ** 3 + self.p * x + self.q


def j_weierstrass(curve: WeierstrassCurve) -> Fraction:
    return 1728 * 4 * curve.p ** 3 / (4 * curve.p ** 3 + 27 * curve.q ** 2)


# Affine points are (x, y) pairs; None is the point at infinity.


def add_points(curve: WeierstrassCurve, P, Q):
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


def point_order(curve: WeierstrassCurve, P) -> int:
    acc = P
    for k in range(1, MAX_KERNEL_ORDER + 1):
        if acc is None:
            return k
        acc = add_points(curve, acc, P)
    raise OrderError(f"point order exceeds {MAX_KERNEL_ORDER}")


@dataclass(frozen=True)
class KernelPoint:
    """A rational point of known finite order on a carrying curve."""

    x: Fraction
    y: Fraction
    order: int

    def __post_init__(self):
        require(Fraction, "x and y", self.x, self.y)
        require(int, "the order", self.order)

    @classmethod
    def on_curve(cls, curve: WeierstrassCurve, x, y) -> "KernelPoint":
        x = rational(x)
        y = rational(y)
        if not curve.contains(x, y):
            raise PointError(f"({x}, {y}) is not on y^2 = x^3 + {curve.p} x + {curve.q}")
        return cls(x, y, point_order(curve, (x, y)))

    @classmethod
    def from_string(cls, curve: WeierstrassCurve, text: str) -> "KernelPoint":
        parts = text.split(",") if isinstance(text, str) else ()
        if len(parts) != 2:
            raise ArgumentError(f"point format is 'x,y', got {text!r}")
        return cls.on_curve(curve, *parts)


def velu_quotient(curve: WeierstrassCurve, P: KernelPoint) -> WeierstrassCurve:
    """The image curve of the degree-n isogeny with kernel <P>, in short
    Weierstrass form; OrderError unless the multiples of P close up at n =
    P.order."""
    require(WeierstrassCurve, "the curve", curve)
    require(KernelPoint, "the kernel point", P)
    pt = (P.x, P.y)
    if not curve.contains(P.x, P.y):
        raise PointError("kernel point is not on the curve")

    # T = kP for k = 1, 2, ... up to the first T = -T (y = 0: n = 2k) or,
    # before it, the first T = -(T - P) (same x: n = 2k + 1): one
    # representative of each {T, -T}, within n/2 + 1 steps
    v = w = Fraction(0)
    T = pt
    for k in range(1, MAX_KERNEL_ORDER // 2 + 1):
        x, y = T
        gx = 3 * x * x + curve.p
        vq = gx if y == 0 else 2 * gx
        v += vq
        w += 4 * y * y + x * vq
        if y == 0:
            order = 2 * k
            break
        T = add_points(curve, T, pt)
        if T[0] == x:
            order = 2 * k + 1
            break
    else:
        raise OrderError(f"kernel point has no order up to {MAX_KERNEL_ORDER}")
    if order != P.order:
        raise OrderError(f"kernel point has order {order}, not {P.order}")
    return WeierstrassCurve(curve.p - 5 * v, curve.q - 7 * w)


def dual_nonisomorphism_check(E: WeierstrassCurve, P: KernelPoint,
                              F: WeierstrassCurve, Q: KernelPoint,
                              nonisogenous_asserted: bool) -> dict:
    """Certificate that (E x F)/<(P, Q)> is not abstractly isomorphic to its
    dual: the premise is j(E/P) != j(E) or j(F/Q) != j(F), and the
    non-isogeny hypothesis is taken on the caller's word."""
    require(WeierstrassCurve, "a curve", E, F)
    require(KernelPoint, "a kernel point", P, Q)
    require(bool, "nonisogenous_asserted", nonisogenous_asserted)
    if P.order != Q.order:
        raise OrderError(f"kernel orders differ: {P.order} != {Q.order}")
    jE = j_weierstrass(E)
    jF = j_weierstrass(F)
    jEP = j_weierstrass(velu_quotient(E, P))
    jFQ = j_weierstrass(velu_quotient(F, Q))
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
