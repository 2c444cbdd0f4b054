"""Finite symplectic calculus on torsion of a product of two elliptic curves.

Torsion is modelled inside Q^4/Z^4 at a fixed level N, coordinates ordered
(e_E, f_E, e_F, f_F).  A point x is held as the residues N*x mod N, four
ints in range(N), which it checks when it is made; rationals appear only
where points enter (`make`).  The Weil pairing surrogate is the standard
symplectic form scaled to take values in (1/N)Z/Z, held as the residue
N <x, y> mod N (`_pairing_residue`):

    <x, y> = N * (x1 y2 - x2 y1 + x3 y4 - x4 y3)  mod 1.

Since c -> c/N is monotone on range(N), residues order exactly as the
rationals they stand for.  A subgroup is held as its canonical echelon
(Howell) basis over Z/N (`_howell`; Storjohann & Mulders, "Fast algorithms
for linear algebra modulo N", ESA 1998): spans row-reduce their generators
on live rows and columns, symplectic complements and intersections (the
Zassenhaus step) are read off the basis of an augmented span, and equal
subgroups have equal bases.  A subgroup of a quotient by K is held as its
preimage, so it compares the same way; the preimage of ker phi_H is K^perp,
which contains the isotropic K.  A coset p + K is named by its
lexicographically least element, which one pass over the basis of K reaches
directly (`TorsionSubgroup.reduce`; H. Cohen, GTM 138, section 2.4).
Elements and coset names are listed only when a report asks for them, one
basis row added per step; levels stay <= 12.  Subgroup calls refuse wrong
types, and a subgroup made directly refuses a basis that is not canonical
or a preimage without its kernel; the module's own constructions skip that
check (`_made`).

The two fixed reports have a finite domain, so each is built once and
memoised: `duality_chain(d)` for d in 2..12 and `example_surj_report()`.
`duality_chain` checks d before the lookup, and both return a fresh copy
that the caller may change.  Subgroup operations (`span`, `perp`,
`quotient_image`, `ker_phi_H`) are not cached: their domain grows with the
subgroups asked for.
"""

from __future__ import annotations

import functools
import itertools
import marshal
import math
from dataclasses import dataclass

from .algebra import ratio_text, rational
from .errors import ArgumentError, LevelError, NotIsotropic, require

MAX_LEVEL = 12


@dataclass(frozen=True, order=True)
class TorsionPoint:
    """An element of Q^4/Z^4 with denominators dividing the level, held as
    the residues level * x mod level."""

    coords: tuple
    level: int

    def __post_init__(self):
        if not _is_point(self.coords, self.level):
            raise ArgumentError(f"a point is four int residues mod a level in 2..{MAX_LEVEL}, "
                                f"not {self.coords!r} at level {self.level!r}")

    @classmethod
    def make(cls, coords, level: int) -> "TorsionPoint":
        """The point with rational coordinates `coords`, reduced mod 1."""
        _require_level(level)
        if isinstance(coords, (str, bytes, bytearray)):  # iterable, but not of numbers
            raise ArgumentError(f"coords must be four numbers, not a {type(coords).__name__}")
        try:
            coords = iter(coords)
        except TypeError:
            raise ArgumentError(f"coords must be four numbers, not {coords!r}") from None
        cs = tuple(map(rational, coords))
        if len(cs) != 4:
            raise ArgumentError("torsion points have four coordinates")
        for c in cs:
            if level % c.denominator != 0:
                raise LevelError(f"denominator of {c % 1} does not divide level {level}")
        return cls(tuple(int(c * level) % level for c in cs), level)

    def __add__(self, other: "TorsionPoint") -> "TorsionPoint":
        require(TorsionPoint, "the summand", other)
        if self.level != other.level:
            raise LevelError("level mismatch")
        n = self.level
        return TorsionPoint(tuple((a + b) % n for a, b in zip(self.coords, other.coords)), n)

    __radd__ = __add__

    def scale(self, k: int) -> "TorsionPoint":
        require(int, "the factor", k)
        return TorsionPoint(tuple(k * a % self.level for a in self.coords), self.level)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def order(self) -> int:
        return self.level // math.gcd(self.level, *self.coords)

    def to_strings(self):
        """The coordinates c/N in lowest terms, as `str(Fraction(c, N))` prints them."""
        texts = _residue_texts(self.level)
        return [texts[c] for c in self.coords]

    def __repr__(self):
        return "(" + ", ".join(self.to_strings()) + f")@{self.level}"


def _require_level(level) -> None:
    if type(level) is not int or not 2 <= level <= MAX_LEVEL:
        raise ArgumentError(f"level must be an int in 2..{MAX_LEVEL}")


def _is_point(coords, level) -> bool:
    """Whether coords are four int residues mod an int level in 2..MAX_LEVEL."""
    return (type(level) is int and 2 <= level <= MAX_LEVEL and type(coords) is tuple
            and len(coords) == 4 and all(type(c) is int and 0 <= c < level for c in coords))


@functools.cache
def _residue_texts(level: int) -> tuple:
    """The texts of c/N in lowest terms for c in range(N), read by `to_strings`
    and the reports."""
    return tuple([ratio_text(c, level) for c in range(level)])


def _pairing_residue(a: tuple, b: tuple, level: int) -> int:
    """N <x, y> mod N for the residues a, b of two points of level N."""
    return (a[0] * b[1] - a[1] * b[0] + a[2] * b[3] - a[3] * b[2]) % level


def full_group(level: int):
    """All level-N points of Q^4/Z^4 (N^4 of them), lexicographically ordered."""
    _require_level(level)
    return [TorsionPoint(c, level) for c in itertools.product(range(level), repeat=4)]


def _reduce(c: tuple, echelon, level: int, start: int = 0) -> tuple:
    """The lexicographically least element of c + K_start for K with echelon
    basis `echelon` (see `_howell`).

    The j-th residues of K_j form the subgroup g_j Z/N, so the least j-th
    residue in the coset is c_j mod g_j, and the elements of the coset that
    reach it form a coset of K_{j+1}."""
    for j in range(start, len(echelon)):
        g, r = echelon[j]
        m = c[j] // g
        if m:
            c = tuple([(a - m * b) % level for a, b in zip(c, r)])
    return c


def _howell(rows, level: int, width: int) -> tuple:
    """The canonical echelon (Howell) basis over Z/N of the span of `rows`,
    tuples of `width` residues: (g_j, r_j) for each column j.  With K_j the
    elements whose first j residues are 0, g_j is the least positive j-th
    residue in K_j (N if there is none) and r_j the lexicographically least
    element of K_j with that residue (zero if g_j = N).

    Column j takes the extended-gcd combination of its rows' j-th residues,
    starting from the row N e_j, which is zero mod N; the first combination
    so leaves behind the annihilator (N/g) x of its row x.  Because the other
    rows keep K_{j+1}, each K_j is spanned by r_j, r_{j+1}, ... (the Howell
    property), which is what makes `_reduce` and the form canonical.  Zero
    rows are dropped, and a row that reaches column j is zero before it, so
    only its tail is combined; each pivot is stored padded with j zeros, and
    only nonzero pivots are reduced."""
    # tuples are built from lists: tuple() of a generator shrinks its result
    # in place, so freeing it fills CPython's tuple free lists for good
    n = level
    echelon = []
    rows = [x for x in rows if any(x)]
    for j in range(width):
        g, pivot, rest = n, (0,) * (width - j), []
        for x in rows:
            b = x[0]
            if b:
                h = math.gcd(g, b)  # h = s g + t b
                t = pow(b // h, -1, g // h)
                if g == n:  # the pivot is still zero
                    pivot, x = tuple([t * c % n for c in x]), tuple([n // h * c % n for c in x])
                else:
                    s = (h - t * b) // g
                    pivot, x = (tuple([(s * p + t * c) % n for p, c in zip(pivot, x)]),
                                tuple([(g // h * c - b // h * p) % n for p, c in zip(pivot, x)]))
                g = h
            x = x[1:]
            if any(x):
                rest.append(x)
        echelon.append((g, (0,) * j + pivot))
        rows = rest
    return tuple([(g, _reduce(r, echelon, n, j + 1) if g < n else r)
                  for j, (g, r) in enumerate(echelon)])


def _lex_members(echelon, bounds, level: int) -> list:
    """The residues x of the elements of the group with basis `echelon` that
    have x_j < bounds[j] at every j (a multiple of g_j: N, or a subgroup's
    pivot), in lexicographic order; column j takes x to its least residue
    x_j mod g_j and steps by r_j, and a column with g_j = N (r_j = 0) keeps x."""
    members = [(0, 0, 0, 0)]
    for j, (g, r) in enumerate(echelon):
        if g == level:
            continue
        stepped = []
        for x in members:
            m = x[j] // g
            if m:
                x = tuple([(a - m * b) % level for a, b in zip(x, r)])
            stepped.append(x)
            for _ in range(1, bounds[j] // g):
                x = tuple([(a + b) % level for a, b in zip(x, r)])
                stepped.append(x)
        members = stepped
    return members


@dataclass(frozen=True)
class TorsionSubgroup:
    """A subgroup of the level-N torsion, held as its canonical echelon basis
    (see `_howell`); two subgroups are equal exactly when their bases are.
    Made directly, it refuses any other basis; the module's own
    constructions, whose bases `_howell` made, skip that check (`_made`)."""

    level: int
    echelon: tuple

    def __post_init__(self):
        level, echelon = self.level, self.echelon
        if not (type(echelon) is tuple and len(echelon) == 4
                and all(type(e) is tuple and len(e) == 2 and type(e[0]) is int
                        and _is_point(e[1], level) for e in echelon)
                and _howell([r for _, r in echelon], level, 4) == echelon):
            raise ArgumentError(f"a subgroup is the canonical basis of a span at a level "
                                f"in 2..{MAX_LEVEL} (see `span`)")

    @property
    def order(self) -> int:
        return math.prod(self.level // g for g, _ in self.echelon)

    @functools.cached_property
    def elements(self) -> frozenset:
        """All elements, listed on first use."""
        return frozenset([TorsionPoint(x, self.level) for x in self._members()])

    def _members(self) -> list:
        return _lex_members(self.echelon, (self.level,) * 4, self.level)

    def reduce(self, p: TorsionPoint) -> tuple:
        """The residues of the lexicographically least element of p + K."""
        require(TorsionPoint, "the point", p)
        if p.level != self.level:
            raise LevelError("level mismatch")
        return _reduce(p.coords, self.echelon, self.level)

    def to_report(self):
        texts = _residue_texts(self.level)
        return [[texts[c] for c in x] for x in self._members()]


def span(gens) -> TorsionSubgroup:
    if not hasattr(gens, "__iter__"):
        raise ArgumentError(f"gens must be an iterable of TorsionPoints, not {type(gens).__name__}")
    gens = tuple(gens)
    require(TorsionPoint, "a generator", *gens)
    if not gens:
        raise ArgumentError("span of nothing; pass at least the zero point")
    level = gens[0].level
    if any(g.level != level for g in gens):
        raise LevelError("level mismatch among generators")
    return _made(TorsionSubgroup, level=level, echelon=_howell([g.coords for g in gens], level, 4))


def perp(s: TorsionSubgroup) -> TorsionSubgroup:
    """Symplectic complement inside the full level-N torsion: the kernel mod N
    of x -> (<x, r>) over the m basis rows r of s.  In the span of the rows
    (x M, x) of (M | I), M the 4 x m pairing matrix, the elements (0, x) are
    the kernel, and the Howell property gives their basis."""
    require(TorsionSubgroup, "the subgroup", s)
    n = s.level
    rows = [r for g, r in s.echelon if g < n]
    m = len(rows)
    pairings = [(r[1], -r[0] % n, r[3], -r[2] % n) for r in rows]  # <x, r> = x . pairings
    augmented = [tuple([w[i] for w in pairings] + [int(i == k) for k in range(4)])
                 for i in range(4)]
    return _kernel_past(augmented, m, n)


def intersection(a: TorsionSubgroup, b: TorsionSubgroup) -> TorsionSubgroup:
    """a & b by the Zassenhaus step over Z/N: the span of the rows (x, x) for
    x in a and (y, 0) for y in b holds (0, z) exactly when z is in both."""
    require(TorsionSubgroup, "a subgroup", a, b)
    n = a.level
    if b.level != n:
        raise LevelError("level mismatch")
    rows = [r + r for _, r in a.echelon] + [r + (0, 0, 0, 0) for _, r in b.echelon]
    return _kernel_past(rows, 4, n)


def _kernel_past(rows, split: int, level: int) -> TorsionSubgroup:
    """The x with (0, x) in the span of `rows`, each `split` residues then
    four: by the Howell property, the basis rows past column `split`."""
    echelon = _howell(rows, level, split + 4)
    return _made(TorsionSubgroup, level=level,
                 echelon=tuple([(g, r[split:]) for g, r in echelon[split:]]))


def is_isotropic(s: TorsionSubgroup) -> bool:
    require(TorsionSubgroup, "the subgroup", s)
    rows = [r for _, r in s.echelon]
    return all(_pairing_residue(a, b, s.level) == 0 for a in rows for b in rows)


@dataclass(frozen=True)
class QuotientSubgroup:
    """A subgroup of the quotient of the level-N torsion by `kernel`, held as
    its preimage `group`, which contains the kernel; two are equal exactly
    when their kernels and preimages are.  Made directly, it refuses a
    preimage that does not contain the kernel; the module's own constructions
    skip that check (`_made`)."""

    kernel: TorsionSubgroup
    group: TorsionSubgroup

    def __post_init__(self):
        kernel, group = self.kernel, self.group
        require(TorsionSubgroup, "a subgroup", kernel, group)
        if group.level != kernel.level:
            raise LevelError("level mismatch")
        if any(any(_reduce(r, group.echelon, group.level)) for _, r in kernel.echelon):
            raise ArgumentError("the preimage must contain the kernel")

    @property
    def order(self) -> int:
        return self.group.order // self.kernel.order

    @functools.cached_property
    def representatives(self) -> tuple:
        """The canonical coset representatives in order, listed on first use:
        the x in the preimage with x_j < g_j at every pivot (g_j, r_j) of the
        kernel."""
        return tuple([TorsionPoint(x, self.kernel.level) for x in self._members()])

    def _members(self) -> list:
        bounds = [g for g, _ in self.kernel.echelon]
        return _lex_members(self.group.echelon, bounds, self.kernel.level)

    def project(self, p: TorsionPoint) -> TorsionPoint:
        return TorsionPoint(self.kernel.reduce(p), p.level)

    def to_report(self):
        texts = _residue_texts(self.kernel.level)
        return [[texts[c] for c in x] for x in self._members()]


def _made(cls, **fields):
    """A `cls` with the given fields, without the check of a direct
    construction: for the module's own subgroups, whose bases `_howell` made
    and whose preimages contain their kernels."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def project_to_quotient(kernel: TorsionSubgroup, points) -> QuotientSubgroup:
    """The image of the span of `points` in the quotient by `kernel`."""
    return quotient_image(kernel, span(points))


def quotient_image(kernel: TorsionSubgroup, group: TorsionSubgroup) -> QuotientSubgroup:
    """The image of `group` in the quotient by `kernel`, held as group + kernel."""
    require(TorsionSubgroup, "a subgroup", kernel, group)
    n = kernel.level
    if group.level != n:
        raise LevelError("level mismatch")
    both = _howell([r for _, r in group.echelon + kernel.echelon], n, 4)
    return _made(QuotientSubgroup, kernel=kernel,
                 group=_made(TorsionSubgroup, level=n, echelon=both))


def ker_phi_H(kernel_mu: TorsionSubgroup) -> QuotientSubgroup:
    """The polarisation kernel of the quotient surface: the image of the
    symplectic complement of ker(mu) in the quotient by ker(mu), held as its
    preimage K^perp + K, which is K^perp since an isotropic K lies in it."""
    if not is_isotropic(kernel_mu):
        raise NotIsotropic("ker(mu) must be isotropic")
    return _made(QuotientSubgroup, kernel=kernel_mu, group=perp(kernel_mu))


def factor_intersection(kernel_mu: TorsionSubgroup, quotient_group: QuotientSubgroup,
                        factor: str) -> QuotientSubgroup:
    """Intersection of the image of one elliptic factor with a subgroup of the
    quotient by ker(mu).  factor is "E" (first two coordinates) or "F" (last two).
    With K = ker(mu) inside the preimage G, G & (factor + K) = (G & factor) + K
    (the modular law), and G & factor is where the other factor's residues vanish."""
    require(QuotientSubgroup, "quotient_group", quotient_group)
    other = {"E": slice(2, 4), "F": slice(0, 2)}.get(factor) if isinstance(factor, str) else None
    if other is None:
        raise ArgumentError("factor must be 'E' or 'F'")
    if quotient_group.kernel != kernel_mu:
        raise ArgumentError("the subgroup must lie in the quotient by kernel_mu")
    rows = [r[other] + r for _, r in quotient_group.group.echelon]
    return quotient_image(kernel_mu, _kernel_past(rows, 2, kernel_mu.level))


# ---------------------------------------------------------------------------
# The duality chain for (1,d)-polarised quotients of E x F
# ---------------------------------------------------------------------------


def _fresh(report: dict) -> dict:
    """A copy of a cached report that shares no container with it.  Reports
    hold only dicts, lists, strs, ints and bools, which marshal round-trips
    exactly and in order, in C."""
    return marshal.loads(marshal.dumps(report))


def duality_chain(d: int) -> dict:
    """Constructs A = (E x F)/<(P, Q)> with P = (1/d, 0, 0, 0),
    Q = (0, 0, 1/d, 0) and verifies, at level d:

    * |ker phi_H| = d^2, with both factor intersections equal to the image
      of <P> (resp. <Q>);
    * the quotient of A by the image of P corresponds upstairs to the
      product kernel <(P,0), (0,Q)>;
    * G = ker phi_H / <image of P> is cyclic of order d, generated by the
      image of (P', -Q') = (0, 1/d, 0, -1/d);
    * for d = 2 the generator is 2-torsion with primitive components in
      both factors (the quotient shape is preserved under duality).

    The report is built once per d (`_duality_chain`); each call returns a
    fresh copy, which the caller may change.
    """
    _require_level(d)
    return _fresh(_duality_chain(d))


@functools.cache
def _duality_chain(d: int) -> dict:
    """The report of `duality_chain(d)`, for a d that it has checked."""
    P = TorsionPoint((1, 0, 0, 0), d)
    Q = TorsionPoint((0, 0, 1, 0), d)
    PQ = P + Q
    ker_mu = span([PQ])
    kphi = ker_phi_H(ker_mu)

    e_cap = factor_intersection(ker_mu, kphi, "E")
    f_cap = factor_intersection(ker_mu, kphi, "F")

    # the quotient of A by the image of P pulls back to E x F as <P, PQ>, and
    # G = ker phi_H / <image of P> is worked with in cosets modulo <P, PQ>
    upstairs = span([P, PQ])
    g_group = quotient_image(upstairs, kphi.group)
    p_prime_minus_q_prime = TorsionPoint((0, 1, 0, d - 1), d)
    gen_class = g_group.project(p_prime_minus_q_prime)
    cyclic = quotient_image(upstairs, span([p_prime_minus_q_prime]))

    checks = {
        "ker_phi_H_order_is_d_squared": kphi.order == d * d,
        "E_cap_ker_phi_H_is_P": e_cap == quotient_image(ker_mu, span([P])),
        "F_cap_ker_phi_H_is_Q": f_cap == quotient_image(ker_mu, span([Q])),
        "A_mod_P_kernel_is_product": upstairs == span([P, Q]),
        "G_has_order_d": g_group.order == d,
        "G_generated_by_P_prime_minus_Q_prime": cyclic == g_group,
    }
    if d == 2:
        comps = p_prime_minus_q_prime.coords
        checks["dual_back_in_two_torsion_shape"] = (
            gen_class.scale(2).is_zero()
            and comps[1] == 1 and comps[3] == 1
        )
    return {
        "d": d,
        "level": d,
        "ker_mu": ker_mu.to_report(),
        "ker_phi_H": kphi.to_report(),
        "E_cap_ker_phi_H": e_cap.to_report(),
        "F_cap_ker_phi_H": f_cap.to_report(),
        "G": g_group.to_report(),
        "G_generator": gen_class.to_strings(),
        "checks": checks,
        "all_ok": all(checks.values()),
    }


# ---------------------------------------------------------------------------
# The square-lattice worked example: E = C/Z[i], A = (E x E)/<(e1, e2)>
# ---------------------------------------------------------------------------


def _alpha(p2, level: int):
    """The order-4 automorphism ((0, -1), (1, 0)) on the residues of a
    level-N torsion element of one factor."""
    u, v = p2
    return (-v % level, u)


def example_surj_report() -> dict:
    """Full bookkeeping for the square-lattice surface that a product of two
    copies of y^2 = x^3 + x produces: the order-4 automorphism action on
    2-torsion, the polarisation kernel, and the graph-curve intersections.

    Every quotient of this surface by a half-polarisation-kernel subgroup is
    a polarised product, so the surface carries no smooth genus-3 curve.

    The report is built once (`_example_surj_report`); each call returns a
    fresh copy, which the caller may change.
    """
    return _fresh(_example_surj_report())


@functools.cache
def _example_surj_report() -> dict:
    """The report of `example_surj_report()`."""
    # 2-torsion of one factor, as residues mod 2
    e2 = (1, 1)
    f2 = (1, 0)
    ef2 = ((e2[0] + f2[0]) % 2, (e2[1] + f2[1]) % 2)
    zero2 = (0, 0)

    alpha_checks = {
        "alpha_fixes_e": _alpha(e2, 2) == e2,
        "alpha_sends_f_to_e_plus_f": _alpha(f2, 2) == ef2,
        "alpha_sends_e_plus_f_to_f": _alpha(ef2, 2) == f2,
    }

    def pt(first, second, level):
        """The level-N point whose factors have the 2-torsion residues first, second."""
        return TorsionPoint(tuple([c * (level // 2) for c in first + second]), level)

    # level 2: the polarisation kernel
    kphi = ker_phi_H(span([pt(e2, e2, 2)]))

    # level 4: graph subgroups and their intersections in the quotient
    kernel4 = span([pt(e2, e2, 4)])

    def graph(transform):
        """The preimage of the image of the graph of a linear map of one factor."""
        units = [TorsionPoint(s + transform(s), 4) for s in ((1, 0), (0, 1))]
        return quotient_image(kernel4, span(units)).group

    diag_cap = _made(QuotientSubgroup, kernel=kernel4, group=intersection(
        graph(lambda s: s), graph(lambda s: (-s[0] % 4, -s[1] % 4))))
    alpha_cap = _made(QuotientSubgroup, kernel=kernel4, group=intersection(
        graph(lambda s: _alpha(s, 4)), graph(lambda s: _alpha((-s[0] % 4, -s[1] % 4), 4))))

    # the three order-2 quotients of A: each pulls back to 2-torsion of a
    # graph curve (or of the standard product), so each quotient is a product
    e_two_torsion = list(itertools.product(range(2), repeat=2))
    product_two = span([pt(e2, zero2, 2), pt(zero2, e2, 2)])
    diag_two = span([pt(s, s, 2) for s in e_two_torsion if s != zero2])
    alpha_two = span([pt(s, _alpha(s, 2), 2) for s in e_two_torsion if s != zero2])
    quotient_checks = {
        "A_mod_mu_e1_is_standard_product":
            span([pt(e2, e2, 2), pt(e2, zero2, 2)]) == product_two,
        "A_mod_mu_f1_f2_is_diagonal_product":
            span([pt(e2, e2, 2), pt(f2, f2, 2)]) == diag_two,
        "A_mod_mu_e1f1_f2_is_alpha_graph_product":
            span([pt(e2, e2, 2), pt(ef2, f2, 2)]) == alpha_two,
    }

    checks = dict(alpha_checks)
    # the hand-written lists, compared class by class
    for name, q, points in (
            ("ker_phi_A_matches_expected_list", kphi,
             [pt(zero2, zero2, 2), pt(e2, zero2, 2), pt(f2, f2, 2), pt(ef2, f2, 2)]),
            ("diagonal_intersection_matches", diag_cap, [pt(zero2, zero2, 4), pt(f2, f2, 4)]),
            ("alpha_intersection_matches", alpha_cap, [pt(zero2, zero2, 4), pt(ef2, f2, 4)])):
        checks[name] = sorted(map(q.project, points)) == list(q.representatives)
    checks.update(quotient_checks)
    return {
        "curve": "y^2 = x^3 + x (square lattice, order-4 automorphism)",
        "ker_phi_A": kphi.to_report(),
        "mu_E_diag_cap_mu_E_antidiag": diag_cap.to_report(),
        "mu_E_alpha_cap_mu_E_minus_alpha": alpha_cap.to_report(),
        "checks": checks,
        "all_ok": all(checks.values()),
    }
