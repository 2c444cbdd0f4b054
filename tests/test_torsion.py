import collections
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kleinprym import torsion
from kleinprym.errors import ArgumentError, LevelError, NotIsotropic
from kleinprym.torsion import (
    MAX_LEVEL,
    QuotientSubgroup,
    TorsionPoint,
    TorsionSubgroup,
    _duality_chain,
    _example_surj_report,
    _howell,
    _lex_members,
    _pairing_residue,
    _residue_texts,
    duality_chain,
    example_surj_report,
    factor_intersection,
    full_group,
    intersection,
    is_isotropic,
    ker_phi_H,
    perp,
    project_to_quotient,
    quotient_image,
    span,
)


def weil_pairing(x, y):
    """<x, y> in (1/N)Z/Z, read off the library's residue N <x, y> mod N."""
    return Fraction(_pairing_residue(x.coords, y.coords, x.level), x.level)


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


@pytest.mark.parametrize("coords", [b"\x01\x00\x00\x00", "1000", "0000", bytearray(4)])
def test_make_refuses_a_text_for_coords(coords):
    with pytest.raises(ArgumentError, match="coords must be four numbers"):
        TorsionPoint.make(coords, 2)


@pytest.mark.parametrize("coords,level", [
    ((5, 0, 0, 0), 4), ((-1, 0, 0, 0), 4), ((0, 0, 0, 0), 13), ((0, 0, 0, 0), 1),
    ((0, 0, 0), 4), ((Fraction(1), 0, 0, 0), 4), ((0, 0, 0, 0), 4.0), ([0, 0, 0, 0], 4),
])
def test_points_are_checked_when_constructed(coords, level):
    with pytest.raises(ArgumentError):
        TorsionPoint(coords, level)


def test_make_reduces_rationals_mod_1():
    p = pt(Fraction(-1, 4), Fraction(5, 4), 0, 0, level=4)
    assert p.coords == (3, 1, 0, 0)
    assert p.to_strings() == ["3/4", "1/4", "0", "0"]


def test_arithmetic_and_order():
    p = pt(Fraction(1, 4), 0, Fraction(3, 4), 0, level=4)
    assert (p + p).coords == (2, 0, 2, 0)
    assert (p + p.scale(-1)).is_zero()
    assert p.order() == 4
    assert p.scale(4).is_zero()
    assert p.scale(-1).coords == (3, 0, 1, 0)


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


def _coset_least(kernel, points):
    """The enumeration oracle: the coset representative of each point of the
    cosets that meet `points`, taken as min(p + k for k in kernel.elements)
    once per coset."""
    least = {}
    for p in points:
        if p not in least:
            coset = [p + k for k in kernel.elements]
            least.update(dict.fromkeys(coset, min(coset)))
    return least


def _sample_generators(level):
    rng = random.Random(level)
    points = rng.sample(full_group(level), 8)
    yield from ([p] for p in points)
    yield from ([p, q] for p, q in zip(points[::2], points[1::2]))
    # a non-isotropic pair: the first factor's full level-N torsion
    yield [pt(Fraction(1, level), 0, 0, 0, level=level),
           pt(0, Fraction(1, level), 0, 0, level=level)]


def _sample_kernels(level):
    return (span(gens) for gens in _sample_generators(level))


@pytest.mark.parametrize("level", range(2, 9))
def test_coset_reduction_matches_enumeration(level):
    points = full_group(level)
    kernels = list(_sample_kernels(level))
    assert any(not is_isotropic(k) for k in kernels)
    for kernel in kernels:
        least = _coset_least(kernel, points)
        q = project_to_quotient(kernel, points)
        assert all(q.project(p) == least[p] for p in points)
        assert list(q.representatives) == sorted(set(least.values()))
        assert q.order * kernel.order == level ** 4


def _closure(gens):
    """The enumeration oracle for span: the closure of the generators under
    addition, breadth first."""
    zero = TorsionPoint((0, 0, 0, 0), gens[0].level)
    elements, frontier = {zero}, [zero]
    while frontier:
        p = frontier.pop()
        for g in gens:
            if p + g not in elements:
                elements.add(p + g)
                frontier.append(p + g)
    return elements


def _complement(gens, points):
    """The enumeration oracle for perp: the points that pair to 0 with every
    generator under N(x1 y2 - x2 y1 + x3 y4 - x4 y3) mod N."""
    def pairs_to_zero(x, y):
        (a, b, c, d), (e, f, g, h) = x.coords, y.coords
        return (a * f - b * e + c * h - d * g) % x.level == 0
    return {x for x in points if all(pairs_to_zero(x, g) for g in gens)}


def _oracle_generators(level):
    """The sampled generator sets, a three-generator set, an isotropic pair
    found by enumeration, and the chain's kernel <(P, Q), (P, 0)>."""
    sets = list(_sample_generators(level))
    p = sets[0][0]
    q = max(_complement([p], full_group(level)) - _closure([p]))
    one = Fraction(1, level)
    return sets + [[s[0] for s in sets[:3]], [p, q],
                   [pt(one, 0, one, 0, level=level), pt(one, 0, 0, 0, level=level)]]


ALL_LEVELS = range(2, MAX_LEVEL + 1)


@pytest.mark.parametrize("level", ALL_LEVELS)
def test_span_perp_and_ker_phi_H_match_enumeration(level):
    points = full_group(level)
    gen_sets = _oracle_generators(level)
    kinds = collections.Counter()
    for gens, others in zip(gen_sets, gen_sets[1:] + gen_sets[:1]):
        kernel = span(gens)
        elements = _closure(gens)
        assert kernel.elements == elements and kernel.order == len(elements)
        complement = _complement(gens, points)
        assert perp(kernel).elements == complement
        other = _closure(others)
        least = _coset_least(kernel, other)
        image = quotient_image(kernel, span(others))
        assert list(image.representatives) == sorted({least[x] for x in other})
        if elements <= complement:
            kinds["isotropic", len(gens) > 1] += 1
            assert is_isotropic(kernel)
            least = _coset_least(kernel, complement)
            assert list(ker_phi_H(kernel).representatives) == sorted(
                {least[x] for x in complement})
        else:
            kinds["not isotropic"] += 1
            assert not is_isotropic(kernel)
            with pytest.raises(NotIsotropic):
                ker_phi_H(kernel)
    assert kinds.keys() == {("isotropic", False), ("isotropic", True), "not isotropic"}


@pytest.mark.parametrize("level", ALL_LEVELS)
def test_ker_phi_H_is_the_complement_of_an_isotropic_kernel(level):
    # K is in its complement, so the preimage K^perp + K is K^perp itself
    isotropic = 0
    for gens in _oracle_generators(level):
        kernel = span(gens)
        if is_isotropic(kernel):
            isotropic += 1
            assert ker_phi_H(kernel).group == perp(kernel)
            assert ker_phi_H(kernel) == quotient_image(kernel, perp(kernel))
    assert isotropic >= 2


@st.composite
def row_lists(draw):
    """A level in 2..12, a width in 4..8, a list of rows, and the same rows
    permuted with repeats, zero rows and sums of two rows added."""
    n, width = draw(st.integers(2, MAX_LEVEL)), draw(st.integers(4, 8))
    row = st.tuples(*[st.integers(0, n - 1)] * width)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    picks = st.sampled_from(rows)
    extra = draw(st.lists(st.one_of(
        picks, st.just((0,) * width),
        st.tuples(picks, picks).map(lambda xy: tuple((a + b) % n for a, b in zip(*xy)))),
        max_size=6))
    return n, width, rows, draw(st.permutations(rows + extra))


@given(row_lists())
@settings(max_examples=300, deadline=None)
def test_howell_basis_depends_on_the_span_alone(case):
    n, width, rows, others = case
    echelon = _howell(rows, n, width)
    assert _howell(others, n, width) == echelon
    assert _howell([r for g, r in echelon if g < n], n, width) == echelon
    for j, (g, r) in enumerate(echelon):
        assert n % g == 0 and r[:j] == (0,) * j and r[j] == g % n


@st.composite
def groups_and_bounds(draw):
    """Generators and bounds as a report passes them: each bound a positive
    multiple of its column's pivot, as N and a subgroup's pivots are."""
    n = draw(st.integers(2, MAX_LEVEL))
    gens = draw(st.lists(torsion_points(level=n), min_size=1, max_size=3))
    pivots = [g for g, _ in span(gens).echelon]
    return gens, tuple([g * draw(st.integers(1, n // g)) for g in pivots])


@given(groups_and_bounds())
@settings(max_examples=120, deadline=None)
def test_lex_members_lists_the_elements_under_the_bounds_in_order(case):
    gens, bounds = case
    group = span(gens)
    expected = sorted(x.coords for x in _closure(gens)
                      if all(c < b for c, b in zip(x.coords, bounds)))
    assert _lex_members(group.echelon, bounds, group.level) == expected


@pytest.mark.parametrize("level", ALL_LEVELS)
def test_reports_print_the_sorted_points(level):
    gen_sets = _oracle_generators(level)
    for gens, others in zip(gen_sets, gen_sets[1:] + gen_sets[:1]):
        kernel = span(gens)
        assert kernel.to_report() == [p.to_strings() for p in sorted(kernel.elements)]
        image = quotient_image(kernel, span(others))
        assert image.to_report() == [p.to_strings() for p in sorted(image.representatives)]


@pytest.mark.parametrize("level", ALL_LEVELS)
def test_subgroups_are_equal_exactly_when_their_elements_agree(level):
    gen_sets = _oracle_generators(level)
    # other generators of the same subgroups: -p for p, p + q for p, and a repeat
    gen_sets += [[gens[0].scale(-1)] + gens[1:] for gens in gen_sets]
    gen_sets += [[gens[0] + gens[-1]] + gens[1:] + gens[:1] for gens in gen_sets]
    closures = [frozenset(_closure(gens)) for gens in gen_sets]
    kernels = [span(gens) for gens in gen_sets]
    equal = 0
    for (a, ea), (b, eb) in itertools.product(zip(kernels, closures), repeat=2):
        assert (a == b) == (ea == eb)
        equal += a == b
    assert equal > 3 * len(kernels)


@pytest.mark.parametrize("level", ALL_LEVELS)
def test_perp_is_an_involution_and_orders_multiply_to_level_4(level):
    for gens in _oracle_generators(level):
        kernel = span(gens)
        assert perp(perp(kernel)) == kernel
        assert kernel.order * perp(kernel).order == level ** 4


@pytest.mark.parametrize("level", ALL_LEVELS)
def test_intersection_and_factor_intersection_match_enumeration(level):
    points = full_group(level)
    factors = {"E": [x for x in points if x.coords[2:] == (0, 0)],
               "F": [x for x in points if x.coords[:2] == (0, 0)]}
    gen_sets = _oracle_generators(level)
    for gens, others in zip(gen_sets, gen_sets[1:] + gen_sets[:1]):
        kernel = span(gens)
        assert intersection(kernel, span(others)).elements == _closure(gens) & _closure(others)
        quotients = [(quotient_image(kernel, span(others)), _closure(gens + others))]
        if is_isotropic(kernel):
            quotients.append((ker_phi_H(kernel), _complement(gens, points)))
        for factor, factor_points in factors.items():
            least = _coset_least(kernel, factor_points)
            for q, preimage in quotients:
                cap = factor_intersection(kernel, q, factor)
                expected = sorted({least[x] for x in factor_points if x in preimage})
                assert list(cap.representatives) == expected and cap.order == len(expected)


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
    assert r + p.scale(-1) in kernel.elements
    assert q.representatives == tuple(sorted({q.project(p.scale(k)) for k in range(p.level)}))
    assert all(q.project(p + k) == r for k in kernel.elements)


@pytest.mark.parametrize("d", range(2, MAX_LEVEL + 1))
def test_duality_chain_fully_verified(d):
    report = duality_chain(d)
    assert report["all_ok"], report["checks"]
    assert len(report["ker_phi_H"]) == d * d
    assert len(report["G"]) == d


@pytest.mark.parametrize("d", [1, 13, 2.0, "3", True])
def test_duality_chain_refuses_anything_but_an_int_in_range_before_the_cache(d):
    cached = _duality_chain.cache_info().currsize
    with pytest.raises(ArgumentError):
        duality_chain(d)
    assert _duality_chain.cache_info().currsize == cached


def test_cached_reports_equal_an_uncached_build():
    for d in range(2, MAX_LEVEL + 1):
        assert duality_chain(d) == _duality_chain.__wrapped__(d)
    assert example_surj_report() == _example_surj_report.__wrapped__()


@pytest.mark.parametrize("build, uncached, nested", [
    (lambda: duality_chain(3), lambda: _duality_chain.__wrapped__(3), "ker_phi_H"),
    (example_surj_report, _example_surj_report.__wrapped__, "ker_phi_A"),
])
def test_changing_a_returned_report_leaves_the_next_call_unchanged(build, uncached, nested):
    report = build()
    report[nested][0][0] = "changed"
    report[nested].append(["x"])
    report["checks"]["all"] = False
    report["checks"].clear()
    report["all_ok"] = "changed"
    report["added"] = 1
    assert build() == uncached()


def test_coordinate_texts_are_the_fractions_in_lowest_terms():
    for level in range(2, MAX_LEVEL + 1):
        for c in range(level):
            p = TorsionPoint((c, 0, level - c - 1, 0), level)
            assert p.to_strings() == [str(Fraction(c, level)), "0",
                                      str(Fraction(level - c - 1, level)), "0"]
    cached = _residue_texts.cache_info().currsize
    with pytest.raises(ArgumentError):
        TorsionPoint((1, 0, 0, 0), MAX_LEVEL + 1).to_strings()
    assert _residue_texts.cache_info().currsize == cached


def test_duality_chain_generator():
    report = duality_chain(3)
    assert report["G_generator"] == ["0", "1/3", "0", "2/3"]


def test_factor_intersection_argument_validation():
    kernel = span([pt(Fraction(1, 2), 0, Fraction(1, 2), 0, level=2)])
    q = ker_phi_H(kernel)
    with pytest.raises(ArgumentError):
        factor_intersection(kernel, q, "G")
    # a subgroup of another quotient: its E classes mod <(0, 1/4, 0, 1/4)>
    # include (0, 0, 0, 1/4), which is not an E point
    q = ker_phi_H(span([pt(0, Fraction(1, 4), 0, Fraction(1, 4), level=4)]))
    with pytest.raises(ArgumentError):
        factor_intersection(span([pt(0, 0, 0, Fraction(1, 4), level=4)]), q, "E")


def test_example_surj_all_checks_pass():
    report = example_surj_report()
    assert report["all_ok"], report["checks"]
    assert len(report["ker_phi_A"]) == 4
    assert len(report["mu_E_diag_cap_mu_E_antidiag"]) == 2
    assert len(report["mu_E_alpha_cap_mu_E_minus_alpha"]) == 2


def test_a_subgroup_made_directly_must_be_a_canonical_basis():
    # one pivot row, and its pivot 3 does not divide the level 4
    with pytest.raises(ArgumentError):
        TorsionSubgroup(4, ((3, (3, 0, 0, 0)),))
    s = span([pt(Fraction(1, 2), Fraction(1, 4), 0, 0, level=4),
              pt(0, Fraction(1, 2), 0, Fraction(1, 2), level=4)])
    assert TorsionSubgroup(4, s.echelon) == s
    first, *rest = s.echelon
    assert first == (2, (2, 1, 0, 0)) and (2, (0, 2, 0, 0)) in rest
    others = [(2, (2, 3, 0, 0)),  # the same subgroup, but not the least row
              (1, (2, 1, 0, 0)), (2.0, (2, 1, 0, 0)), (2, (2, 1, 0)), (2, [2, 1, 0, 0])]
    for echelon in [(other, *rest) for other in others] + [s.echelon[:3], list(s.echelon)]:
        with pytest.raises(ArgumentError):
            TorsionSubgroup(4, echelon)
    for level in (2, 8, 13, 4.0):
        with pytest.raises(ArgumentError):
            TorsionSubgroup(level, s.echelon)


def test_a_quotient_subgroup_made_directly_must_contain_its_kernel():
    # <(0, 1/4, 0, 0)> does not contain <(1/2, 0, 0, 0)>
    kernel = span([pt(Fraction(1, 2), 0, 0, 0, level=4)])
    group = span([pt(0, Fraction(1, 4), 0, 0, level=4)])
    with pytest.raises(ArgumentError):
        QuotientSubgroup(kernel, group)
    image = quotient_image(kernel, group)
    assert QuotientSubgroup(kernel, image.group) == image and image.order == 4
    with pytest.raises(LevelError):
        QuotientSubgroup(span([pt(0, 0, 0, 0, level=2)]), group)
    with pytest.raises(ArgumentError):
        QuotientSubgroup(kernel, group.echelon)


@pytest.mark.parametrize("level", ALL_LEVELS)
def test_every_subgroup_the_module_builds_passes_the_direct_check(level, monkeypatch):
    # with the unchecked constructors swapped for the checked ones, every
    # subgroup built inside the module is checked as if made directly
    made = collections.Counter()

    def checked(cls, **fields):
        made[cls] += 1
        return cls(**fields)

    monkeypatch.setattr(torsion, "_made", checked)
    gen_sets = _oracle_generators(level)
    for gens, others in zip(gen_sets, gen_sets[1:] + gen_sets[:1]):
        kernel = span(gens)
        perp(kernel)
        intersection(kernel, span(others))
        quotients = [project_to_quotient(kernel, others)]
        if is_isotropic(kernel):
            quotients.append(ker_phi_H(kernel))
        for q in quotients:
            for factor in "EF":
                factor_intersection(kernel, q, factor)
    assert _duality_chain.__wrapped__(level)["all_ok"]
    if level == 2:
        assert _example_surj_report.__wrapped__()["all_ok"]
    assert made[TorsionSubgroup] > 0 and made[QuotientSubgroup] > 0
