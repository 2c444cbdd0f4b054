import itertools
import json
import math
import random
import time
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

import periods_oracle
from family_oracle import model_from_rhs, oracle_factors, oracle_rhs
from periods_oracle import _branch_points, _reduce_basis, _roots_of, oracle_periods
from kleinprym.acceptance import near_locus_params, random_params
from kleinprym.algebra import Polynomial
from kleinprym.errors import ArgumentError, DomainError, PrecisionError
from kleinprym.family import (
    ELLIPTIC_LABELS,
    CurveLabel,
    check_domain,
    curve_equation,
    j_invariant,
)
from kleinprym import periods
from kleinprym.periods import (
    _GUARD_BITS,
    ComplexApprox,
    PrymPeriodMatrix,
    _cap,
    analytic_j,
    elliptic_periods_agm,
    optimal_agm,
    product_to_prym_reduction,
    prym_period_matrix,
    quotient_periods,
    riemann_check,
)

BITS = 192


def bare_factors(*coeffs):
    """The one factor (f,) of a bare squarefree f with these coefficients."""
    return (model_from_rhs(Polynomial(coeffs)),)


def approx(value, bits=BITS):
    with mpmath.workprec(bits):
        return _cap(value, bits)


def close(x, y, bits=BITS, slack=24):
    return mpmath.fabs(mpmath.mpc(x) - mpmath.mpc(y)) < mpmath.ldexp(1, -bits + slack)


def test_agm_fixed_point_and_classical_value():
    assert optimal_agm(1, 1, 128) == 1
    with mpmath.workprec(160):
        got = optimal_agm(mpmath.sqrt(2), 1, 128)
        assert close(got, mpmath.agm(mpmath.sqrt(2), 1), 128)


def test_lemniscatic_real_period():
    pair = oracle_periods(bare_factors(0, -1, 0, 1), BITS)  # y^2 = x^3 - x
    with mpmath.workprec(BITS + 32):
        expected = mpmath.pi / mpmath.agm(mpmath.sqrt(2), 1)
        assert close(mpmath.fabs(pair.omega1.imag), 0)
        assert close(mpmath.fabs(pair.omega1.real), expected)
    assert pair.tau.imag > 0
    assert close(analytic_j(pair.tau, BITS).to_mpc(), 1728)


def test_cm_quartic_twin():
    pair = oracle_periods(bare_factors(0, 1, 0, 1), BITS)  # y^2 = x^3 + x, same CM point
    assert close(analytic_j(pair.tau, BITS).to_mpc(), 1728)


def test_twist_leaves_tau_unchanged():
    base = oracle_periods(bare_factors(0, -1, 0, 1), BITS)
    twisted = oracle_periods(bare_factors(0, -16, 0, 1), BITS)
    assert close(base.tau.to_mpc(), twisted.tau.to_mpc())


def test_precision_stability():
    params = check_domain(1, 3)
    lo = elliptic_periods_agm(CurveLabel.E_s, params, 128)
    hi = elliptic_periods_agm(CurveLabel.E_s, params, 256)
    assert mpmath.fabs(lo.tau.to_mpc() - hi.tau.to_mpc()) < mpmath.ldexp(1, -120)


def test_basis_sign_does_not_depend_on_precision():
    # c (e2 - e1) is a negative real here, so the principal square root of the
    # basis scale takes its sign from rounding noise; the normal form does not
    factors = oracle_factors(CurveLabel.E_s, check_domain(Fraction(-39, 32), Fraction(-16, 33)))
    omegas = [oracle_periods(factors, bits).omega1.to_mpc() for bits in (128, 256, 1024)]
    with mpmath.workprec(128):
        expected = mpmath.mpf("1.76752266882896")
    for w in omegas:
        assert mpmath.fabs(w.imag) < mpmath.ldexp(1, -120)
        assert mpmath.fabs(w.real - expected) < 1e-14
    assert all(mpmath.fabs(w - omegas[0]) < mpmath.ldexp(1, -120) for w in omegas)


@pytest.mark.parametrize("coeffs", [
    (-1, 0, 0, 1), (1, 0, 0, 1), (-2, 0, 0, 3), (-1, 0, 0, 0, 1),
    (0, -1, 0, 1), (0, 1, 0, 1), (1, 0, 0, 0, 1)], ids=repr)
def test_cm_bases_do_not_depend_on_precision(coeffs):
    # at j = 0 all three choices of e3 score exactly alike, so rounding noise
    # must not pick the ordering (3x^3 - 2 flipped omega1 between 128 and 256
    # bits when the exact maximum broke the tie), and at tau = i or
    # e^(2 pi i/3) omega1 may sit on a boundary of the units' sector, which
    # rounding noise must not move it across either
    factors = bare_factors(*coeffs)
    ref = oracle_periods(factors, 1024)
    for bits in (128, 256):
        assert same_basis(oracle_periods(factors, bits), ref, bits), bits


@pytest.mark.parametrize("bits", [128, 256, 1024])
def test_cm_models_of_one_lattice_report_one_basis(bits):
    # y^2 = -x^3 + x has the lattice of y^2 = x^3 - x turned by i, the same
    # square lattice
    plus = oracle_periods(bare_factors(0, -1, 0, 1), bits)
    minus = oracle_periods(bare_factors(0, 1, 0, -1), bits)
    assert same_basis(plus, minus, bits)


def test_equianharmonic_real_period():
    # y^2 = x^3 - 1 has tau = e^(2 pi i/3) and a real period of minimal length
    pair = oracle_periods(bare_factors(-1, 0, 0, 1), BITS)
    w1 = pair.omega1.to_mpc()
    with mpmath.workprec(BITS + _GUARD_BITS):
        assert w1.real > 0 and mpmath.fabs(w1.imag) <= mpmath.ldexp(1, -BITS + 8) * w1.real
        assert close(pair.tau.to_mpc(), mpmath.expjpi(mpmath.mpf(2) / 3))


def test_reduce_basis_normal_form():
    bits = 128
    with mpmath.workprec(bits + _GUARD_BITS):
        i = mpmath.mpc(0, 1)
        rho = mpmath.expjpi(mpmath.mpf(1) / 3)
        cases = [(mpmath.mpc("0.5", 1), mpmath.mpc("-0.5", 1)),
                 (rho, rho ** 2), (i, i), (rho ** 2, rho ** 2)]
        for tau, expected in cases:
            w1, w2, got, _ = _reduce_basis(mpmath.mpc(1), tau, bits)
            assert close(got, expected, bits) and close(w2 / w1, expected, bits)
        w1 = mpmath.mpc(2, 1)
        assert _reduce_basis(-w1, -3 * w1 * i, bits)[:2] == (w1, 3 * w1 * i)
        # at tau = i the units turn w1 into -pi/4 < arg w1 <= pi/4
        assert _reduce_basis(i, mpmath.mpc(-1), bits)[:2] == (1, i)
        assert _reduce_basis(1 - i, 1 + i, bits)[:2] == (1 + i, i - 1)


def test_periods_reject_wrong_genus():
    params = check_domain(0, 1)
    for label in (CurveLabel.Ctilde, CurveLabel.C_is, "E_t"):
        with pytest.raises(ArgumentError):
            elliptic_periods_agm(label, params, BITS)
    with pytest.raises(ArgumentError):
        oracle_periods(oracle_factors(CurveLabel.Ctilde, params), BITS)


def test_analytic_j_classical_values():
    i = approx(mpmath.mpc(0, 1), BITS)
    assert close(analytic_j(i, BITS).to_mpc(), 1728)
    with mpmath.workprec(BITS + 32):
        rho = mpmath.mpc(1, mpmath.sqrt(3)) / 2
    assert close(analytic_j(approx(rho, BITS), BITS).to_mpc(), 0)


def test_analytic_j_rejects_lower_half_plane():
    with pytest.raises(DomainError):
        analytic_j(approx(mpmath.mpc(0, -1), BITS), BITS)


@pytest.mark.parametrize("bits", [128, 1024])
@pytest.mark.parametrize("t", [2.0 ** 30, 2.0 ** -30, 2.0 ** 70, 2.0 ** -70, 1e-300, 1e-20,
                               6.043403753606048e-131])
def test_analytic_j_on_the_imaginary_axis_ends_and_keeps_its_label(t, bits):
    # j is about e^(2 pi Im tau') at the moved tau', which the inversion of a
    # tiny Im tau rounds: each call ends quickly, with j to its label against
    # the answer at four times the bits, or with PrecisionError
    tau = complex(0, t)
    start = time.perf_counter()
    try:
        got = analytic_j(tau, bits).to_mpc()
    except PrecisionError:
        return
    finally:
        assert time.perf_counter() - start < 1, (t, bits)
    want = analytic_j(tau, 4 * bits).to_mpc()
    with mpmath.workprec(4 * bits):
        assert mpmath.fabs(got - want) <= mpmath.ldexp(mpmath.fabs(want), 8 - bits), (t, bits)


def test_analytic_j_refuses_a_tau_past_the_cap_at_once():
    # 2^-40000 i needs 40000 bits below the binary point; the unbounded
    # moves ran for over a minute on it
    start = time.perf_counter()
    with pytest.raises(PrecisionError, match="below the binary point"):
        analytic_j(mpmath.mpc(0, mpmath.ldexp(1, -40000)), 128)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("bits", [128, 1024])
@given(st.integers(-2 ** 60, 2 ** 60), st.integers(0, 64), st.floats(1, 10),
       st.integers(11, 300))
@example(6004799503160661, 54, 1.0, 100)  # the double nearest 1/3, at 1e-100
@settings(max_examples=100, deadline=None)
def test_analytic_j_off_the_imaginary_axis_keeps_its_label(bits, n, shift, m, e):
    # tau = x + i eps with a dyadic x = n/2^shift and eps = m 10^-e: the moves
    # to the fundamental domain magnify any rounding of Re tau, so j has its
    # label against the answer at four times the bits, or PrecisionError
    with mpmath.workprec(128):
        tau = mpmath.mpc(mpmath.ldexp(n, -shift), m * 10.0 ** -e)
    try:
        got = analytic_j(tau, bits).to_mpc()
    except PrecisionError:
        return
    want = analytic_j(tau, 4 * bits).to_mpc()
    with mpmath.workprec(4 * bits):
        assert mpmath.fabs(got - want) <= mpmath.ldexp(mpmath.fabs(want), 8 - bits)


def test_analytic_j_matches_exact_j_on_family():
    params = check_domain(1, 3)
    for label in (CurveLabel.E_t, CurveLabel.E_is_it):
        pair = elliptic_periods_agm(label, params, BITS)
        exact = j_invariant(curve_equation(label, params))
        with mpmath.workprec(BITS):
            target = mpmath.mpf(exact.numerator) / exact.denominator
        assert close(analytic_j(pair.tau, BITS).to_mpc(), target, slack=48)


def _i(bits=BITS):
    return approx(mpmath.mpc(0, 1), bits)


def test_prym_matrix_substitution():
    m = prym_period_matrix(_i(), _i())
    rows = m.to_mpc_rows()
    assert rows[0] == [mpmath.mpc(0, 1), mpmath.mpc(0, 1), 1, 0]
    assert rows[1] == [mpmath.mpc(0, 1), mpmath.mpc(0, 2), 0, 2]
    assert m.polarization == (1, 2)


def test_prym_matrix_rejects_lower_half_plane():
    with pytest.raises(DomainError):
        prym_period_matrix(_i(), approx(mpmath.mpc(0, -1), BITS))


@pytest.mark.parametrize("bits", [0, 8, 63])
def test_the_library_enforces_the_precision_floor(bits):
    params = check_domain(Fraction(7, 5), Fraction(-13, 4))
    for compute in (lambda: periods.periods_report(params, bits),
                    lambda: quotient_periods(params, bits),
                    lambda: elliptic_periods_agm(CurveLabel.E_t, params, bits),
                    lambda: analytic_j(_i(), bits)):
        with pytest.raises(DomainError):
            compute()


@pytest.mark.parametrize("call", [
    lambda: periods.periods_report((Fraction(7, 5), Fraction(-13, 4)), 256),
    lambda: elliptic_periods_agm(CurveLabel.E_t, (0, 1), 256),
    lambda: periods.periods_report(check_domain(0, 1), 256.0),
    lambda: periods.periods_report(check_domain(0, 1), True),
    lambda: elliptic_periods_agm(CurveLabel.E_t, check_domain(0, 1), "256"),
    lambda: analytic_j(_i(), 256.0),
    lambda: quotient_periods(check_domain(0, 1), None),
], ids=["report-tuple", "agm-tuple", "report-float-bits", "report-bool-bits", "agm-text-bits",
        "j-float-bits", "quotient-none-bits"])
def test_the_library_refuses_wrong_types(call):
    with pytest.raises(ArgumentError):
        call()


def test_elliptic_periods_agm_is_the_report_basis():
    params = check_domain(Fraction(7, 5), Fraction(-13, 4))
    bases, _ = quotient_periods(params, 256)
    for label in ELLIPTIC_LABELS:
        assert elliptic_periods_agm(label, params, 256) == bases[label]
    assert elliptic_periods_agm(CurveLabel.E_t, params) == elliptic_periods_agm(
        CurveLabel.E_t, params, 256)


@pytest.mark.parametrize("bits", [256, 4096])
def test_elliptic_periods_agm_runs_no_j_closure(bits, monkeypatch):
    params = check_domain(Fraction(7, 5), Fraction(-13, 4))
    bases, _ = quotient_periods(params, bits)

    def refuse(*args):
        raise AssertionError("elliptic_periods_agm ran a q-series")

    monkeypatch.setattr(periods, "_theta_squares", refuse)
    monkeypatch.setattr(periods, "_real_theta_squares", refuse)
    for label in ELLIPTIC_LABELS:
        assert elliptic_periods_agm(label, params, bits) == bases[label]
    # the report's own series is refused too
    with pytest.raises(AssertionError, match="ran a q-series"):
        quotient_periods(params, bits)


def test_riemann_check_square_lattice():
    residual, min_eig = riemann_check(prym_period_matrix(_i(), _i()))
    assert residual < mpmath.ldexp(1, -BITS + 16)
    # 2 Im Z = ((2,2),(2,4)), eigenvalues 3 +- sqrt(5)
    with mpmath.workprec(BITS):
        assert close(min_eig, 3 - mpmath.sqrt(5), slack=32)


def test_riemann_check_flags_indefinite_matrix():
    i = mpmath.mpc(0, 1)
    rows = ((i, i, 1, 0), (i, mpmath.mpc(0), 0, 2))  # z2 = -i breaks positivity
    bad = PrymPeriodMatrix(tuple(
        tuple(approx(e, BITS) for e in row) for row in rows))
    _, min_eig = riemann_check(bad)
    assert min_eig < 0


@pytest.mark.parametrize("rows,cancels", [
    ((((0, 1), (0, 1), (1, 0), (0, 0)), ((0, 1), (0, 0), (0, 0), (2, 0))), True),
    ((((".3", "1.7"), ("-1.1", ".4"), ("2.5", "-.6"), (".8", ".9")),
      (("-.7", ".2"), ("1.3", "2.1"), (".4", "-1.9"), ("-1.6", ".5"))), False),
], ids=["indefinite", "generic"])
@pytest.mark.parametrize("bits", [BITS, 1024])
def test_riemann_check_matches_the_matrix_products(rows, cancels, bits):
    # both relations against Pi E^-1 Pi^T and i Pi E^-1 Pi^* from mpmath
    # matrices, E = ((0, D), (-D, 0)) for D = diag(1, 2); the indefinite
    # matrix's residual cancels exactly, the generic one's does not
    matrix = PrymPeriodMatrix(tuple(
        tuple(approx(mpmath.mpc(*e), bits) for e in row) for row in rows))
    residual, min_eig = riemann_check(matrix)
    assert (residual == 0) is cancels
    with mpmath.workprec(bits + _GUARD_BITS):
        pi = mpmath.matrix(matrix.to_mpc_rows())
        e = mpmath.matrix([[0, 0, 1, 0], [0, 0, 0, 2], [-1, 0, 0, 0], [0, -2, 0, 0]])
        einv = mpmath.inverse(e)
        sym = pi * einv * pi.T
        herm = mpmath.mpc(0, 1) * (pi * einv * pi.H)
        want_residual = max(mpmath.fabs(sym[i, j]) for i in range(2) for j in range(2))
        want_min_eig = min(mpmath.eigh(herm, eigvals_only=True))
        for got, want in ((residual, want_residual), (min_eig, want_min_eig)):
            assert mpmath.fabs(got - want) <= mpmath.ldexp(1, 8 - bits) * max(1, mpmath.fabs(want))


def test_embedding_columns_are_lattice_vectors():
    z1 = _i()
    z2 = approx(mpmath.mpc(0, 2), BITS)
    rows = prym_period_matrix(z1, z2).to_mpc_rows()
    col = lambda c: mpmath.matrix([rows[0][c], rows[1][c]])
    # z1 * (1,1) is column 1 and 2 * (1,1) equals 2*col3 + col4
    assert close(z1.to_mpc() * 1 - rows[0][0], 0) and close(z1.to_mpc() - rows[1][0], 0)
    assert close(2 - (2 * rows[0][2] + rows[0][3]), 0)
    assert close(2 - (2 * rows[1][2] + rows[1][3]), 0)


def test_reduction_trace_matches_documented_matrices():
    # the reduction for symbolic z1, z2: the basis change, the quotient that
    # halves the third lattice column and the shear ((1, 0), (1, 1)) give the
    # documented intermediate and final matrices, and the basis change keeps
    # the (2, 2) form
    s1, s2 = sympy.symbols("z1 z2")
    basis_change = sympy.Matrix(periods._BASIS_CHANGE)
    form = sympy.Matrix(periods._SYM_FORM_22)
    assert basis_change.T * form * basis_change == form
    mid = sympy.Matrix([[s1, 0, 2, 0], [0, s2, 0, 2]]) * basis_change
    mid[:, 2] /= 2
    assert mid == sympy.Matrix([[s1, s1, 1, 0], [0, s2, -1, 2]])
    assert sympy.Matrix([[1, 0], [1, 1]]) * mid == sympy.Matrix(
        [[s1, s1, 1, 0], [s1, s1 + s2, 0, 2]])

    # the function computes that trace, and its final matrix is the Prym matrix
    z1 = _i()
    z2 = approx(mpmath.mpc("0.5", "1.5"), BITS)
    trace = product_to_prym_reduction(z1, z2)
    w1, w2 = z1.to_mpc(), z2.to_mpc()
    mid = [[e.to_mpc() for e in row] for row in trace.after_quotient]
    assert mid[0] == [w1, w1, 1, 0]
    assert mid[1] == [0, w2, -1, 2]
    final = [[e.to_mpc() for e in row] for row in trace.final]
    expected = prym_period_matrix(z1, z2).to_mpc_rows()
    assert final == expected


def test_report_shape():
    from kleinprym.periods import periods_report
    report = periods_report(check_domain(0, 1), 128)
    assert set(report["periods"]) == {l.value for l in
                                      (CurveLabel.E_s, CurveLabel.E_t, CurveLabel.E_st,
                                       CurveLabel.E_is_t, CurveLabel.E_s_it,
                                       CurveLabel.E_is_it)}
    assert all(Fraction(v) < Fraction(1, 10**8) for v in report["analytic_vs_exact_j"].values())
    assert report["riemann_min_eigenvalue"] > 0
    assert report["reduction_symplectic"]


def test_to_mpc_keeps_the_labelled_precision():
    with mpmath.workprec(512):
        third = mpmath.mpf(1) / 3
    z = ComplexApprox(third, third, 256)
    value = z.to_mpc()  # ambient precision is 53 bits here
    with mpmath.workprec(512):
        assert mpmath.fabs(value.real - third) < mpmath.ldexp(1, -250)


def test_prym_matrix_keeps_the_labelled_precision_at_a_generic_point():
    bits = 256
    params = check_domain(Fraction(7, 5), Fraction(-13, 4))
    z1 = elliptic_periods_agm(CurveLabel.E_t, params, bits).tau
    z2 = elliptic_periods_agm(CurveLabel.E_st, params, bits).tau
    entry = prym_period_matrix(z1, z2).entries[0][0].to_mpc()
    final = product_to_prym_reduction(z1, z2).final[0][0].to_mpc()
    with mpmath.workprec(bits + _GUARD_BITS):
        assert mpmath.fabs(entry - z1.to_mpc()) < mpmath.ldexp(1, -240)
        assert mpmath.fabs(entry - final) < mpmath.ldexp(1, -240)


def test_a_prym_matrix_of_mixed_labels_carries_the_smaller(monkeypatch):
    # z1 = i sqrt(2) at 128 bits and z2 at 4096: each entry has z1's bits
    # only, so it carries z1's label, and riemann_check runs at it
    with mpmath.workprec(4096 + _GUARD_BITS):
        exact = mpmath.mpc(0, mpmath.sqrt(2))
        z1, z2 = approx(exact, 128), approx(exact * 2, 4096)
    matrix = prym_period_matrix(z1, z2)
    trace = product_to_prym_reduction(z1, z2)
    assert matrix.precision_bits == 128
    for rows in (matrix.entries, trace.product_matrix, trace.final):
        assert {e.precision_bits for row in rows for e in row} == {128}
    with mpmath.workprec(4096):
        assert mpmath.fabs(matrix.entries[0][0].to_mpc() - exact) < mpmath.ldexp(1, -120)
    precisions, workprec = [], mpmath.workprec

    def recorded(bits):
        precisions.append(bits)
        return workprec(bits)

    monkeypatch.setattr(mpmath, "workprec", recorded)
    riemann_check(matrix)
    assert precisions[0] == 128 + _GUARD_BITS


# ---------------------------------------------------------------------------
# Oracles for the fast paths: the general path of tests/periods_oracle.py
# (polyroots and the complex AGM) for the closed forms, the Eisenstein
# q-expansion for the theta-constant j
# ---------------------------------------------------------------------------


def _oracle_points():
    rng = random.Random(9)
    points = [random_params(rng) for _ in range(3)]
    points += [random_params(rng, height=10**6) for _ in range(3)]
    return points + near_locus_params(points[0].a)


ORACLE_POINTS = _oracle_points()


@pytest.mark.parametrize("params", ORACLE_POINTS, ids=repr)
def test_factor_roots_match_polyroots(params):
    for label in ELLIPTIC_LABELS:
        model = curve_equation(label, params)
        with mpmath.workprec(BITS + _GUARD_BITS):
            split = _branch_points(oracle_factors(label, params), BITS)
            oracle = _roots_of(model, BITS)
            assert len(split) == len(oracle) == model.degree
            for r in split:
                nearest = min(oracle, key=lambda s: mpmath.fabs(s - r))
                assert (mpmath.fabs(nearest - r)
                        <= mpmath.ldexp(1, -BITS + 8) * max(1, mpmath.fabs(r))), label
                oracle.remove(nearest)


def same_basis(p, q, bits):
    """omega1, omega2 and tau of two PeriodPairs agree to about bits bits."""
    with mpmath.workprec(bits + _GUARD_BITS):
        return all(mpmath.fabs(x - y) <= mpmath.ldexp(1, -bits + 8) * mpmath.fabs(y)
                   for x, y in ((getattr(p, f).to_mpc(), getattr(q, f).to_mpc())
                                for f in ("omega1", "omega2", "tau")))


@pytest.mark.parametrize("params", ORACLE_POINTS, ids=repr)
def test_stored_factors_leave_tau_unchanged(params):
    # the basis depends on the lattice alone: not on the order of the oracle's
    # factors, which fixes the root sent to infinity and the scored orderings,
    # nor on whether the roots come from the factors or from rhs by polyroots
    for label in ELLIPTIC_LABELS:
        table = oracle_factors(label, params)
        fast = oracle_periods(table, BITS)
        for factors in [*itertools.permutations(table), (oracle_rhs(label, params),)]:
            other = oracle_periods(factors, BITS)
            assert same_basis(other, fast, BITS), (label, factors)


def in_normal_form(pair, bits):
    """tau in the closed fundamental domain and omega1 in the right
    half-plane, each boundary up to 2^(-bits/2)."""
    eps = mpmath.ldexp(1, -bits // 2)
    with mpmath.workprec(bits + _GUARD_BITS):
        tau, w1 = pair.tau.to_mpc(), pair.omega1.to_mpc()
        norm = mpmath.fabs(tau) ** 2
        return (-mpmath.mpf(1) / 2 - eps <= tau.real < mpmath.mpf(1) / 2 + eps
                and norm >= 1 - eps and (norm >= 1 + eps or tau.real <= eps)
                and (w1.real >= -eps * mpmath.fabs(w1))
                and (w1.real >= eps * mpmath.fabs(w1) or w1.imag > 0))


CANONICAL_POINTS = ORACLE_POINTS + [
    check_domain(Fraction(a), Fraction(b)) for a, b in (
        ("33/4", "-15/4"), ("7/2", "-29/11"), ("-4/13", "25"),
        ("-299393/28297", "64913/139862"))]


@pytest.mark.parametrize("params", CANONICAL_POINTS, ids=repr)
def test_reduced_basis_is_canonical(params):
    # the basis depends on the lattice alone: the same at every precision;
    # 1e-10 from a = b the cross-ratio is too close to the cuts for 128 bits
    for label in ELLIPTIC_LABELS:
        factors = oracle_factors(label, params)
        ref = oracle_periods(factors, 1024)
        assert in_normal_form(ref, 1024), label
        for bits in (128, 256):
            try:
                pair = oracle_periods(factors, bits)
            except PrecisionError:
                assert bits == 128 and params.b - params.a == Fraction(1, 10**10), label
                continue
            assert in_normal_form(pair, bits), (label, bits)
            assert same_basis(pair, ref, bits), (label, bits)


def test_tied_orderings_give_the_reduced_tau():
    # lambda and 1 - lambda tie and give tau = 0.5729...i and -1/tau; the
    # normal form takes -1/tau, whose modulus is at least 1
    factors = oracle_factors(CurveLabel.E_s, check_domain(Fraction(23, 42), Fraction(-7, 15)))
    tau = oracle_periods(factors, BITS).tau.to_mpc()
    with mpmath.workprec(BITS):
        expected = mpmath.mpc(0, "1.7452550495816463553")
        assert mpmath.fabs(tau - expected) < 1e-18


def _lambert_j(tau, bits):
    """j(tau) = 1728 E4^3 / (E4^3 - E6^2) from the Lambert series of the
    Eisenstein series, the analytic j before the theta constants."""
    with mpmath.workprec(bits + _GUARD_BITS):
        tau = _reduce_basis(mpmath.mpc(1), tau.to_mpc(), bits)[2]
        q = mpmath.exp(2 * mpmath.pi * mpmath.mpc(0, 1) * tau)
        e4 = e6 = qn = mpmath.mpc(1)
        cutoff = mpmath.ldexp(1, -bits - 16)
        for n in range(1, 64 * bits):
            qn *= q
            term = qn / (1 - qn)
            e4 += 240 * n ** 3 * term
            e6 -= 504 * n ** 5 * term
            if n ** 5 * mpmath.fabs(qn) < cutoff:
                break
        e4_cubed = e4 ** 3
        return 1728 * e4_cubed / (e4_cubed - e6 ** 2)


@pytest.mark.parametrize("bits", [128, 1024, 4096])
def test_theta_j_matches_lambert_series(bits):
    with mpmath.workprec(bits + _GUARD_BITS):
        taus = [approx(mpmath.mpc(0, 1), bits),
                approx(mpmath.mpc(1, mpmath.sqrt(3)) / 2, bits)]
    params = check_domain(Fraction(7, 5), Fraction(-13, 4))
    taus += [elliptic_periods_agm(label, params, bits).tau for label in ELLIPTIC_LABELS]
    for tau in taus:
        got = analytic_j(tau, bits).to_mpc()
        expected = _lambert_j(tau, bits)
        with mpmath.workprec(bits + _GUARD_BITS):
            assert (mpmath.fabs(got - expected)
                    <= mpmath.ldexp(1, -bits + 8) * max(1, mpmath.fabs(expected)))


def test_analytic_j_takes_no_complex_log(monkeypatch):
    # mpmath raises an mpc to the power n through a complex log and exp once n
    # times the mantissa size passes 10000 bits; analytic_j multiplies instead.
    # At tau = i the theta constants are real; E_st's tau makes them complex
    bits = 4096
    params = check_domain(Fraction(7, 5), Fraction(-13, 4))
    taus = [_i(bits), elliptic_periods_agm(CurveLabel.E_st, params, bits).tau]
    expected = [_lambert_j(tau, bits) for tau in taus]

    def no_log(*args):
        raise AssertionError("mpc_log called")

    monkeypatch.setattr(mpmath.libmp.libmpc, "mpc_log", no_log)
    for tau, want in zip(taus, expected):
        got = analytic_j(tau, bits).to_mpc()
        with mpmath.workprec(bits + _GUARD_BITS):
            assert mpmath.fabs(got - want) <= mpmath.ldexp(1, -bits + 8) * max(1, mpmath.fabs(want))


def _full_agm(a, b, bits):
    """M(a, b) by optimal_agm's steps, stopped only once
    |a - b|^2 <= 2^(-2 bits - 64) |a|^2, one square root later than it."""
    with mpmath.workprec(bits + _GUARD_BITS):
        a, b = mpmath.mpc(a), mpmath.mpc(b)
        eps2 = mpmath.ldexp(1, -2 * bits - _GUARD_BITS)
        while mpmath.fabs(a - b) ** 2 > eps2 * mpmath.fabs(a) ** 2:
            a, b = (a + b) / 2, mpmath.sqrt(a * b)
            dot = a.real * b.real + a.imag * b.imag
            if dot < 0 or (dot == 0 and mpmath.im(b / a) < 0):
                b = -b
        return (a + b) / 2


@pytest.mark.parametrize("bits", [128, 1024, 4096])
def test_agm_matches_the_full_stopping_rule(bits, monkeypatch):
    # the inputs are (1, sqrt(1 - lambda)) and (1, sqrt(lambda)) of every quotient
    calls = []

    def record(a, b, precision_bits):
        calls.append((a, b))
        return optimal_agm(a, b, precision_bits)

    monkeypatch.setattr(periods_oracle, "optimal_agm", record)
    for params in (ORACLE_POINTS[0], ORACLE_POINTS[3], ORACLE_POINTS[7]):
        for label in ELLIPTIC_LABELS:
            oracle_periods(oracle_factors(label, params), bits)
    assert len(calls) == 36
    for a, b in calls:
        got = optimal_agm(a, b, bits)
        expected = _full_agm(a, b, bits + 128)
        with mpmath.workprec(bits + 128):
            assert mpmath.fabs(got - expected) <= mpmath.ldexp(1, -bits) * mpmath.fabs(expected)


def _near_a_locus(params):
    a, b = params.a, params.b
    return min(abs(a - b), abs(a * a - 4), abs(b * b - 4)) < Fraction(1, 10**9)


PARTNER_POINTS = CANONICAL_POINTS + [check_domain(0, 1)] + near_locus_params(Fraction(7, 5))


@pytest.mark.parametrize("bits", [128, 256, 1024])
def test_partner_bases_match_the_direct_agm(bits, monkeypatch):
    # periods_report takes E_is_t, E_is_it and E_s_it from their exact
    # Legendre data and E_t, E_st and E_s from those lattices; the general
    # path of the oracle on each own model gives the same reduced
    # basis, with the kernel's half-period in each of the three Legendre slots.
    # At (0, 1) two of E_is_t's three 2-isogenous lattices have E_t's j and
    # differ by the unit i, so only the right kernel gives E_t's omega1
    kernels = set()
    quotient_lattice = periods._quotient_lattice

    def record(r, h, e, t, scale):
        kernels.add(t)
        return quotient_lattice(r, h, e, t, scale)

    monkeypatch.setattr(periods, "_quotient_lattice", record)
    for params in PARTNER_POINTS:
        bases, _ = quotient_periods(params, bits)
        for label in ELLIPTIC_LABELS:
            try:
                direct = oracle_periods(oracle_factors(label, params), bits)
            except PrecisionError:
                assert _near_a_locus(params), (params, label)
                continue
            assert same_basis(bases[label], direct, bits), (params, label)
    assert kernels == {(0, 1), (1, 0), (1, 1)}


def _exact_legendre_data(params, points):
    """(lambda, c, (i1, i2, i3)) of the partner branched at r0, r1 = -a, -b and
    the triple points points = (r2, r3), recomputed from its rational roots:
    the ordering (e1, e2, e3) of the e_j with 0 < lambda < 1/2, or
    lambda = 1/2 and e1 < e2, found by search.  A cubic's e_j are its roots;
    a quartic's x = r3 + 1/u gives e_j = 1/(r_j - r3) and turns the lead 1
    into prod (r3 - r_j)."""
    r2, r3 = points
    e, lead = [-params.a, -params.b, Fraction(r2)], Fraction(1)
    if r3 is not None:
        for r in e:
            lead *= r3 - r
        e = [1 / (r - r3) for r in e]
    for order in itertools.permutations(range(3)):
        e1, e2, e3 = (e[i] for i in order)
        lam = (e3 - e1) / (e2 - e1)
        if 0 < lam < Fraction(1, 2) or (lam == Fraction(1, 2) and e1 < e2):
            return lam, lead * (e2 - e1), order


def test_partners_are_the_family_models_branched_at_their_points():
    # _PARTNERS names each partner's branch points besides -a and -b: the
    # family's model of the partner is monic, of degree 2 + the number of
    # finite points listed, and vanishes at -a, -b and each of them
    rng = random.Random(27)
    draws = [random_params(rng, height=h) for h in (50, 10**6) for _ in range(20)]
    for params in draws:
        for partner, _, _, points in periods._PARTNERS:
            rhs = curve_equation(partner, params)
            finite = [Fraction(p) for p in points if p is not None]
            assert rhs.leading == 1 and rhs.degree == 2 + len(finite), (params, partner)
            for root in (-params.a, -params.b, *finite):
                value = sympy.Poly(rhs.coeffs[::-1], sympy.Symbol("x")).eval(root)
                assert value == 0, (params, partner, root)


def test_a_partner_branched_at_the_wrong_points_fails_the_report(monkeypatch):
    # with the +-2 of E_is_t and E_is_it swapped, each partner's lattice is
    # another curve's, and the closure against the exact j refuses the report
    (t, t_label, t_scale, t_points), (it, it_label, it_scale, it_points), s_it = periods._PARTNERS
    monkeypatch.setattr(periods, "_PARTNERS", ((t, t_label, t_scale, it_points),
                                               (it, it_label, it_scale, t_points), s_it))
    with pytest.raises(PrecisionError):
        periods.periods_report(check_domain(Fraction(7, 5), Fraction(-13, 4)), 256)


def _rounded(x):
    return mpmath.fdiv(x.numerator, x.denominator)


@pytest.mark.parametrize("bits", [128, 1024])
def test_exact_legendre_step_matches_the_general_formula(bits):
    # the integer Legendre data of each AGM partner are its exact lambda in
    # (0, 1/2] and c = lead (e2 - e1) of the ordering with r3 sent to
    # infinity, and r2's slot in it; its first basis
    # (2 K(lambda), 2 i K(1 - lambda))/sqrt(c) on the principal branch is
    # (R, iH) for c > 0 and (-iH, R) for c < 0, with R, H from the integer
    # periods; both signs of c occur
    signs = set()
    for params in PARTNER_POINTS:
        for partner, _, _, points in periods._PARTNERS:
            with mpmath.workprec(bits + _GUARD_BITS):
                lam, c, slot = periods._legendre_data(params, points)
                assert lam[1] > 0 and c[1] > 0
                exact_lam, exact_c, order = _exact_legendre_data(params, points)
                assert Fraction(*lam) == exact_lam and Fraction(*c) == exact_c
                assert slot == 1 + order.index(2)
                signs.add(exact_c > 0)
                r, h, e = periods._partner_lattice(lam, c, mpmath.mp.prec + 20)
                r, h = mpmath.mpf((r, -e)), mpmath.mpf((h, -e))
                omega1, omega2 = (r, 1j * h) if exact_c > 0 else (-1j * h, r)
                scale = 1 / mpmath.sqrt(mpmath.mpc(_rounded(exact_c)))
                want1 = scale * 2 * periods_oracle._complete_K(_rounded(1 - exact_lam), bits)
                want2 = scale * 2j * periods_oracle._complete_K(_rounded(exact_lam), bits)
                for got, want in ((omega1, want1), (omega2, want2)):
                    assert (mpmath.fabs(got - want)
                            <= mpmath.ldexp(1, 8 - bits) * mpmath.fabs(want)), (params, partner)
    assert signs == {True, False}


@pytest.mark.parametrize("a,b,order", [(3, 1, (0, 1, 2)), (1, 3, (1, 0, 2))])
def test_a_lambda_tie_puts_the_smaller_root_first(a, b, order):
    # E_is_t has the roots -a, -b, -2 and infinity: -2 is the midpoint of -3
    # and -1, so both orderings of the outer roots give lambda = 1/2, and -3
    # comes first, which makes c = e2 - e1 positive
    params = check_domain(a, b)
    lam, c, slot = periods._legendre_data(params, (-2, None))
    exact_lam, exact_c, exact_order = _exact_legendre_data(params, (-2, None))
    assert exact_order == order and slot == 3
    assert Fraction(*lam) == exact_lam == Fraction(1, 2)
    assert Fraction(*c) == exact_c > 0


def _closed_form_lattices(rng, bits):
    """(R, H, e): partner rectangles Z R + Z iH as integers at the scale 2^e,
    drawn at random and at the square and the two hexagonal ties, each tie
    also moved by a relative +-2^(-bits/2 +- 4), inside and outside the
    2^(-bits/2) band of _reduce_basis."""
    e = bits + _GUARD_BITS + 20
    lattices = []
    for _ in range(6):
        r = rng.randrange(1 << e, 8 << e)
        lattices.append((r, rng.randrange(r >> 4, r << 4), e))
    for _ in range(2):
        r = rng.randrange(1 << e, 8 << e)
        # the rectangle r by h and the rhombus of r and h are square at h = r,
        # the rhombus hexagonal at h^2 = 3 r^2 and r^2 = 3 h^2, and the
        # rectangles r/2 by h and r by h/2 square at h = r/2 and h = 2 r
        for h in (r, math.isqrt(3 * r * r), math.isqrt(r * r // 3), r // 2, 2 * r):
            lattices.append((r, h, e))
            for k in (bits // 2 - 4, bits // 2 + 4):
                lattices += [(r, h + (h >> k), e), (r, h - (h >> k), e)]
    return lattices


def _mpc_pair(pair):
    # the stored values, before to_mpc rounds them to the label
    return [mpmath.mpc(z.real, z.imag) for z in (pair.omega1, pair.omega2, pair.tau)]


def _assert_same_reduction(got, reduced, bits, where):
    # the basis equals _reduce_basis's, and tau is w2/w1 of that basis, as
    # is _reduce_basis's own tau, also after a unit turned its basis
    w1, w2, tau = got
    want1, want2, want_tau = reduced
    tolerance = mpmath.ldexp(1, -bits - 16)
    assert mpmath.fabs(w1 - want1) <= tolerance * mpmath.fabs(want1), where
    assert mpmath.fabs(w2 - want2) <= tolerance * mpmath.fabs(want2), where
    assert mpmath.fabs(tau - want2 / want1) <= tolerance * mpmath.fabs(tau), where
    assert mpmath.fabs(tau - want_tau) <= tolerance * mpmath.fabs(tau), where


@pytest.mark.parametrize("bits", [128, 256, 1024, 4096])
def test_closed_normal_forms_match_the_general_reduction(bits):
    # quotient_periods puts the partner's rectangle and the quotient's
    # rectangle or rhombus in normal form in closed form; _reduce_basis gives
    # the same basis and kernel class from the Legendre step's first basis,
    # (R, iH) for c > 0 and (-iH, R) for c < 0, and from the basis
    # (omega1, omega2/2), (omega1/2, omega2) or (omega1, (omega1 + omega2)/2)
    # of scale (L + Z t), for each class of t and scale
    rng = random.Random(bits)
    slack = (bits + 1) // 2
    shapes = set()
    for r, h, e in _closed_form_lattices(rng, bits):
        with mpmath.workprec(bits + _GUARD_BITS):
            big_r, big_h = mpmath.mpf((r, -e)), mpmath.mpf((h, -e))
            for positive in (True, False):
                omega1, omega2 = ((mpmath.mpc(big_r), mpmath.mpc(0, big_h)) if positive
                                  else (mpmath.mpc(0, -big_h), mpmath.mpc(big_r)))
                for kernel in ((0, 1), (1, 0), (1, 1)):
                    t = kernel if positive else kernel[::-1]
                    where = (r, h, positive, kernel)
                    # the class of t is t in (r, ih) and its swap in (ih, -r)
                    basis = periods._rectangle_form(r, h, slack)
                    reduced_kernel = t if basis[0] == (2, 0) else t[::-1]
                    *reduced, want_kernel = _reduce_basis(omega1, omega2, bits, kernel)
                    _assert_same_reduction(_mpc_pair(periods._pair(basis, r, h, e, bits)),
                                           reduced, bits, where)
                    assert reduced_kernel == want_kernel, where
                    for scale in (1, 2):
                        w1, w2 = {(0, 1): (omega1, omega2 / 2), (1, 0): (omega1 / 2, omega2),
                                  (1, 1): (omega1, (omega1 + omega2) / 2)}[kernel]
                        form, x, y, ex = periods._quotient_lattice(r, h, e, t, scale)
                        shapes.add(form(x, y, slack))
                        _assert_same_reduction(
                            _mpc_pair(periods._pair(form(x, y, slack), x, y, ex, bits)),
                            _reduce_basis(scale * w1, scale * w2, bits)[:3], bits,
                            where + (scale,))
    # both rectangle forms and all four rhombus forms occur
    assert len(shapes) == 6


# every basis that `_rectangle_form` and `_rhombus_form` return
FORM_BASES = (((2, 0), (0, 2)), ((0, 2), (-2, 0)), ((2, 0), (-1, 1)), ((0, 2), (-1, -1)),
              ((1, -1), (1, 1)), ((1, 1), (-1, 1)))


def _three_branch_tau(basis, x, y, wp):
    """tau = w2/w1 of `_pair` as integers at the scale 2^wp, by a branch on
    the shape of w1 = (a x + i b y)/2: the oracle for `_pair`'s one formula."""
    (a, b), (c, d) = basis
    if a and b:  # a^2 = b^2 = 1: multiply by conj(w1)/|w1|^2
        xx, yy = x * x, y * y
        re, im, norm = a * c * xx + b * d * yy, (a * d - b * c) * x * y, xx + yy
    elif b:      # w1 = i b y/2
        re, im, norm = d * y, -c * x, b * y
    else:        # w1 = a x/2
        re, im, norm = c * x, d * y, a * x
    return (re << wp) // norm, (im << wp) // norm


@settings(max_examples=200, deadline=None)
@given(x=st.integers(1, 2 ** 300), y=st.integers(1, 2 ** 300), e=st.integers(-600, 600),
       wp=st.integers(64 + periods._FIXED_GUARD_BITS, 4096), slack=st.integers(1, 64))
@example(x=3, y=5, e=0, wp=148, slack=8)
def test_pair_tau_is_the_three_branch_formula(x, y, e, wp, slack):
    # `_pair` rounds each of its integers once through `_from_fixed`, tau's
    # last: record them
    assert {periods._rectangle_form(x, y, slack), periods._rhombus_form(x, y, slack)} <= set(
        FORM_BASES)
    from_fixed, fixed = periods._from_fixed, []

    def record(v, shift):
        fixed.append((v, shift))
        return from_fixed(v, shift)

    with pytest.MonkeyPatch.context() as patch, mpmath.workprec(wp - periods._FIXED_GUARD_BITS):
        patch.setattr(periods, "_from_fixed", record)
        for basis in FORM_BASES:
            fixed.clear()
            periods._pair(basis, x, y, e, 128)
            re, im = _three_branch_tau(basis, x, y, wp)
            assert fixed[-2:] == [(re, wp), (im, wp)], basis


def test_the_library_never_runs_the_general_path(monkeypatch):
    # every basis the library gives is a closed form on the exact Legendre
    # data; polyroots and the complex AGM serve the tests' oracle only
    def general_path(*args, **kwargs):
        raise AssertionError("general path called")

    monkeypatch.setattr(mpmath, "polyroots", general_path)
    monkeypatch.setattr(periods, "optimal_agm", general_path)
    points = PARTNER_POINTS + [check_domain(3, 1), check_domain(1, 3)] + NEAR_A_LOCUS
    for params, label in zip(points, itertools.cycle(ELLIPTIC_LABELS)):
        for bits in (128, 4096):
            report = periods.periods_report(params, bits)
            pair = elliptic_periods_agm(label, params, bits)
            assert periods._cell(pair.tau) == report["periods"][label.value]["tau"]
            analytic_j(pair.tau, bits)
    analytic_j(approx(mpmath.mpc("0.3", "0.01"), 128), 128)
    # the patch does reach the oracle's calls
    with pytest.raises(AssertionError, match="general path called"):
        _roots_of(Polynomial((-1, 0, 0, 1)), 128)


NEAR_A_LOCUS = [check_domain(2 + Fraction(1, 10**100), Fraction(1, 3)),
                check_domain(Fraction(7, 5), Fraction(7, 5) + Fraction(1, 10**40))]


@pytest.mark.parametrize("params", NEAR_A_LOCUS, ids=repr)
def test_report_taus_keep_their_bits_near_a_locus(params):
    # the oracle's general path rounds -a and -b before it subtracts them,
    # and meets the 4096-bit tau only to about 2^-763 and 2^-958 at 1024 bits;
    # exact Legendre data keep every bit, and the derived quotients inherit them
    reference, _ = quotient_periods(params, 4096)
    for bits in (256, 1024):
        bases, _ = quotient_periods(params, bits)
        for label in ELLIPTIC_LABELS:
            got, want = bases[label].tau.to_mpc(), reference[label].tau.to_mpc()
            with mpmath.workprec(4096):
                assert (mpmath.fabs(got - want)
                        <= mpmath.ldexp(1, 8 - bits) * mpmath.fabs(want)), (label, bits)


def test_legendre_order_keeps_the_best_score_when_the_slack_rounds_away():
    # E_t's own lambda is about 3e49 here, so best - 2^(-64) rounds to best at
    # 128 bits; the best score must still be chosen
    factors = oracle_factors(CurveLabel.E_t, NEAR_A_LOCUS[0])
    got = oracle_periods(factors, 128).tau.to_mpc()
    want = oracle_periods(factors, 1024).tau.to_mpc()
    with mpmath.workprec(1024):
        assert mpmath.fabs(got - want) <= mpmath.ldexp(1, -120) * mpmath.fabs(want)


def _random_sl2(rng, steps=6):
    """A random ((a, b), (c, d)) in SL2(Z), as a product of powers of
    T = ((1, 1), (0, 1)) and of S = ((0, -1), (1, 0))."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(steps):
        k = rng.randint(-3, 3)
        a, b, c, d = a, a * k + b, c, c * k + d
        a, b, c, d = b, -a, d, -c
    return a, b, c, d


@pytest.mark.parametrize("bits", [128, 1024])
def test_reduce_basis_carries_the_kernel_class(bits):
    # the class (m, n) that _reduce_basis returns names the same half-period,
    # modulo the lattice, as the class it was given names in the input basis;
    # random bases of generic lattices and of the square and hexagonal ones,
    # whose units the reduction also applies
    rng = random.Random(31)
    with mpmath.workprec(bits + _GUARD_BITS):
        base_taus = [mpmath.mpc(0, 1), mpmath.expjpi(mpmath.mpf(2) / 3),
                     mpmath.mpc("0.3", "1.7"), mpmath.mpc("-0.41", "0.93"),
                     mpmath.mpc("0.07", "12.5")]
        for _ in range(60):
            a, b, c, d = _random_sl2(rng)
            tau = rng.choice(base_taus)
            scale = mpmath.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
            v1, v2 = scale * (c * tau + d), scale * (a * tau + b)
            for kernel in ((0, 1), (1, 0), (1, 1)):
                w1, w2, _, (m, n) = _reduce_basis(v1, v2, bits, kernel)
                assert (m, n) != (0, 0)
                # the coordinates (x, y) in the reduced basis of the difference
                # of the two half-periods are integers
                z = ((kernel[0] * v1 + kernel[1] * v2) - (m * w1 + n * w2)) / 2 / w1
                y = z.imag / (w2 / w1).imag
                x = z.real - y * (w2 / w1).real
                for coordinate in (x, y):
                    assert (mpmath.fabs(coordinate - mpmath.nint(coordinate))
                            < mpmath.ldexp(1, 16 - bits)), (tau, (a, b, c, d), kernel)


J_POINTS = PARTNER_POINTS + NEAR_A_LOCUS


@pytest.mark.parametrize("bits", [128, 256, 1024, 4096])
def test_report_j_matches_the_q_series_of_each_tau(bits, monkeypatch):
    # quotient_periods runs the q-series at the taus of E_is_t, E_is_it and
    # E_s_it only, and takes the j of E_t, E_st and E_s from those theta
    # constants by the duplication formula of the kernel's class; analytic_j at
    # each printed tau agrees, and each of the three formulas is used
    kernels = set()
    isogenous_eighths = periods._isogenous_eighths

    def record(kernel, *thetas):
        kernels.add(kernel)
        return isogenous_eighths(kernel, *thetas)

    monkeypatch.setattr(periods, "_isogenous_eighths", record)
    for params in J_POINTS:
        bases, js = quotient_periods(params, bits)
        for label in ELLIPTIC_LABELS:
            want = analytic_j(bases[label].tau, bits).to_mpc()
            got = js[label].to_mpc()
            with mpmath.workprec(bits + _GUARD_BITS):
                assert (mpmath.fabs(got - want)
                        <= mpmath.ldexp(1, 8 - bits) * max(1, mpmath.fabs(want))), (params, label)
    assert kernels == {(0, 1), (1, 0), (1, 1)}


def test_doubled_tau_keeps_its_precision_far_up_the_axis():
    # at 2 tau, t2'^2 is (B - C)/2 as well, but B and C share about 136 bits at
    # tau = 30i, more than the guard bits; the factored 4 odd (1 + 2 even)
    # cancels nothing
    bits = 1024
    with mpmath.workprec(bits + _GUARD_BITS):
        tau = mpmath.mpc(0, 30)
        thetas = periods._real_theta_squares(mpmath.expjpi(tau / 4).real, bits)
        got = periods._j_from_eighths(*periods._isogenous_eighths((1, 0), *thetas))
        want = analytic_j(2 * tau, bits).to_mpc()
        assert mpmath.fabs(got - want) <= mpmath.ldexp(1, 8 - bits) * mpmath.fabs(want)


def test_periods_keep_the_bits_of_a_tiny_lambda():
    # 1e-10 from a = b at a = -50 the own lambda of E_s is about 1e-25;
    # K(1 - lambda) takes the complement lambda itself, not 1 - (1 - lambda)
    params = check_domain(Fraction(-50), Fraction(-499999999999, 10**10))
    for label in (CurveLabel.E_s, CurveLabel.E_t, CurveLabel.E_st):
        factors = oracle_factors(label, params)
        got = oracle_periods(factors, 256).tau.to_mpc()
        want = oracle_periods(factors, 4096).tau.to_mpc()
        with mpmath.workprec(4096):
            assert mpmath.fabs(got - want) <= mpmath.ldexp(1, -248) * mpmath.fabs(want), label


KERNEL_BITS = [128, 256, 1024, 4096]


def _kernel_tolerance(bits):
    return mpmath.ldexp(1, -bits - 32)


# 0 < x < 1 from 1e-300 up to 1 - 1e-30: scaled decimals, their complements,
# and fractions with large numerators and denominators, as lambda has
_AGM_ARGUMENTS = st.one_of(
    st.builds(lambda m, k: Fraction(m, 10**6 * 10**k),
              st.integers(1, 10**6 - 1), st.integers(0, 294)),
    st.builds(lambda m, k: 1 - Fraction(m, 10**6 * 10**k),
              st.integers(1, 10**6 - 1), st.integers(0, 24)),
    st.builds(lambda n, d: Fraction(min(n, d), max(n, d) + 1),
              st.integers(1, 2**200), st.integers(1, 2**200)),
)


@pytest.mark.parametrize("bits", KERNEL_BITS)
@settings(max_examples=100, deadline=None)
@given(x=_AGM_ARGUMENTS)
@example(x=Fraction(1, 10**300))
@example(x=1 - Fraction(1, 10**30))
@example(x=Fraction(1, 2))
def test_real_agm_matches_mpmath_at_doubled_precision(bits, x):
    # the fixed-point M(1, sqrt(x)) of the exact partner path, at the working
    # precision of a report, against mpmath's agm at twice that precision;
    # sqrt(x) of a tiny x must keep every bit
    with mpmath.workprec(bits + _GUARD_BITS):
        wp = mpmath.mp.prec + periods._FIXED_GUARD_BITS
        got = periods._from_fixed(periods._fixed_agm(x.numerator, x.denominator, wp), wp)
    with mpmath.workprec(2 * (bits + _GUARD_BITS)):
        want = mpmath.agm(1, mpmath.sqrt(mpmath.fdiv(x.numerator, x.denominator)))
        assert mpmath.fabs(got - want) <= _kernel_tolerance(bits) * want
    assert got.man_exp[0].bit_length() <= bits + _GUARD_BITS  # rounded once


def test_real_agm_gives_up_after_its_iteration_budget(monkeypatch):
    # an isqrt that overshoots keeps b about twice a, so the loop never meets
    # its stopping rule; the budget ends it as optimal_agm's ends its own loop
    monkeypatch.setattr(periods, "isqrt", lambda n: 2 * math.isqrt(n))
    with mpmath.workprec(128 + _GUARD_BITS):
        with pytest.raises(PrecisionError, match="iteration budget"):
            periods._fixed_agm(1, 3, 128 + _GUARD_BITS)


def _jtheta_squares(t, bits):
    """(A, B, C, odd, even) of `_real_theta_squares` at tau = i t from mpmath's
    jtheta at twice the precision: odd = t2(q^4)/2 and even = (t3(q^4) - 1)/2,
    so that neither is a difference of nearby values."""
    with mpmath.workprec(2 * (bits + _GUARD_BITS)):
        q = mpmath.exp(-mpmath.pi * t)
        q4 = q ** 4
        return (mpmath.jtheta(2, 0, q) ** 2, mpmath.jtheta(3, 0, q) ** 2,
                mpmath.jtheta(4, 0, q) ** 2, mpmath.jtheta(2, 0, q4) / 2,
                (mpmath.jtheta(3, 0, q4) - 1) / 2)


@pytest.mark.parametrize("bits", KERNEL_BITS)
@settings(max_examples=60, deadline=None)
@given(t=st.floats(min_value=math.sqrt(3) / 2, max_value=60))
@example(t=math.sqrt(3) / 2)
@example(t=60.0)
def test_real_theta_squares_match_jtheta_at_doubled_precision(bits, t):
    # the fixed-point real q-series of a report: A, B, C and odd to a relative
    # error, even to an absolute one, also where q is far below 1 and odd is
    # about q
    with mpmath.workprec(bits + _GUARD_BITS):
        got = periods._real_theta_squares(mpmath.expjpi(mpmath.mpc(0, t) / 4).real, bits)
    want = _jtheta_squares(t, bits)
    tolerance = _kernel_tolerance(bits)
    with mpmath.workprec(2 * (bits + _GUARD_BITS)):
        for name, g, w in zip(("A", "B", "C", "odd"), got, want):
            assert mpmath.fabs(g - w) <= tolerance * w, (name, t)
        assert mpmath.fabs(got[4] - want[4]) <= tolerance, ("even", t)


@pytest.mark.parametrize("bits", [128, 1024])
def test_reports_do_not_depend_on_the_ambient_precision(bits):
    from kleinprym.periods import periods_report
    params = check_domain(Fraction(7, 5), Fraction(-13, 4))
    outputs = set()
    for ambient in (53, 300, 10000):
        with mpmath.workprec(ambient):
            outputs.add(json.dumps(periods_report(params, bits), sort_keys=True))
    assert len(outputs) == 1
