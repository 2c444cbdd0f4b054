"""The acceptance gate: each criterion from the shared suite must pass,
including its wall-clock budget.  Failures print the one-line summary the
command-line selftest would show.
"""

import mpmath
import pytest

from kleinprym import acceptance, periods


@pytest.mark.parametrize("criterion", acceptance.ALL_CRITERIA,
                         ids=lambda c: c.__name__)
def test_criterion(criterion):
    result = criterion()
    assert result.passed, result.line()


def _e_s_at_scale_1(monkeypatch):
    partners = tuple((p, q, 1 if q == periods.CurveLabel.E_s else s, points)
                     for p, q, s, points in periods._PARTNERS)
    monkeypatch.setattr(periods, "_PARTNERS", partners)


def _one_basis_doubled(monkeypatch):
    quotient_periods = acceptance.quotient_periods

    def doubled(params, bits):
        bases, js = quotient_periods(params, bits)
        pair = bases[periods.CurveLabel.E_st]
        twice = [periods.ComplexApprox(mpmath.ldexp(z.real, 1), mpmath.ldexp(z.imag, 1),
                                       z.precision_bits)
                 for z in (pair.omega1, pair.omega2)]
        bases[periods.CurveLabel.E_st] = periods.PeriodPair(*twice, pair.tau)
        return bases, js

    monkeypatch.setattr(acceptance, "quotient_periods", doubled)


def _e_t_glued_at_the_wrong_class(monkeypatch):
    # quotient_periods glues E_t, E_st and E_s in this order, so every third
    # call is E_t's
    quotient_lattice, calls = periods._quotient_lattice, [0]
    wrong = {(0, 1): (1, 0), (1, 0): (1, 1), (1, 1): (0, 1)}

    def glue(r, h, e, t, scale):
        calls[0] += 1
        return quotient_lattice(r, h, e, wrong[t] if calls[0] % 3 == 1 else t, scale)

    monkeypatch.setattr(periods, "_quotient_lattice", glue)


@pytest.mark.parametrize("mutant,closure_only", [
    (_e_s_at_scale_1, True), (_one_basis_doubled, True), (_e_t_glued_at_the_wrong_class, False),
], ids=lambda m: getattr(m, "__name__", ""))
def test_criterion_8_fails_on_a_wrong_lattice(mutant, closure_only, monkeypatch):
    # a lattice scaled by 2 has the same tau and so the same j: only the
    # lattice closure against the exact curve sees the first two mutants
    mutant(monkeypatch)
    result = acceptance.criterion_8()
    assert not result.passed
    assert ("lattice closure" in result.detail) or not closure_only, result.detail


def test_criterion_8_certifies_the_riemann_values_that_the_report_prints(monkeypatch):
    # criterion 8 reads the Riemann keys of periods_report, so a defect in
    # the report's closed form reaches it
    def indefinite(matrix):
        return mpmath.mpf(-1)

    monkeypatch.setattr(periods, "_prym_min_eigenvalue", indefinite)
    result = acceptance.criterion_8()
    assert not result.passed
    assert "not positive definite" in result.detail, result.detail


def test_criterion_8_holds_the_report_to_the_general_relations(monkeypatch):
    # a closed form that drifts from riemann_check while it stays positive
    # passes the sign checks, and only the comparison sees it
    min_eigenvalue = periods._prym_min_eigenvalue

    def doubled(matrix):
        return 2 * min_eigenvalue(matrix)

    monkeypatch.setattr(periods, "_prym_min_eigenvalue", doubled)
    result = acceptance.criterion_8()
    assert not result.passed
    assert "differ from riemann_check" in result.detail, result.detail
