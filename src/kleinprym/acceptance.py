"""The acceptance suite: nine self-contained criteria with deterministic
random sampling and wall-clock budgets.  `selftest` on the command line and
the test suite both call `run_all`, so a green selftest and a green test run
certify the same thing.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import DomainError, PhiUndefined
from .family import (
    CurveLabel,
    InvolutionLabel,
    QUOTIENT_LABELS,
    ELLIPTIC_LABELS,
    check_domain,
    curve_equation,
    fixed_point_count,
    j_invariant,
    quartic_invariants,
    quotient_map,
    verify_quotient_identity,
)
from .projline import MobiusMap, normalize_tuple, tuple_of_params
from .moduli import PhiFiber, phi_consistency_report, phi_params, prym_fiber_invariants
from .torsion import MAX_LEVEL, duality_chain, example_surj_report
from .isogeny import (
    KernelPoint,
    WeierstrassCurve,
    dual_nonisomorphism_check,
    j_weierstrass,
    velu_quotient,
)
from .periods import (_theta_squares, analytic_j, elliptic_periods_agm, periods_report,
                      prym_period_matrix, quotient_periods, riemann_check)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float
    budget: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] criterion {self.number}: {self.name} "
                f"({self.elapsed:.2f}s / {self.budget:.0f}s) - {self.detail}")


def random_params(rng: random.Random, height: int = 50, require_phi: bool = False):
    """A random point of the family domain with numerators and denominators
    of height at most `height`; with require_phi, one where phi is defined."""
    while True:
        a = Fraction(rng.randint(-height, height), rng.randint(1, height))
        b = Fraction(rng.randint(-height, height), rng.randint(1, height))
        try:
            p = check_domain(a, b)
        except DomainError:
            continue
        if require_phi and not p.phi_defined:
            continue
        return p


def _random_mobius(rng: random.Random) -> MobiusMap:
    while True:
        es = [rng.randint(-9, 9) for _ in range(4)]
        if es[0] * es[3] - es[1] * es[2] != 0:
            return MobiusMap(*es)


def _run(number, name, budget, body) -> CriterionResult:
    start = time.perf_counter()
    try:
        ok, detail = body()
    except Exception as exc:  # an acceptance criterion must never raise
        elapsed = time.perf_counter() - start
        return CriterionResult(number, name, False,
                               f"raised {type(exc).__name__}: {exc}", elapsed, budget)
    elapsed = time.perf_counter() - start
    if ok and elapsed >= budget:
        ok, detail = False, f"over budget ({elapsed:.2f}s >= {budget:.0f}s)"
    return CriterionResult(number, name, ok, detail, elapsed, budget)


# --------------------------------------------------------------------------


def criterion_1() -> CriterionResult:
    def body():
        rng = random.Random(101)
        for i in range(200):
            params = random_params(rng)
            m = _random_mobius(rng)
            pushed = tuple_of_params(params).apply(m)
            back = normalize_tuple(pushed, "ordered")[0].params
            if back != params:
                return False, f"round-trip failed at sample {i}: {params} -> {back}"
        return True, "200 random round-trips exact under the ordered convention"

    return _run(1, "round-trip normalization", 5.0, body)


# Both sides of every quotient identity have degree <= 1 in a and in b
# (tests/test_family.py confirms it with sympy), so an identity that holds on
# this grid of a-values x b-values holds for all (a, b).
IDENTITY_GRID = ((0, 1), (3, 5))


def criterion_2() -> CriterionResult:
    def body():
        grid = [check_domain(a, b) for a in IDENTITY_GRID[0] for b in IDENTITY_GRID[1]]
        rng = random.Random(102)
        for params in grid + [random_params(rng) for _ in range(25)]:
            ctilde_rhs = curve_equation(CurveLabel.Ctilde, params)
            for label in QUOTIENT_LABELS:
                quotient_rhs = curve_equation(label, params)
                if not verify_quotient_identity(quotient_map(label), ctilde_rhs, quotient_rhs):
                    return False, f"identity failed for {label.value} at {params}"
        return True, ("9 quotient-map identities proven on a 2x2 grid (degree <= 1 "
                      "in a and in b) and exact at 25 random points")

    return _run(2, "quotient-equation verification", 5.0, body)


_PROFILE = (
    (InvolutionLabel.sigma, 4),
    (InvolutionLabel.tau, 4),
    (InvolutionLabel.sigma_tau, 4),
    (InvolutionLabel.iota_sigma, 0),
    (InvolutionLabel.iota_tau, 0),
    (InvolutionLabel.iota_sigma_tau, 0),
)


def criterion_3() -> CriterionResult:
    def body():
        rng = random.Random(103)
        for _ in range(50):
            params = random_params(rng)
            for inv, expected in _PROFILE:
                count, _ = fixed_point_count(inv, params)
                if count != expected:
                    return False, (f"{inv.value} has {count} fixed points at "
                                   f"{params}, expected {expected}")
        return True, "profile (4,4,4,0,0,0) at 50 random points"

    return _run(3, "fixed-point profile", 2.0, body)


def criterion_4() -> CriterionResult:
    def body():
        rng = random.Random(104)
        for _ in range(200):
            params = random_params(rng, require_phi=True)
            twice = phi_params(phi_params(params))
            if twice != params.swapped():
                return False, f"phi^2 != swap at {params}: got {twice}"
        if phi_params(check_domain(0, 1)) != check_domain(-6, -10):
            return False, "anchor phi(0,1) != (-6,-10)"
        if phi_params(check_domain(1, 3)) != check_domain(-1, -3):
            return False, "anchor phi(1,3) != (-1,-3)"
        try:
            phi_params(check_domain(1, -1))
        except PhiUndefined:
            pass
        else:
            return False, "phi(1,-1) did not raise PhiUndefined"
        return True, "phi^2 = swap on 200 points; anchors and a+b=0 error exact"

    return _run(4, "involution suite", 1.0, body)


def criterion_5() -> CriterionResult:
    def body():
        rng = random.Random(105)
        for _ in range(100):
            params = random_params(rng, require_phi=True)
            if prym_fiber_invariants(params) != prym_fiber_invariants(phi_params(params)):
                return False, f"fiber invariants differ across phi at {params}"
        expected_bottom = tuple(sorted((Fraction(1728), Fraction(21952, 9))))
        for a, b in ((0, 1), (-6, -10)):
            inv = prym_fiber_invariants(check_domain(a, b))
            if inv.j_pair_bottom != expected_bottom:
                return False, f"bottom j-pair anchor failed at ({a},{b}): {inv.j_pair_bottom}"
        j1 = j_invariant(curve_equation(CurveLabel.E_t, check_domain(0, 1)))
        j2 = j_invariant(curve_equation(CurveLabel.E_st, check_domain(-6, -10)))
        if not (j1 == j2 == 287496):
            return False, f"j anchor failed: {j1}, {j2}"
        return True, "both j-pairs phi-invariant at 100 points; anchors exact"

    return _run(5, "Prym fiber invariance", 10.0, body)


def criterion_6() -> CriterionResult:
    def body():
        surj = example_surj_report()
        if not surj["all_ok"]:
            bad = [k for k, v in surj["checks"].items() if not v]
            return False, f"square-lattice example failed: {bad}"
        # the four classes {0, e1, f1+f2, e1+f1+f2}, lex-least representatives
        expected_kphi = [
            ["0", "0", "0", "0"],
            ["0", "0", "1/2", "1/2"],
            ["0", "1/2", "0", "1/2"],
            ["0", "1/2", "1/2", "0"],
        ]
        if surj["ker_phi_A"] != expected_kphi:
            return False, f"ker phi_A list mismatch: {surj['ker_phi_A']}"
        for d in range(2, MAX_LEVEL + 1):
            chain = duality_chain(d)
            if not chain["all_ok"]:
                bad = [k for k, v in chain["checks"].items() if not v]
                return False, f"duality chain failed at d={d}: {bad}"
        return True, ("square-lattice kernel list exact; duality chain (|ker phi_H| = d^2, "
                      f"factor intersections, cyclic G) for d in 2..{MAX_LEVEL}")

    return _run(6, "torsion suite", 30.0, body)


def criterion_7() -> CriterionResult:
    def body():
        cm = WeierstrassCurve.make(1, 0)  # y^2 = x^3 + x
        origin = KernelPoint.on_curve(cm, 0, 0)
        quotient = velu_quotient(origin)
        if j_weierstrass(quotient) != 1728:
            return False, f"CM quotient j = {j_weierstrass(quotient)}, expected 1728"
        cert_cm = dual_nonisomorphism_check(origin, origin, True)
        if cert_cm["premise_holds"]:
            return False, "premise unexpectedly holds at the CM point"
        P = KernelPoint.on_curve(WeierstrassCurve.make(-7, -6), 3, 0)    # roots -1, -2, 3
        Q = KernelPoint.on_curve(WeierstrassCurve.make(-19, -30), 5, 0)  # roots -3, -2, 5
        cert = dual_nonisomorphism_check(P, Q, True)
        if not cert["premise_holds"]:
            return False, "premise fails for the generic 2-torsion pair"
        if cert["conclusion"] != "A is not isomorphic to its dual":
            return False, f"unexpected conclusion: {cert['conclusion']}"
        return True, "CM point premise fails with j = 1728; generic pair certifies"

    return _run(7, "Velu / duality certificate", 1.0, body)


NEAR_LOCUS = Fraction(1, 10**10)


def near_locus_params(a: Fraction):
    """One point at NEAR_LOCUS from each discriminant locus a = b, a = +-2
    and b = +-2, built around the generic value a."""
    d = NEAR_LOCUS
    return [check_domain(x, y) for x, y in ((a, a + d), (2 + d, a), (-2 - d, a),
                                            (a, 2 - d), (a, -2 + d))]


def _lattice_closure(pair, f, bits: int):
    """The first identity, if any, that the basis misses as the period lattice
    of dx/y on y^2 = f(x), each to 2^(8 - bits) max(1, |right side|):
    omega2 = tau omega1, omega1^4 I/pi^4 = E4(tau) and omega1^6 J/(2 pi^6) =
    E6(tau), for the invariants I, J of f (`quartic_invariants`; Whittaker &
    Watson, A Course of Modern Analysis, 20.6), E4 = (A^4 + B^4 + C^4)/2 and
    E6 = (A^2 + B^2)(B^2 + C^2)(C^2 - A^2)/2 in the squares A, B, C of the
    theta constants at tau.  Unlike j, these fix the lattice's scale."""
    i_num, j_num = quartic_invariants(f)
    with mpmath.workprec(bits + 64):
        w1, w2, tau = (getattr(pair, name).to_mpc() for name in ("omega1", "omega2", "tau"))
        a2, b2, c2 = (z * z for z in _theta_squares(tau, bits))
        u = w1 * w1 / (f.den * mpmath.pi ** 2)  # I, J are i_num/den^2, j_num/den^3
        for name, got, want in (
                ("omega2 = tau omega1", w2, tau * w1),
                ("omega1^4 I/pi^4 = E4", u * u * i_num, (a2 * a2 + b2 * b2 + c2 * c2) / 2),
                ("omega1^6 J/(2 pi^6) = E6", u * u * u * j_num / 2,
                 (a2 + b2) * (b2 + c2) * (c2 - a2) / 2)):
            if mpmath.fabs(got - want) > mpmath.ldexp(max(1, mpmath.fabs(want)), 8 - bits):
                return name
    return None


def criterion_8() -> CriterionResult:
    def body():
        bits = 256
        rng = random.Random(108)
        samples = [random_params(rng) for _ in range(20)]
        samples += [random_params(rng, height=10**6) for _ in range(5)]
        samples += near_locus_params(random_params(rng).a)
        for params in samples:
            # the bases and j values periods_report uses, three of each from
            # 2-isogenous partners
            bases, js = quotient_periods(params, bits)
            for label in ELLIPTIC_LABELS:
                rhs = curve_equation(label, params)
                pair, exact = bases[label], j_invariant(rhs)
                approx = analytic_j(pair.tau, bits).to_mpc()
                with mpmath.workprec(bits + 64):
                    # analytic_j's complex q-series at the printed tau is the oracle for
                    # the report's j, from the integer series and duplication formulas
                    if (mpmath.fabs(js[label].to_mpc() - approx)
                            > mpmath.ldexp(max(1, mpmath.fabs(approx)), 8 - bits)):
                        return False, (f"the report's j of {label.value} differs from "
                                       f"analytic_j of its tau at {params}")
                    delta = mpmath.fabs(approx - mpmath.mpf(exact.numerator) / exact.denominator)
                if delta >= 1e-8:
                    return False, (f"|analytic_j - exact_j| = {mpmath.nstr(delta, 5)} "
                                   f"for {label.value} at {params}")
                missed = _lattice_closure(pair, rhs, bits)
                if missed:
                    return False, (f"the basis of {label.value} misses the lattice closure "
                                   f"{missed} at {params}")

        # the Riemann values that the report prints, at the CM anchor, where
        # tau is exact, and at a generic point; the report reads them off its
        # matrix's closed form, and the general relations of the matrix of the
        # printed E_t and E_st taus give the same values
        for params in (check_domain(0, 1), check_domain(Fraction(7, 5), Fraction(-13, 4))):
            report = periods_report(params, bits)
            residual = report["riemann_residual_symmetry"]
            min_eig = report["riemann_min_eigenvalue"]
            if residual >= mpmath.ldexp(1, -bits + 16):
                return False, f"Riemann symmetry residual {mpmath.nstr(residual, 5)} at {params}"
            if min_eig <= 0:
                return False, (f"Riemann form not positive definite at {params}: "
                               f"{mpmath.nstr(min_eig, 5)}")
            matrix = prym_period_matrix(*(elliptic_periods_agm(label, params, bits).tau
                                          for label in (CurveLabel.E_t, CurveLabel.E_st)))
            if matrix.to_report() != report["prym_period_matrix"]:
                return False, (f"the printed Prym matrix is not that of the E_t and E_st "
                               f"taus at {params}")
            if (residual, min_eig) != tuple(map(float, riemann_check(matrix))):
                return False, (f"the report's Riemann values differ from riemann_check of its "
                               f"matrix at {params}")
        return True, ("six quotients x 30 points (heights 50 and 1e6, 1e-10 from each "
                      "discriminant locus) at 256 bits: report j equals analytic_j's complex "
                      "q-series j of each tau to 2^-248 max(1, |j|) and the exact j within 1e-8, and each "
                      "basis meets the lattice closure omega1^4 I/pi^4 = E4(tau), omega1^6 "
                      "J/(2 pi^6) = E6(tau) of the exact curve to 2^-248; Riemann relations "
                      "verified at (0,1) and (7/5,-13/4)")

    return _run(8, "periods", 60.0, body)


def criterion_9() -> CriterionResult:
    def body():
        report = phi_consistency_report(PhiFiber(check_domain(1, 3)))
        if report["raw_tuple_normalized_ordered"] != [["1", "3"]]:
            return False, ("raw tuple form did not normalise to (1,3): "
                           f"{report['raw_tuple_normalized_ordered']}")
        if report["phi_params"] != ["-1", "-3"]:
            return False, f"parameter form gave {report['phi_params']}, expected (-1,-3)"
        expected_flags = [
            "raw-tuple-form-normalizes-to-input",
            "printed-matrix-disagrees-with-parameter-form",
        ]
        if report["inconsistency_flags"] != expected_flags:
            return False, f"flag set mismatch: {report['inconsistency_flags']}"
        if not report["fiber_invariants_match"]:
            return False, "fiber invariants unexpectedly differ across phi at (1,3)"
        return True, "exactly the two documented inconsistencies flagged at (1,3)"

    return _run(9, "consistency diagnostics", 1.0, body)


ALL_CRITERIA = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9,
)


def run_all():
    return [c() for c in ALL_CRITERIA]
