import contextlib
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from click.testing import CliRunner

import kleinprym
from kleinprym import acceptance, periods
from kleinprym.acceptance import CriterionResult
from kleinprym.cli import cli, main
from kleinprym.errors import PrecisionError
from kleinprym.family import CurveLabel, check_domain, curve_equation
from kleinprym.moduli import phi_params
from kleinprym.periods import periods_report


def run(*args):
    return CliRunner().invoke(cli, args, catch_exceptions=False)


def test_involution_report():
    result = run("involution", "--a", "0", "--b", "1")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["phi_params"] == ["-6", "-10"]
    assert report["j_pair_bottom"] == ["1728", "21952/9"]
    assert report["consistency"]["fiber_invariants_match"]


def test_phi_undefined_exits_1(capsys):
    assert main(["involution", "--a", "1", "--b", "-1"]) == 1
    assert "a + b = 0" in capsys.readouterr().err


def test_unknown_flag_exits_1():
    assert main(["involution", "--a", "1", "--b", "2", "--bogus", "3"]) == 1


def test_json_output_is_deterministic():
    a = run("analyze", "--a", "1/3", "--b", "5").output
    b = run("analyze", "--a", "1/3", "--b", "5").output
    assert a == b
    report = json.loads(a)
    assert all(report["quotient_identities_verified"].values())
    assert report["fixed_points"]["sigma"]["count"] == 4
    assert report["fixed_points"]["iota_tau"]["count"] == 0


# sha256 of the default JSON; the exact layer's output must stay byte-identical
PINNED_DIGESTS = {
    ("analyze", "7/5", "-13/4"):
        "8877b8ba6bfac06d4dce4fece6dce95c8568a4b904cf77a90b74a9ec50c7ec30",
    ("involution", "7/5", "-13/4"):
        "b82f753998e01bbb6475e7abbf1fffcb9a5fd5c8755e4a56b9e2be4a6ecef79c",
    ("analyze", "765431/999983", "-123457/1000000"):
        "c0e0585a0a084b90b21cd7a9cbec505ef1b0ec20aa540de1251b6d3b64a45008",
    ("involution", "765431/999983", "-123457/1000000"):
        "e4021c61a5b847bbfc681e7f2ead9c21185e584249093fcdc12723423dc0b5ce",
}


@pytest.mark.parametrize("command,a,b", sorted(PINNED_DIGESTS))
def test_exact_reports_match_pinned_digests(command, a, b):
    output = run(command, "--a", a, "--b", b).output
    assert hashlib.sha256(output.encode()).hexdigest() == PINNED_DIGESTS[command, a, b]


# sha256 of the default periods JSON; a change to a printed period, tau, j
# delta, tolerance or Riemann value must re-pin these on purpose
PINNED_PERIODS_DIGESTS = {
    ("7/5", "-13/4", "128"):
        "1b4ac8a47b2bfce963b3ec1fffb9beb4b31f3fb27ccc16b797c002ae27349a80",
    ("7/5", "-13/4", "256"):
        "02add8afaf8d25756a5b07f29c76de758fb9076c77fd68f4d0b65d836a8e2c90",
    ("0", "1", "256"):
        "c6d22c7ebf1f44516364987cf078065c9ec86d28a30298851d9b319cdb53d47b",
    ("7/5", "14000000001/10000000000", "1024"):
        "eccf8d5c90361da2876cce056fd6c57c3a5672577356354b05fc4b832add07ed",
}


@pytest.mark.parametrize("a,b,bits", sorted(PINNED_PERIODS_DIGESTS))
def test_periods_reports_match_pinned_digests(a, b, bits):
    output = run("periods", "--a", a, "--b", b, "--bits", bits).output
    assert hashlib.sha256(output.encode()).hexdigest() == PINNED_PERIODS_DIGESTS[a, b, bits]


# sha256 of the torsion reports, pinned while subgroups were still listed by
# enumeration; a change to a printed torsion class must re-pin these on purpose
PINNED_TORSION_DIGESTS = {
    ("torsion --d 2", "json"):
        "76830fd39fec45e2f2b0b2e083f11e5a2dcbf7066092ad032069943466e31461",
    ("torsion --d 3", "json"):
        "989633c72f3b2f376b29e79ad2fa8cde8a2d92d24c6bb69a6a2a3b39cd82fee0",
    ("torsion --d 4", "json"):
        "4f1878dc2de15cd5b7ec552cb6c81a133a8a41e166cdc848e94ba49864b55686",
    ("torsion --d 5", "json"):
        "1b977989076572ebe772e316a192586d07c266ff97208a229105b552a7d41176",
    ("torsion --d 6", "json"):
        "e43a4b6d11290ee135624e21403b7972095137cba9d2dc5d63a5b5227005fbc0",
    ("torsion --d 7", "json"):
        "9df37ac86f54cd103bd3630b63692d3e85676fbf05c61cb4aad9354c1b85d7a9",
    ("torsion --d 8", "json"):
        "5c58c28bfe4cb5c47f0304e3047d63e233e82cc30a6e0cb570509e392d5f2d2f",
    ("torsion --d 9", "json"):
        "5920c681dc9a471ec07b91abb4787e17d4a3b5e61a816e5a81e63a4b86e67e6f",
    ("torsion --d 10", "json"):
        "b2178476ceceb7a2b0e79651bf67ef0e8c5ab02a96df4d246430dbedb4e36ccd",
    ("torsion --d 11", "json"):
        "5cc2df9869d7978d8bb5a93bd4f55cc0924602d1f4817fa68b22fc202c378667",
    ("torsion --d 12", "json"):
        "d95b8be3cede1897a2fbd5ffb697661e92275c1c3deb00fbbf5b9ab2644711a5",
    ("example-surj", "json"):
        "3e0e392ecbcf81197407342c2e55cb0f43674f0495e5715ec3cff558446f1cc0",
    ("torsion --d 2", "text"):
        "8f46b406f807a329b190bf1ac65fdfa0c1739eb35dd31e8f4738c79e59977d31",
    ("torsion --d 3", "text"):
        "4926e5c85afeec30b8958e20330be1cea11ca6643994ea02e459d144d9fb9956",
    ("torsion --d 4", "text"):
        "f0e7ad302ac37d6ad2d437d27bf6b8d094c6dbee6730b0b7b40b6b0b938e72e0",
    ("torsion --d 5", "text"):
        "fc3eb4b9743a9738293a1f571c3f6d4020611d587f4234cbd9df0d9fc7655cf6",
    ("torsion --d 6", "text"):
        "ee466571b0bed53defb8a65c9add8fc1656e0497a5816786d06902a058889b60",
    ("torsion --d 7", "text"):
        "bfcdd2bd1c25689eccd3cae110f3d7d14be0151ead483ece1383278dc6c9ff62",
    ("torsion --d 8", "text"):
        "f22b4f8bfbe6fc1fb794f90c1deeb764c99faf210a46f6e5998a4410a061435f",
    ("torsion --d 9", "text"):
        "ae112101b6934466678c5f715ecbd639025427ec5f6e37be3f04b084a5da79cc",
    ("torsion --d 10", "text"):
        "7bb806885e4b78b9721272b9126092b719bc767d4f3869cfe4d5b91758f13605",
    ("torsion --d 11", "text"):
        "1bd4c21ecc88c61b5052b551c75b5b3ff98fe135ef4949d42b4f2ac3296bfc57",
    ("torsion --d 12", "text"):
        "dcb363a562ae413a4186b93263fcdd579f11cfaf987b58a6750884c94ae429d2",
    ("example-surj", "text"):
        "427c89ccdfdafe0dba64b1cfec4a818e36facee7fe4fd21f8de1ee18d0ecc55c",
}


@pytest.mark.parametrize("command,fmt", sorted(PINNED_TORSION_DIGESTS))
def test_torsion_reports_match_pinned_digests(command, fmt):
    output = run(*command.split(), "--format", fmt).output
    assert hashlib.sha256(output.encode()).hexdigest() == PINNED_TORSION_DIGESTS[command, fmt]


@pytest.mark.parametrize("args", [
    ["analyze", "--a", "1/0", "--b", "2"],
    ["periods", "--a", "1/0", "--b", "2"],
    ["normalize", "--tuple", "1/0,3;inf,2,-2!0"],
    ["duality", "--curveE", "1/0,2", "--pointP", "0,0", "--curveF", "1,0", "--pointQ", "0,0"],
    ["duality", "--curveE", "x,2", "--pointP", "0,0", "--curveF", "1,0", "--pointQ", "0,0"],
], ids=lambda args: " ".join(args[:3]))
def test_a_malformed_rational_exits_1(args, capsys):
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "is not a rational p/q" in err
    assert "unexpected" not in err


def test_text_format_is_projection_of_json():
    as_json = json.loads(run("torsion", "--d", "2").output)
    as_text = run("torsion", "--d", "2", "--format", "text").output
    for key in as_json:
        assert key in as_text
    assert "all_ok: True" in as_text


def test_normalize_round_trip():
    result = run("normalize", "--tuple", "-1/3,-5;inf,2,-2!0", "--convention", "ordered")
    report = json.loads(result.output)
    assert report["normalizations"] == [{
        "a": "1/3", "b": "5", "witness_map": ["1", "0", "0", "1"]}]


def test_normalize_all_unordered_gives_both_signs():
    result = run("normalize", "--tuple", "-1,-5;inf,2,-2!0",
                 "--convention", "all-unordered")
    report = json.loads(result.output)
    got = {(n["a"], n["b"]) for n in report["normalizations"]}
    assert got == {("1", "5"), ("-1", "-5")}


def test_duality_certificate():
    result = run("duality", "--curveE", "-7,-6", "--pointP", "3,0",
                 "--curveF", "-19,-30", "--pointQ", "5,0", "--assert-nonisogenous")
    cert = json.loads(result.output)
    assert cert["premise_holds"]
    assert cert["conclusion"] == "A is not isomorphic to its dual"


def test_duality_without_assertion_is_gated():
    result = run("duality", "--curveE", "-7,-6", "--pointP", "3,0",
                 "--curveF", "-19,-30", "--pointQ", "5,0")
    assert json.loads(result.output)["conclusion"].startswith("hypothesis unverified")


def test_example_surj_lists_kernel():
    report = json.loads(run("example-surj").output)
    assert len(report["ker_phi_A"]) == 4
    assert report["all_ok"]


def test_periods_defaults_to_256_bits():
    report = json.loads(run("periods", "--a", "0", "--b", "1").output)
    assert report["precision_bits"] == 256


def test_analyze_builds_each_model_once(monkeypatch):
    calls = []

    def counted(label, params):
        calls.append(label)
        return curve_equation(label, params)

    for where in ("kleinprym.cli", "kleinprym.family"):
        monkeypatch.setattr(f"{where}.curve_equation", counted)
    assert run("analyze", "--a", "7/5", "--b", "-13/4").exit_code == 0
    assert len(calls) == 10 and set(calls) == set(CurveLabel)


def test_involution_builds_each_model_once(monkeypatch):
    # the four models of the fibre invariants at (a, b) and at phi(a, b)
    models, phis = [], []

    def counted_model(label, params):
        models.append((label, params))
        return curve_equation(label, params)

    def counted_phi(params):
        phis.append(params)
        return phi_params(params)

    monkeypatch.setattr("kleinprym.moduli.curve_equation", counted_model)
    monkeypatch.setattr("kleinprym.moduli.phi_params", counted_phi)
    assert run("involution", "--a", "7/5", "--b", "-13/4").exit_code == 0
    assert len(models) == len(set(models)) == 8
    assert phis == [check_domain(Fraction(7, 5), Fraction(-13, 4))]


def test_periods_rejects_tiny_bits():
    assert main(["periods", "--a", "0", "--b", "1", "--bits", "16"]) == 1


@pytest.mark.parametrize("a,b", [
    # -a and -2 agree in float64
    ("200000000000000000001/100000000000000000000", "1/3"),
    # -a, -2 and -b, 2 agree at the working precision
    (str(2 + Fraction(1, 10**100)), str(-2 + Fraction(1, 10**100))),
], ids=["float64", "working-precision"])
def test_periods_with_coincident_roots_does_not_crash(a, b):
    try:
        periods_report(check_domain(Fraction(a), Fraction(b)), 256)
    except PrecisionError:
        expected = 1
    else:
        expected = 0
    assert main(["periods", "--a", a, "--b", b]) == expected


def test_j_closure_is_relative_to_the_size_of_j():
    # E_is_t has j about 1e200 here and misses it by 2.4e-25, far above the
    # tolerance 2^(4 - 1024/4) but far below it relative to |j|
    a = str(2 + Fraction(1, 10**100))
    assert main(["periods", "--a", a, "--b", "1/3", "--bits", "1024"]) == 0


def test_j_closure_holds_where_a_float_tolerance_underflows():
    # 2^(4 - bits/4) is below the smallest float64 once bits passes 4300
    assert math.ldexp(1.0, 4 - 4400 // 4) == 0.0
    assert main(["periods", "--a", "7/5", "--b", "-13/4", "--bits", "4400"]) == 0


CLOSURE_POINT = ["periods", "--a", "7/5", "--b", "-13/4", "--bits", "128"]


def test_periods_refuses_a_j_that_misses_the_closure(monkeypatch):
    # the report's j values all come from the theta constants of the q-series
    assert main(CLOSURE_POINT) == 0
    true_thetas = periods._theta_squares

    def off_thetas(tau, bits):
        A, *rest = true_thetas(tau, bits)
        return A * (1 + mpmath.ldexp(1, -bits // 8)), *rest

    monkeypatch.setattr(periods, "_theta_squares", off_thetas)
    assert main(CLOSURE_POINT) == 1


def test_periods_refuses_a_derived_j_that_misses_the_closure(monkeypatch):
    # only the duplication formulas of E_t, E_st and E_s are off
    assert main(CLOSURE_POINT) == 0
    true_eighths = periods._isogenous_eighths
    bits = 128

    def off_eighths(kernel, *thetas):
        a, b, c = true_eighths(kernel, *thetas)
        return a * (1 + mpmath.ldexp(1, -bits // 8)), b, c

    monkeypatch.setattr(periods, "_isogenous_eighths", off_eighths)
    assert main(CLOSURE_POINT) == 1


def test_periods_answers_where_only_the_derived_quotients_are_near_the_cuts(capsys):
    # 1e-10 from a = b the cross-ratios of the own roots of E_t, E_st and E_s
    # are too close to the cuts for 128 bits; the report takes those three
    # from E_is_t, E_is_it and E_s_it, whose rational roots -a, -b, +-2 give
    # an exact lambda
    point = ["periods", "--a", "7/5", "--b", "14000000001/10000000000"]
    reports = []
    for bits in ("128", "1024"):
        assert main(point + ["--bits", bits]) == 0
        reports.append(json.loads(capsys.readouterr().out)["periods"])
    report, reference = reports
    for label, cells in reference.items():
        for name, cell in cells.items():
            got, want = (complex(float(c["re"]), float(c["im"]))
                         for c in (report[label][name], cell))
            assert abs(got - want) <= 2 ** -50 * abs(want), (label, name)


def test_periods_answers_1e_minus_40_from_a_equals_b():
    # the rounded roots -a and -b agreed too closely for 128 bits to rank the
    # orderings; exact Legendre data need no ranking
    b = str(Fraction(7, 5) + Fraction(1, 10**40))
    assert main(["periods", "--a", "7/5", "--b", b, "--bits", "128"]) == 0


def test_torsion_range_is_validated():
    assert main(["torsion", "--d", "13"]) == 1


def test_failed_selftest_exits_2(monkeypatch):
    failing = CriterionResult(1, "stub", False, "forced failure", 0.0, 1.0)
    monkeypatch.setattr(acceptance, "run_all", lambda: [failing])
    assert main(["selftest"]) == 2


def test_redirected_stdout_is_not_kept_alive():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["torsion", "--d", "2"]) == 0
    ref = weakref.ref(out)
    del out
    gc.collect()
    assert ref() is None


def test_exact_commands_do_not_import_mpmath():
    script = """
import contextlib, io, sys
import kleinprym
from kleinprym.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["torsion", "--d", "2"]) == 0
assert "mpmath" not in sys.modules, "mpmath imported"
from kleinprym import periods
assert all(getattr(kleinprym, name) is getattr(periods, name)
           for name in ("ComplexApprox", "PeriodPair", "PrymPeriodMatrix", "elliptic_periods_agm"))
"""
    src = str(Path(kleinprym.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
