"""Tests of the benchmark itself (about a minute):

    python3 -m pytest perfbench/tests -q
"""

import json
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import mpmath  # noqa: E402
import pytest  # noqa: E402

import compare  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from kleinprym import family  # noqa: E402
from kleinprym.algebra import Polynomial  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _inputs(workload, seed, rounds=2):
    source = workloads.ROUNDS[workload](seed)
    return [(op.key, op.argvs) for _ in range(rounds) for op in next(source)]


@pytest.mark.parametrize("workload", sorted(workloads.ROUNDS))
def test_same_seed_gives_same_inputs(workload):
    assert _inputs(workload, 7) == _inputs(workload, 7)
    assert _inputs(workload, 7) != _inputs(workload, 8)


def test_probe_inputs_follow_the_seed():
    keys = [[op.key for op in workloads.probe_ops(seed)] for seed in (7, 7, 8)]
    assert keys[0] == keys[1] != keys[2]


def _sample_ops():
    rng = random.Random(5)
    return (next(workloads.exact_rounds(3))[:1]
            + [workloads.chain_op(3), workloads.kernel_op(rng, 4), workloads.surj_op(),
               workloads.periods_op(Fraction(1, 3), Fraction(5), 128)])


def test_wrappers_change_no_output():
    originals = (Fraction.__dict__["__new__"], family.curve_equation, mpmath.polyroots,
                 Polynomial.__dict__["__mul__"])
    plain = worker.run_ops(_sample_ops())
    with tracing.instrument() as tracer:
        traced = worker.run_ops(_sample_ops(), tracer)
    assert [r[1] for r in plain + traced] == [None] * (2 * len(plain))
    assert [r[2] for r in plain] == [r[2] for r in traced]
    names = {span[0] for span in tracer.spans}
    assert {"cli", "family.curve_equation", "torsion.perp", "periods.polyroots"} <= names
    assert tracer.counts["algebra.poly_mul.calls"] > 0
    assert sum(span[5] for span in tracer.spans) > 0  # Fraction allocations charged
    assert originals == (Fraction.__dict__["__new__"], family.curve_equation,
                         mpmath.polyroots, Polynomial.__dict__["__mul__"])


def _raising():
    raise ZeroDivisionError("complex division by zero")


def test_failed_op_is_counted_and_the_run_goes_on():
    repro = workloads.periods_op(*workloads.ROADMAP_REPRO)
    raising = workloads.Op(("raising",), None, library=_raising)
    ok = workloads.periods_op(Fraction(0), Fraction(1), 128)
    results = worker.run_ops([ok, repro, ok, raising, ok])
    problems = [r[1] for r in results]
    assert len(results) == 5
    assert problems[0] is None and problems[2] is None and problems[4] is None
    assert "ZeroDivisionError" in problems[3]
    # the ROADMAP crash repro is one failed op until open item 1 is fixed
    assert problems[1] is None or "exit" in problems[1]


def test_timed_scales_wall_time_by_the_reference_of_the_op_kind():
    for kind in hostspeed.REFERENCES:
        result, wall, scaled = hostspeed.timed(kind, sum, [1, 2, 3])
        assert result == 6 and wall > 0 and scaled > 0
    assert workloads.periods_op(Fraction(0), Fraction(1), 4096).work == "bigint"
    assert workloads.periods_op(Fraction(0), Fraction(1), 1024).work == "interpreter"
    assert workloads.chain_op(3).work == "interpreter"


def test_pinned_outputs_are_unchanged():
    assert workloads.pinned_outputs() == workloads.PINS


def test_independent_j_invariants_agree_with_the_library():
    for a, b in ((Fraction(0), Fraction(1)), (Fraction(7, 5), Fraction(-13, 4)),
                 (Fraction(123457, 999), Fraction(-5, 77))):
        params = family.check_domain(a, b)
        expected = {label.value: family.j_invariant(family.curve_equation(label, params))
                    for label in family.ELLIPTIC_LABELS}
        assert workloads.quotient_j_invariants(a, b) == expected


def _run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    done = _run_bench("--workload", "exact_reports", "--seed", "3", "--seconds", "1",
                      "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in SPEC[section]]


def test_refuses_to_run_without_the_program():
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _run_bench("--workload", "exact_reports", "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=bare)
    assert done.returncode != 0
    assert done.stdout == ""


def _record(python):
    stamp = {key: "x" for key in ("mpmath", "mpmath_backend", "nproc", "machine",
                                  "benchmark_sha256")}
    stamp["python"] = python
    return {"workload": "exact_reports", "trace": 0, "stamp": stamp,
            "metrics": {"ops_per_s": {"value": 1.0, "unit": "1/s"}}}


def test_compare_refuses_records_from_different_environments():
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as scratch:
        base, change = Path(scratch, "base"), Path(scratch, "change")
        for side, python in ((base, "3.11.7"), (change, "3.11.7")):
            side.mkdir()
            (side / "r.json").write_text(json.dumps(_record(python)))
        assert compare.main([str(base), str(change)]) == 0
        (change / "r.json").write_text(json.dumps(_record("3.12.1")))
        assert compare.main([str(base), str(change)]) == 2
