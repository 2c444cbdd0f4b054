"""A traced benchmark run (`perfbench/run.py --trace 1`) wraps kleinprym's
functions in place and reads attributes of the values they return.  One
round of each workload must give the same outputs traced as untraced, fail
no op, and leave every wrapped name as it found it."""

import importlib
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from kleinprym import torsion  # noqa: E402


def wrapped_names():
    """Every (owner, name, value) that `tracing.instrument` replaces, once
    every module that it names is loaded."""
    entries = tracing.SPANS + tracing.COUNTERS
    for entry in entries:
        importlib.import_module(entry[1])
    return ([binding for entry in entries for binding in tracing._bindings(*entry[1:3])]
            + [(Fraction, "__new__", Fraction.__dict__["__new__"])])


def fresh_run(ops, tracer=None):
    # the chains and the square-lattice report are memoised: cleared, a run
    # builds them again, through QuotientSubgroup.project among others
    torsion._duality_chain.cache_clear()
    torsion._example_surj_report.cache_clear()
    return worker.run_ops(ops, tracer)


@pytest.mark.parametrize("workload", sorted(workloads.ROUNDS))
def test_a_traced_round_gives_the_untraced_outputs(workload):
    ops = next(workloads.ROUNDS[workload](7))
    names = wrapped_names()
    plain = fresh_run(ops)
    with tracing.instrument() as tracer:
        traced = fresh_run(ops, tracer)
    assert wrapped_names() == names
    assert [problem for _, problem, _, _ in plain + traced] == [None] * (2 * len(ops))
    assert [digest for _, _, digest, _ in traced] == [digest for _, _, digest, _ in plain]
    assert tracer.spans
    if workload == "torsion_kernels":  # the counter that reads kernel.elements ran
        assert tracer.counts["torsion.coset_additions"] > 0
