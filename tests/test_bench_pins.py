"""The benchmark refuses a run whose pinned outputs move (`perfbench/pins.json`:
the first round of `exact_reports` at seed 0, `torsion --d 2..8` and
`example-surj`).  Check those pins here too, so a change that moves them
fails the test suite and not only a benchmark run, and pin two sweeps of the
workloads' default outputs in bulk."""

import hashlib
import itertools
import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


def test_benchmark_pins_match_this_tree():
    assert workloads.pinned_outputs() == workloads.PINS


# sha256 over the outputs of the first 25 rounds of `exact_rounds(1)`, each
# op's argvs in order, each with --format json and then --format text
EXACT_SWEEP_DIGEST = "027727b93b1d2f770b82f624c1c75b751ab7f4e230618550d43fcb595647ab4c"


def test_exact_rounds_sweep_matches_pinned_digest():
    h = hashlib.sha256()
    for ops in itertools.islice(workloads.exact_rounds(1), 25):
        for op in ops:
            for argv in op.argvs:
                for fmt in ("json", "text"):
                    _, out, _ = workloads.call_cli(argv + ["--format", fmt])
                    h.update(out.encode() + b"\0")
    assert h.hexdigest() == EXACT_SWEEP_DIGEST


# sha256 over the default (JSON) outputs of the first 8 rounds of
# `periods_rounds(1)`, 112 periods reports at 128, 256, 1024 and 4096 bits,
# points 1e-10 from a discriminant locus among them
PERIODS_SWEEP_DIGEST = "bcd14a0220fac5bc947b27ad73b7c144c3522538f58f4702b8db580b5e694da9"


def test_periods_rounds_sweep_matches_pinned_digest():
    h = hashlib.sha256()
    for ops in itertools.islice(workloads.periods_rounds(1), 8):
        for op in ops:
            for argv in op.argvs:
                _, out, _ = workloads.call_cli(argv)
                h.update(out.encode() + b"\0")
    assert h.hexdigest() == PERIODS_SWEEP_DIGEST


# sha256 over the outputs of the first 20 rounds of `torsion_rounds(1)`, each
# op's outputs in order: the `torsion --d N` and `example-surj` JSON and the
# seeded `ker_phi_H` kernel ops' `library()` reports, 300 outputs
TORSION_SWEEP_DIGEST = "aae3c9834bdd188acfc0bfc23008c0f13a9b0393f51abb17fc8f531a689a97c3"


def test_torsion_rounds_sweep_matches_pinned_digest():
    h = hashlib.sha256()
    for ops in itertools.islice(workloads.torsion_rounds(1), 20):
        for op in ops:
            outputs, error = op.execute()
            assert error is None, error
            for out in outputs:
                h.update(out.encode() + b"\0")
    assert h.hexdigest() == TORSION_SWEEP_DIGEST
