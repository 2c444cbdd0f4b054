"""The benchmark refuses a run whose pinned outputs move (`perfbench/pins.json`:
the first round of `exact_reports` at seed 0, `torsion --d 2..8` and
`example-surj`).  Check those pins here too, so a change that moves them
fails the test suite and not only a benchmark run."""

import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


def test_benchmark_pins_match_this_tree():
    assert workloads.pinned_outputs() == workloads.PINS
