"""The traced benchmark run (`perfbench/run.py --trace 1`) wraps kleinprym's
functions by module and attribute name.  Each name it lists must still
resolve, or a traced run crashes; this guards a rename in the library."""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402

TRACED = sorted({entry[1:3] for entry in tracing.SPANS + tracing.COUNTERS})


@pytest.mark.parametrize("module,attribute", TRACED, ids=[".".join(t) for t in TRACED])
def test_every_traced_name_resolves(module, attribute):
    assert tracing._bindings(module, attribute)
