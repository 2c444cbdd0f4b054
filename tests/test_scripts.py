import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script,args", [
    ("period_demo.py", ["--bits", "128"]),
    ("fiber_sweep.py", ["--samples", "3"]),
])
def test_demo_script_runs(script, args, monkeypatch, capsys):
    # a smoke run: the scripts import the library's public names, so a
    # renamed or removed one fails here
    main = runpy.run_path(str(SCRIPTS / script))["main"]
    monkeypatch.setattr(sys, "argv", [script, *args])
    assert main() == 0
    assert capsys.readouterr().out
