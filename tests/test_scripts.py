import json
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


ROOT = SCRIPTS.parent


def test_every_bench_record_holds_correct_runs():
    # the runs a speed claim may cite: each names the source it measured, checked
    # its outputs and failed none; no speed bound is set here
    for path in ROOT.glob("BENCH_*.json"):
        bench = json.loads(path.read_text())
        assert all(len(bench["commits"][side]) == 40 for side in ("parent", "change"))
        runs = bench["runs"]
        assert runs, path.name
        for run in runs:
            record = run["record"]
            assert len(record["stamp"]["source_sha256"]) == 64, path.name
            assert record["correct"] is True and record["failed"] == 0, (path.name, run["side"])


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs the git history")
def test_bench_record_alternates_the_sides(tmp_path):
    # a stand-in for perfbench/run.py, whose ops/s counts the runs so far
    main = runpy.run_path(str(SCRIPTS / "bench_record.py"))["main"]
    calls = []

    def bench(tree, workload, seed, seconds):
        assert (tree / "perfbench" / "run.py").is_file()
        calls.append((tree.name, seed))
        return {"workload": workload, "seed": seed, "failed": 0, "attempted": 1,
                "metrics": {"ops_per_s": {"value": len(calls), "unit": "1/s"}}}

    main.__globals__["bench"] = bench
    out = tmp_path / "BENCH.json"
    assert main(["HEAD", "HEAD", "--out", str(out), "--pairs", "3", "--seed", "5",
                 "--workload", "periods_mixed"]) == 0
    assert calls == [("parent", 5), ("change", 5), ("change", 6), ("parent", 6),
                     ("parent", 7), ("change", 7)]
    record = json.loads(out.read_text())
    assert record["summary"] == {"periods_mixed": {
        "parent": {"ops_per_s": {"median": 4, "min": 1, "max": 5}},
        "change": {"ops_per_s": {"median": 3, "min": 2, "max": 6}}}}
