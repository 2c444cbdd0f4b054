#!/usr/bin/env python3
"""Run the benchmark on two commits in alternating order and record every run.

Usage: python3 scripts/bench_record.py PARENT CHANGE --out BENCH_N.json
           [--pairs 3] [--seed 1] [--workload NAME ...]

PARENT and CHANGE are git revisions of this repository.  Each is unpacked
with `git archive` into its own temporary directory, and
`perfbench/run.py --trace 0` runs there for the `run_seconds` of
BENCHMARK.json, so each side measures its own committed tree, benchmark
included.  Pair i runs both sides at seed --seed + i, the parent first when
i is even and the change first when it is odd.  The output holds each run's
results record and, per workload and side, the median and range (min, max)
of every end-to-end metric.
"""

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("exact_reports", "torsion_kernels", "periods_mixed")


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def unpack(commit, directory):
    """The tree of `commit`, unpacked into the new directory `directory`."""
    directory.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as members:
        members.extractall(directory, filter="data")
    return directory


def bench(tree, workload, seed, seconds):
    """The results record of one untraced run in `tree`."""
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                   cwd=tree, stdout=subprocess.DEVNULL, check=True)
    path = tree / ".perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text())


def summarize(runs):
    """Per workload and side, each end-to-end metric's median and range."""
    table = {}
    for run in runs:
        record = run["record"]
        side = table.setdefault(record["workload"], {}).setdefault(run["side"], {})
        for name, metric in record["metrics"].items():
            side.setdefault(name, []).append(metric["value"])
    return {workload: {side: {name: {"median": statistics.median(values),
                                     "min": min(values), "max": max(values)}
                              for name, values in metrics.items()}
                       for side, metrics in sides.items()}
            for workload, sides in table.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)

    commits = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    with tempfile.TemporaryDirectory() as work:
        trees = {side: unpack(commit, Path(work) / side) for side, commit in commits.items()}
        runs = []
        for workload in args.workload or WORKLOADS:
            for pair in range(args.pairs):
                seed = args.seed + pair
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    record = bench(trees[side], workload, seed, seconds)
                    runs.append({"side": side, "pair": pair, "record": record})
                    print(f"{workload} pair {pair} seed {seed} {side}: "
                          f"{record['metrics']['ops_per_s']['value']:.6g} ops/s, "
                          f"{record['failed']} of {record['attempted']} failed", flush=True)

    args.out.write_text(json.dumps({
        "commits": commits, "seconds": seconds, "pairs": args.pairs,
        "runs": runs, "summary": summarize(runs),
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
