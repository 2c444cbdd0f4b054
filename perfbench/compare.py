"""Compare two sets of benchmark results records.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds records that perfbench/run.py wrote to
.perfbench/results/.  Records whose environment stamps differ (Python,
mpmath version and backend, nproc, machine, benchmark files) are refused,
because their difference would not isolate the program.  For each workload
and metric the script prints each side's median and quartiles, and exits 1
when a change median is worse than the base median by more than the bound
in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_KEYS = ("python", "mpmath", "mpmath_backend", "nproc", "machine", "benchmark_sha256")


def load(directory):
    return [json.loads(path.read_text()) for path in sorted(Path(directory).glob("*.json"))]


def summary(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv=None):
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark records.")
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    base, change = load(args.base), load(args.change)
    if not base or not change:
        print("refused: a side has no records", file=sys.stderr)
        return 2
    stamps = {tuple(record["stamp"][key] for key in ENV_KEYS) for record in base + change}
    if len(stamps) != 1:
        print(f"refused: records come from {len(stamps)} different environment stamps "
              f"({', '.join(ENV_KEYS)})", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse = 0
    for workload, trace in sorted({(r["workload"], r["trace"]) for r in base + change}):
        sides = [[r for r in side if (r["workload"], r["trace"]) == (workload, trace)]
                 for side in (base, change)]
        if not all(sides):
            continue
        print(f"{workload} (trace {trace}): {len(sides[0])} base runs, {len(sides[1])} change runs")
        for name in sides[0][0]["metrics"]:
            b_q1, b_med, b_q3 = summary([r["metrics"][name]["value"] for r in sides[0]])
            c_q1, c_med, c_q3 = summary([r["metrics"][name]["value"] for r in sides[1]])
            metric = declared[name]
            verdict = ""
            if "bound" in metric and b_med:
                change_share = c_med / b_med - 1
                if metric["better"] == "higher":
                    change_share = -change_share
                if change_share > metric["bound"]:
                    verdict = f"  WORSE by {change_share:.1%} (bound {metric['bound']:.0%})"
                    worse += 1
            print(f"  {name:44s} base {b_med:.6g} [{b_q1:.6g}, {b_q3:.6g}]  "
                  f"change {c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}] {metric['unit']}{verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
