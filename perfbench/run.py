"""kleinprym benchmark: one closed-loop client, one thread, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  Inputs come from --seed only.  With
--trace 0 a fresh worker process runs whole rounds of them for S seconds,
and the last stdout line holds the end-to-end metrics.  Every time in them
is scaled by the host's speed, measured next to it (hostspeed.py); the
plain wall times are printed and recorded beside them.  With --trace 1 a
worker runs the inputs untraced for S/2 seconds, a second one runs the same
inputs traced, and the last line holds the per-layer metrics.
BENCHMARK.json names every metric.  A results record goes to
.perfbench/results/, the traced run's spans to .perfbench/traces/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("exact_reports", "torsion_kernels", "periods_mixed")
SETUP_LAUNCHES = 5  # at each of the start and end of a run


class SetupTimer:
    """Time of fresh interpreters importing kleinprym.cli, the cost every CLI
    call pays, as wall seconds and scaled by the host's speed."""

    def __init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), self.env.get("PYTHONPATH")]))
        self.command = [sys.executable, "-c", "import kleinprym.cli"]
        self.wall, self.scaled = [], []
        subprocess.run(self.command, env=self.env, cwd=ROOT, check=True)  # writes bytecode

    def launch(self):
        for _ in range(SETUP_LAUNCHES):
            _, wall, scaled = hostspeed.timed(
                "launch", subprocess.run, self.command, env=self.env, cwd=ROOT, check=True)
            self.wall.append(wall)
            self.scaled.append(scaled)


def worker(*args):
    """Run one pass in a fresh process and return its JSON result."""
    done = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), *map(str, args)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def end_to_end(latencies, setup_times, peak_rss_mb):
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1000 * deciles[4],
        "latency_p90_ms": 1000 * deciles[8],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }


def stamp():
    import mpmath

    def tree_digest(paths):
        h = hashlib.sha256()
        for path in sorted(paths):
            h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
        return h.hexdigest()

    commit = None  # a checkout without git metadata; source_sha256 identifies it
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "benchmark_sha256": tree_digest([*BENCH_DIR.glob("*.py"), BENCH_DIR / "pins.json",
                                         ROOT / "BENCHMARK.json"]),
        "commit": commit,
        "source_sha256": tree_digest((ROOT / "src" / "kleinprym").glob("*.py")),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kleinprym" / "cli.py").is_file():
        print(f"no kleinprym source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    if args.trace:
        plain = worker(args.workload, args.seed, "timed", args.seconds / 2)
        traced = worker(args.workload, args.seed, "traced", plain["rounds"])
        passes = [plain, traced]
    else:
        setup = SetupTimer()
        setup.launch()
        plain = worker(args.workload, args.seed, "timed", args.seconds)
        setup.launch()
        passes = [plain]

    results = plain["results"]
    inputs = len(results)
    failed = [(i, r[1]) for i, r in enumerate(results) if r[1]]
    if args.trace:  # the traced run of each input must print the same bytes
        failed += [(i, r[1] or "traced output differs from the untraced output")
                   for i, (r, t) in enumerate(zip(results, traced["results"]))
                   if t[1] or t[2] != r[2]]
    attempted = inputs * len(passes)
    problems = [p for run in passes for p in run["problems"]]
    problems += [f"input {i}: {p}" for i, p in failed]
    probe = plain.get("probe", {})

    wall = [r[0] for r in results]
    if args.trace:
        metrics = traced["layer_metrics"]
        # the reference work runs under the wrappers too, so compare wall times
        plain_rate = inputs / sum(wall)
        traced_rate = inputs / sum(r[0] for r in traced["results"])
        metrics["trace.overhead_ops_per_s"] = plain_rate - traced_rate
        metrics["trace.overhead_share"] = 1 - traced_rate / plain_rate
        metrics["error_rate"] = len(failed) / attempted
        for name in ("periods.crashes", "periods.precision_refusals",
                     "periods.closure_failures"):
            metrics[name] = probe.get(name, 0)
    else:
        metrics = end_to_end([r[3] for r in results], setup.scaled, plain["peak_rss_mb"])
        wall_metrics = end_to_end(wall, setup.wall, plain["peak_rss_mb"])
    if set(metrics) != set(declared):
        print(f"metrics {sorted(set(metrics) ^ set(declared))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 2

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "stamp": stamp(), "inputs": inputs,
        "input_properties": plain["input_properties"],
        "repeated_input_share": plain["repeated_input_share"],
        "known_defect_probe": probe, "correct": not problems,
        "attempted": attempted, "failed": len(failed), "problems": problems[:20],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    if not args.trace:
        record["wall_metrics"] = wall_metrics
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    env = record["stamp"]
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"environment: python {env['python']}, mpmath {env['mpmath']} "
          f"(backend {env['mpmath_backend']}), nproc {env['nproc']}, commit {env['commit']}, "
          f"source {env['source_sha256'][:12]}")
    print(f"inputs: {record['input_properties']}")
    print(f"{inputs} inputs, {100 * record['repeated_input_share']:.1f}% repeated within a "
          "run" + (", each run untraced, then traced" if args.trace else ""))
    print(f"ops: {attempted} attempted, {len(failed)} failed "
          f"(error_rate {len(failed) / attempted:.4g})")
    for problem in problems[:20]:
        print(f"  problem: {problem}")
    if probe:
        print("known-defect probe (untimed): " + ", ".join(
            f"{name.removeprefix('periods.')} {n}" for name, n in probe.items()))
    if not args.trace:
        print("times scaled by host speed (plain wall time in brackets):")
    for name, metric in record["metrics"].items():
        plain_value = "" if args.trace else f" [{wall_metrics[name]:.6g}]"
        print(f"  {name} = {metric['value']:.6g}{plain_value} {metric['unit']}"
              + (f" ({inputs} samples)" if name.startswith("latency_") else ""))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
