"""One pass of a benchmark run, in a process of its own.

    python3 perfbench/worker.py WORKLOAD SEED timed SECONDS
    python3 perfbench/worker.py WORKLOAD SEED traced ROUNDS

The timed pass runs whole rounds of the seeded inputs until SECONDS have
passed, and then the known-defect probe of periods_mixed.  The traced pass
runs the first ROUNDS rounds again under the tracing wrappers.  Each pass
runs in a fresh process, so nothing the program keeps in memory carries from
one pass to the other, while repeats inside one pass stay repeats.  Every op
is timed with hostspeed.timed.  The last stdout line is a JSON object with
the pass's results.
"""

from __future__ import annotations

import itertools
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import workloads  # noqa: E402


def run_ops(ops, tracer=None):
    """Execute each op once, checking its output.  Returns
    [(wall s, problem or None, output digest, host-speed-scaled s)]."""
    results = []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        (outputs, problem), wall, scaled = hostspeed.timed(op.work, op.execute)
        if tracer is not None:
            tracer.op = None
        if problem is None:
            try:
                problem = op.check(outputs)
            except Exception as exc:  # a malformed output fails its op
                problem = f"check raised {type(exc).__name__}: {exc}"
        results.append((wall, problem, workloads.digest(outputs), scaled))
    return results


def timed_pass(rounds, seconds):
    """Run whole rounds once until `seconds` have passed; returns the number
    of rounds, the ops and their results."""
    ops, results = [], []
    start = time.perf_counter()
    for count, batch in enumerate(rounds, 1):
        ops += batch
        results += run_ops(batch)
        if time.perf_counter() - start >= seconds:
            return count, ops, results


def repeated_share(ops):
    seen = set()
    repeats = 0
    for op in ops:
        repeats += op.key in seen
        seen.add(op.key)
    return repeats / len(ops)


def probe(seed):
    """Outcome counts of the known-defect inputs of periods_mixed."""
    counts = {"periods.crashes": 0, "periods.precision_refusals": 0,
              "periods.closure_failures": 0, "answered": 0}
    for _, problem, _, _ in run_ops(workloads.probe_ops(seed)):
        if problem is None:
            counts["answered"] += 1
        elif ": exit 2: unexpected error" in problem:
            counts["periods.crashes"] += 1
        elif ": exit 1:" in problem:
            counts["periods.precision_refusals"] += 1
        else:
            counts["periods.closure_failures"] += 1
    return counts


def main(argv):
    workload, seed, mode, amount = argv
    seed = int(seed)
    warm = run_ops(workloads.warmup_ops(workload))
    problems = [r[1] for r in warm if r[1]]
    if workload == "exact_reports":
        problems.append(workloads.check_exact_pin([r[2] for r in warm]))
    rounds = workloads.ROUNDS[workload](seed)
    out = {}
    if mode == "timed":
        out["rounds"], ops, results = timed_pass(rounds, float(amount))
        out["repeated_input_share"] = repeated_share(ops)
        out["input_properties"] = workloads.PROPERTIES[workload]
        if workload == "periods_mixed":
            out["probe"] = probe(seed)
    else:
        import tracing

        ops = [op for batch in itertools.islice(rounds, int(amount)) for op in batch]
        tags = {index: op.tag for index, op in enumerate(ops)}
        with tracing.instrument() as tracer:
            results = run_ops(ops, tracer)
        out["layer_metrics"] = tracing.layer_metrics(tracer, tags)
        trace_dir = ROOT / ".perfbench" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_dir / f"{workload}-seed{seed}.jsonl", tags)
    out["results"] = results
    out["problems"] = [p for p in problems if p]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
