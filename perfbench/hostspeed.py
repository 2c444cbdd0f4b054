"""Host speed, measured next to every timed piece of work.

On a shared host the same op runs up to 1.7x slower for stretches of 5 to
60 s, whatever the benchmark does.  No run is long enough to average that
out.  So the benchmark times a fixed piece of reference work right before
and right after each op, and scales the op's wall time by the reference's
set time over the mean of the two timings.

The reference must do the op's kind of work, because the host's slow
stretches slow interpreter-bound code, big-integer arithmetic and process
launches by different factors.  On the 2-vCPU Xeon guest the benchmark was
written on, over 60 to 90 s of one op repeated (interquartile range over
median):

| op | wall | scaled, interpreter | scaled, big-integer | scaled, launch |
|---|---|---|---|---|
| `torsion --d 5` | 10-s medians 120 to 160 ms | 10-s medians 94 to 99 ms | | |
| `periods` at 128 bits | 0.28 | 0.089 | 0.22 | |
| `periods` at 256 bits | 0.48 | 0.058 | 0.19 | |
| `periods` at 1024 bits | 0.22 | 0.089 | 0.15 | |
| `periods` at 4096 bits | 0.26 | 0.25 | 0.11 | |
| a fresh interpreter importing kleinprym.cli | 0.17 to 0.28 | 0.13 to 0.22 | | 0.087 |

So periods ops at 4096 bits use the big-integer reference, the set-up
launches the launch reference, and all other ops the interpreter reference.
The references use the standard library only, so no change to kleinprym can
move them.  The set times are rounded.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction


def _interpreter_work():
    acc = Fraction(0)
    residues = []
    for i in range(1, 120):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        residues.append(acc.numerator % 1009)
    counts = {}
    for r in residues:
        counts[r] = counts.get(r, 0) + 1
    return acc, sorted(residues), len(counts)


def _bigint_work():
    x, y, m = 3 ** 2600 | 1, 7 ** 1500, (1 << 4096) - 159
    for _ in range(16):
        x = x * y % m
        x = (x * x >> 4000) | 1
    return x


def _launch_work():
    subprocess.run([sys.executable, "-c", "import argparse, dataclasses, decimal, "
                    "email.parser, fractions, http.client, json, xml.dom.minidom"], check=True)


# Each kind of work with its time on that host in its fast state, so that a
# scaled time reads as the wall time there, and how many timings of it give
# its current time (the shortest of them).
REFERENCES = {
    "interpreter": (_interpreter_work, 0.00050, 3),
    "bigint": (_bigint_work, 0.00085, 3),
    "launch": (_launch_work, 0.065, 1),
}


def reference_seconds(kind):
    """Shortest of a few timings of one reference: the host's current speed."""
    work, _, repeats = REFERENCES[kind]
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - start)
    return best


def timed(kind, fn, *args, **kwargs):
    """Call fn; returns (result, wall seconds, wall seconds scaled to the host
    speed at which the reference of this kind of work takes its set time)."""
    before = reference_seconds(kind)
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    wall = time.perf_counter() - start
    after = reference_seconds(kind)
    return result, wall, wall * 2 * REFERENCES[kind][1] / (before + after)
