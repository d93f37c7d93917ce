"""How fast the core is while a segment runs: the factor the ledger divides by.

On this shared 2-vCPU microVM a fixed piece of pure Python takes either
its calm time or ~1.45x that (a neighbour on the physical core), in
stretches of 0.1-1 s that come and go; what share of a minute is slow
wanders between a few per cent and most of it.  The slowdown is CPU
time, not stolen time, so nothing inside the workload process can tell
it from the program's own cost.  A *sampler* can: a child process on
the same core that sleeps, and every :data:`PERIOD` times
:data:`LOOP` iterations of fixed work on its own thread CPU clock (so
waiting for the core behind the workload does not count).  Measured
over 45 ring jobs and 82 star jobs: a job's wall tracks the mean probe
time over the job's own interval with log-log slope 0.85-1.09, and
dividing by it takes the job-to-job scatter from sd 0.10-0.13 to
0.05-0.06.

Every end-to-end sample is therefore reported at a fixed reference core
speed:

    rate  x (mean probe time over the sample's interval / REFERENCE_S)
    time  / (mean probe time over the sample's interval / REFERENCE_S)

``REFERENCE_S`` only fixes the unit (it cancels in every comparison of
two ledgers); the raw value, the factor and the run's own calm-core
probe time are stored beside every value so a ledger can be re-based.

Run as a script this file *is* the sampler: it samples until its
standard input closes, then prints its samples as JSON.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time

#: iterations of the probe loop (~0.26 ms of CPU on this box when calm).
LOOP = 5000
#: seconds the sampler sleeps between probes (~1.3 % of the core).
PERIOD = 0.02
#: the unit: one probe on the reference core, in seconds of CPU.
REFERENCE_S = 0.000262
#: a sample's interval is widened by this much either side, so that even
#: a 25 ms bring-up sees a handful of probes.
PAD_S = 0.05


def probe() -> float:
    """CPU seconds this thread spends on :data:`LOOP` iterations."""
    c0 = time.thread_time()
    x = 0
    for i in range(LOOP):
        x += i * i
    return time.thread_time() - c0


class Sampler:
    """The sampler child, from the workload process's side."""

    def __init__(self):
        # the child inherits this process's one-core affinity
        self._child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def stop(self) -> "list[tuple[float, float]]":
        """End the child, wait for it; its ``(when, probe_s)`` samples."""
        out, _ = self._child.communicate()
        return [tuple(sample) for sample in json.loads(out or b"[]")]


def factor(samples, start: float, end: float, pad: float = PAD_S) -> float:
    """Core slowness over ``[start, end]``: mean probe over the reference.

    The mean, because a sample's wall clock is the sum of its fast and
    slow stretches.  With no probe inside the (padded) interval the
    factor is that of the nearest probe; with no probes at all, 1.
    """
    inside = [s for t, s in samples if start - pad <= t <= end + pad]
    if not inside:
        if not samples:
            return 1.0
        middle = (start + end) / 2.0
        inside = [min(samples, key=lambda sample: abs(sample[0] - middle))[1]]
    return sum(inside) / len(inside) / REFERENCE_S


def calm_probe(samples) -> float:
    """The run's own calm-core probe time: the first decile, seconds."""
    ordered = sorted(s for _t, s in samples)
    return ordered[len(ordered) // 10] if ordered else 0.0


def _sample_until_eof() -> None:
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD)[0]:
        when = time.perf_counter()
        samples.append((when, probe()))
    json.dump(samples, sys.stdout)


if __name__ == "__main__":
    _sample_until_eof()
