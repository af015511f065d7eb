"""Machine-speed probe: normalises timings for a host of varying speed.

On a shared virtual machine the CPU time a process gets per wall-clock
second drifts by tens of percent over tens of seconds, so raw seconds
measured at different moments are not comparable.  A probe process
times a fixed pure-Python loop every ``INTERVAL_S`` seconds, pinned to
the same CPU as the work while the work runs on one CPU.  A phase's
seconds are then reported at reference speed::

    normalised_s = raw_s * REFERENCE_PROBE_S / mean(probe durations
                                                    during the phase)

The mean, not the median: a probe that lands in a stretch where the
host runs another tenant's work takes that stretch's length, which is
exactly the time the measured phase lost too.

While work runs on several processes, a probe shares the CPUs with
them and so would measure the program's own load as well as the host's
speed.  Such a phase is scaled by the probe over its :func:`gaps`
only: the stretches between MapReduce jobs, when the driver alone runs
and the unpinned probe has a CPU of its own.  There a long probe is a
one-off preemption of the probe, not a stretch the whole host lost, so
the gaps take the median probe instead of the mean.

``REFERENCE_PROBE_S`` is a fixed constant, so normalised seconds stay
comparable across runs, commits and machines; the raw seconds and the
probe medians are printed alongside.

Run as a script, this module is the probe itself: it samples until its
standard input closes, then writes the samples as JSON to standard
output.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

INTERVAL_S = 0.05
MIN_WINDOW_S = 1.0
LOOP_ITERATIONS = 10_000
#: Probe duration that counts as reference speed: about the loop's
#: fastest time on an otherwise idle 2-vCPU Intel Xeon virtual machine.
REFERENCE_PROBE_S = 6.0e-4


def widened(start: float, end: float) -> tuple[float, float]:
    """The window ``[start, end]``, widened to ``MIN_WINDOW_S`` around its
    middle so that a short phase averages enough samples."""
    widen = max(0.0, MIN_WINDOW_S - (end - start)) / 2.0
    return start - widen, end + widen


def gaps(
    start: float, end: float, busy: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """The parts of ``[start, end]`` outside every ``busy`` window."""
    out = []
    for busy_start, busy_end in sorted(busy):
        if busy_end <= start:
            continue
        if busy_start >= end:
            break
        if busy_start > start:
            out.append((start, busy_start))
        start = busy_end
    if start < end:
        out.append((start, end))
    return out


def probe_once() -> float:
    started = time.perf_counter()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i % 7
    return time.perf_counter() - started


def _probe_main() -> int:
    samples: list[tuple[float, float]] = []
    while True:
        readable, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
        if readable:
            break
        stamp = time.monotonic()
        samples.append((stamp, probe_once()))
    json.dump(samples, sys.stdout)
    return 0


class SpeedProbe:
    """Runs the probe process for the lifetime of a ``with`` block.

    The probe floats across CPUs until :meth:`pin_with_caller`.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._unpinned: set[int] | None = None
        self._process: subprocess.Popen | None = None

    def __enter__(self) -> "SpeedProbe":
        self._process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        return self

    def pin_with_caller(self) -> None:
        """Pin the calling thread and the probe to one CPU, so the probe
        sees the speed the caller gets (no-op once pinned)."""
        if self._unpinned is not None:
            return
        self._unpinned = os.sched_getaffinity(0)
        cpus = {min(self._unpinned)}
        os.sched_setaffinity(0, cpus)
        os.sched_setaffinity(self._process.pid, cpus)

    def unpin(self) -> None:
        """Give the caller and the probe back every CPU they had (no-op
        when not pinned)."""
        if self._unpinned is None:
            return
        os.sched_setaffinity(0, self._unpinned)
        os.sched_setaffinity(self._process.pid, self._unpinned)
        self._unpinned = None

    def median_probe_s(self) -> float:
        """Median duration of the probe loop over the whole run."""
        return statistics.median(d for _, d in self.samples)

    def __exit__(self, *exc_info) -> None:
        process = self._process
        assert process is not None
        output, _ = process.communicate(input=b"", timeout=60)
        if process.returncode == 0:
            self.samples = [tuple(s) for s in json.loads(output or b"[]")]

    def factor(self, *windows: tuple[float, float], median: bool = False) -> float:
        """Reference-speed factor over ``(start, end)`` windows of
        ``time.monotonic()``: ``REFERENCE_PROBE_S / mean probe`` (or the
        median probe) over the samples inside any of them."""
        inside = [
            d
            for stamp, d in self.samples
            if any(start <= stamp <= end for start, end in windows)
        ]
        if len(inside) < 2:
            raise RuntimeError(
                f"the speed probe recorded {len(inside)} samples in "
                f"{len(windows)} window(s)"
            )
        typical = statistics.median if median else statistics.fmean
        return REFERENCE_PROBE_S / typical(inside)


if __name__ == "__main__":
    raise SystemExit(_probe_main())
