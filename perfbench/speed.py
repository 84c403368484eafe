"""Rescaling wall times for the drifting speed of a shared host.

On a shared host the speed of a CPU drifts by up to a factor of two
within seconds, whatever the code.  While the benchmark runs, it is
pinned to one CPU, and a helper process pinned to the same CPU times a
short fixed reference loop (a probe) every INTERVAL_S seconds.  A
sample's time is its wall time minus the probes that ran inside it,
multiplied by REFERENCE_S over the median probe time around it: seconds
on a machine where the probe takes REFERENCE_S.

The probes run no onestep code and live in their own process, so what an
op does to its process (heap growth, garbage collection, threads
holding the interpreter lock) cannot move its reference.  A helper on
another CPU would not do: its probe times do not follow the drift of the
benchmark's CPU.

    python3 perfbench/speed.py      # the helper: probes until stdin closes
"""

from __future__ import annotations

import bisect
import json
import os
import select
import statistics
import subprocess
import sys
import time
from fractions import Fraction

REFERENCE_S = 0.0005    # probe time that defines the time scale
INTERVAL_S = 0.05       # time between probes
WINDOW_S = 0.25         # probes this close to a sample give its speed


def probe() -> float:
    """Seconds one run of the reference loop takes now: integer
    arithmetic, exact fractions, float repr and dict stores, the mix the
    ops spend their time on."""
    start = time.perf_counter()
    acc, table, total = Fraction(0), {}, 0
    for i in range(1, 100):
        acc += Fraction(i, i + 3)
        table[i, i % 7] = repr(i / 7.0)
        for j in range(10):
            total += i * j % 7
    return time.perf_counter() - start


def _serve() -> None:
    """Probe every INTERVAL_S until standard input closes, then print the
    (start, duration) pairs.  perf_counter is the system-wide monotonic
    clock, so the starts compare with the benchmark's own times."""
    rows = []
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        start = time.perf_counter()
        rows.append((start, probe()))
    print(json.dumps(rows), flush=True)


class SpeedProbes:
    """Context manager: pins this process to one CPU and probes that CPU
    from a helper process; the probes are read when it exits."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def __enter__(self) -> "SpeedProbes":
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._affinity)})
        self._helper = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        if self._helper.stdout.readline().strip() != "ready":
            self._helper.kill()
            self._helper.wait()
            raise RuntimeError("the speed probe helper did not start")
        return self

    def __exit__(self, *exc) -> None:
        try:
            out, _ = self._helper.communicate(timeout=60)
        finally:
            if self._helper.poll() is None:
                self._helper.kill()
                self._helper.wait()
            os.sched_setaffinity(0, self._affinity)
        rows = json.loads(out)
        self.starts = [start for start, _ in rows]
        self.durations = [duration for _, duration in rows]

    def rescale(self, start: float, seconds: float) -> float:
        """A sample's time in reference seconds."""
        end = start + seconds
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        inside = sum(d for s, d in zip(self.starts[lo:hi],
                                       self.durations[lo:hi])
                     if start <= s < end)
        nearby = self.durations[max(0, lo - 3):hi + 3]
        return (seconds - inside) * REFERENCE_S / statistics.median(nearby)


if __name__ == "__main__":
    _serve()
