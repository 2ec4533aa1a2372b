"""A background probe that gauges the host's speed while a run measures.

The benchmark host is a few CPUs of a shared machine.  Its speed for
interpreter-bound work drifts by up to 1.8x, for seconds to minutes at
a time, so two runs of the same code minutes apart can differ by more
than any bound allows.  :class:`SpeedSampler` starts one process
(``python3 hostspeed.py OUT``) that, every 0.2 s, runs a fixed burst
of pure-Python work sharing nothing with the program under test --
attribute and dict lookups, small-object allocation, a heap -- and
records the burst's CPU time.  CPU time leaves out the time the burst
waits for a CPU the measured processes hold, so it tracks how fast the
CPUs run, not how busy they are.  The sampler costs about 4% of one
CPU.

Host-time metrics are reported as ``measured x PROBE_REF_S / probe``,
where probe is the mean burst time over the repetition's time window:
seconds at the speed the host had when a burst took
:data:`PROBE_REF_S`.  A change to the program moves them as it moves
wall time; a change in the host's speed is divided out.
"""

from __future__ import annotations

import heapq
import os
import pathlib
import statistics
import subprocess
import sys
import time
from typing import List, Tuple

#: burst CPU time, in seconds, that normalised metrics are scaled to
#: (the burst's typical time on the 2-vCPU host the benchmark was
#: tuned on)
PROBE_REF_S = 0.0075
BURST_STEPS = 3000
INTERVAL_S = 0.2
STOP_TIMEOUT_S = 10.0


class _Line:
    __slots__ = ("tag", "stamp", "dirty")

    def __init__(self, tag: int, stamp: int) -> None:
        self.tag, self.stamp, self.dirty = tag, stamp, False


def churn(steps: int) -> None:
    """A small LRU-cache walk driven by a linear congruential stream."""
    sets = [{} for _ in range(256)]
    heap: list = []
    x = 12345
    for t in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        lines = sets[x & 255]
        tag = x >> 8 & 1023
        line = lines.get(tag)
        if line is None:
            if len(lines) >= 8:
                victim = min(lines.values(), key=lambda entry: entry.stamp)
                del lines[victim.tag]
            lines[tag] = _Line(tag, t)
            heapq.heappush(heap, (t + (x & 63), tag))
        else:
            line.stamp = t
            line.dirty = not line.dirty
        while heap and heap[0][0] <= t:
            heapq.heappop(heap)


class SpeedSampler:
    """The sampler process, from ``with`` entry to exit (always waited
    for); :meth:`probe` reads its bursts afterwards."""

    def __init__(self, out: pathlib.Path) -> None:
        self.out = out
        self.proc = None

    def __enter__(self) -> "SpeedSampler":
        self.proc = subprocess.Popen(
            [sys.executable, str(pathlib.Path(__file__).resolve()),
             str(self.out)])
        return self

    def __exit__(self, *_exc) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def bursts(self) -> List[Tuple[float, float]]:
        """(monotonic start, CPU seconds) of every complete burst."""
        rows = []
        for line in self.out.read_text().splitlines():
            fields = line.split()
            if len(fields) == 2:
                rows.append((float(fields[0]), float(fields[1])))
        return rows

    def probe(self, start: float, end: float) -> float:
        """Mean burst CPU time in the monotonic window [start, end]."""
        inside = [cpu for at, cpu in self.bursts() if start <= at <= end]
        if not inside:
            raise RuntimeError(
                f"no host-speed sample between {start:.3f} and {end:.3f}")
        return statistics.fmean(inside)


def main(out: str) -> int:
    """Sampler loop; ends on SIGTERM or when its parent is gone."""
    parent = os.getppid()
    churn(BURST_STEPS)  # warm-up, not recorded
    with open(out, "w") as handle:
        while os.getppid() == parent:
            started, cpu = time.monotonic(), time.process_time()
            churn(BURST_STEPS)
            handle.write(f"{started:.6f} {time.process_time() - cpu:.9f}\n")
            handle.flush()
            time.sleep(INTERVAL_S)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
