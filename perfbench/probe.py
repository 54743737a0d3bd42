"""Timings in seconds at reference speed.

The benchmark's host changes speed by tens of percent within seconds:
the same ``bootstrap_ci`` call took 2.9 s and 5.0 s a minute apart, with
CPU time alike, so neither wall nor CPU time repeats. While a ``Probe``
is active, a timer interrupts the process every ``PERIOD_S`` seconds and
times a fixed loop of Python float and dict work that uses no dial code,
so the machine's speed is sampled throughout each timed block, on the
same CPU. A block's wall time, less the time spent in probes, is scaled
by ``NOMINAL_S`` over the mean probe time during the block (or near it,
for a block too short to hold many probes): the result is the block's
time on a machine where the probe loop takes ``NOMINAL_S``.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Iterator, List, Tuple

PERIOD_S = 0.05
LOOPS = 1500
NOMINAL_S = 0.0003  # about the probe loop's time on a 2-vCPU x86-64 VM, Python 3.11
RECENT = 20  # probes that stand in for a block too short to hold that many


def probe_seconds() -> float:
    start = time.perf_counter()
    total, table = 0.0, {}
    for i in range(LOOPS):
        total += (i * 0.5) ** 0.5
        table[i % 97] = total
    return time.perf_counter() - start


@dataclass
class Timing:
    probe: "Probe"
    start: float = 0.0
    end: float = 0.0

    @property
    def wall(self) -> float:
        """Raw wall time, probes included."""
        return self.end - self.start

    @property
    def seconds(self) -> float:
        """Wall time less probes, at reference speed. The speed is the mean
        of the probes during the block or, when it holds fewer than
        ``RECENT``, of the ``RECENT`` probes nearest to its middle."""
        samples = self.probe.samples
        during = [d for t, d in samples if self.start <= t < self.end]
        if len(during) >= RECENT:
            speed = statistics.mean(during)
        else:
            middle = (self.start + self.end) / 2
            near = sorted(samples, key=lambda s: abs(s[0] - middle))[:RECENT]
            speed = statistics.mean(d for _, d in near) if near else probe_seconds()
        return (self.wall - sum(during)) * NOMINAL_S / speed


class Probe:
    """Samples the machine's speed on a timer while active (a context
    manager). Uses SIGALRM, so only one may be active, in the main thread."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (start, duration) of each probe

    def _on_timer(self, signum: int, frame: object) -> None:
        start = time.perf_counter()
        self.samples.append((start, probe_seconds()))

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextlib.contextmanager
    def timed(self) -> Iterator[Timing]:
        """Time the block. Read the Timing's ``seconds`` after the block;
        reading it later lets a short block use the probes that follow it."""
        timing = Timing(self, start=time.perf_counter())
        yield timing
        timing.end = time.perf_counter()
