"""The machine's speed, sampled while the benchmark runs.

On a shared host the speed of a core changes by a quarter or more within
seconds, as neighbours come and go, and a run of tens of seconds catches
a different mix of fast and slow stretches each time.  A
:class:`SpeedProbe` times a short fixed calibration kernel at the start
and end of each pass and, from a SIGALRM timer, every ``interval``
seconds while the pass runs.  A pass time multiplied by the mean of
``REFERENCE_KERNEL_S / kernel time`` over the samples of that pass is the
time the pass would take at the reference speed: the speed at which the
kernel takes ``REFERENCE_KERNEL_S``.  Work the program adds or removes
moves that figure; the speed of the core does not.

The kernel mixes interpreter work with small dense linear algebra, as the
workloads do, and writes into buffers it owns: a sample that lands in the
middle of a command allocates no array, so it leaves the program's heap,
and with it the peak memory, as it found it.  The probe's own time inside
a timed command is kept in :attr:`SpeedProbe.spent` so the caller can
take it out of the command's time.

Start-up work — reading files, faulting pages in, unmarshalling code —
slows differently from computation, so a set-up time is taken to the
reference speed by :func:`start_seconds` instead: the wall time of a fresh
interpreter that imports a fixed set of standard-library modules, which
takes ``REFERENCE_START_S`` at the reference speed.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time

import numpy as np

# Seconds the kernel and the start-up calibration take at the reference
# speed: about their times on an unloaded core of the 2-core x86-64 box
# (2.1 GHz Xeon) the baseline was measured on.  They set the scale of the
# reported times, nothing else.
REFERENCE_KERNEL_S = 0.001
REFERENCE_START_S = 0.12

START_CODE = (
    "import argparse, csv, dataclasses, decimal, email.parser, fractions, "
    "http.client, json, statistics, unittest, xml.dom.minidom"
)

_M = np.random.default_rng(0).standard_normal((12, 12))
_x = np.ones(12)
_y = np.empty(12)


def kernel_seconds() -> float:
    """Time one run of the calibration kernel."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(200):
        np.matmul(_M, _x, out=_y)
        acc += float(np.dot(_x, _y))
        np.multiply(_y, 1.0 / 16.0, out=_x)
        np.add(_x, 0.5, out=_x)
        acc += sum(k * 0.5 for k in range(24))
    return time.perf_counter() - start


def start_seconds() -> float:
    """Time a fresh interpreter that imports ``START_CODE`` and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", START_CODE], check=True, timeout=120)
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the kernel around and during passes; see the module doc."""

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.spent = 0.0
        self.total = 0.0  # sum of the samples' speed factors
        self.count = 0
        self._previous = None
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # a tick that lands inside a sample is dropped
            return
        self._busy = True
        start = time.perf_counter()
        self.total += REFERENCE_KERNEL_S / kernel_seconds()
        self.count += 1
        self.spent += time.perf_counter() - start
        self._busy = False

    def _tick(self, signum, frame) -> None:
        self.sample()

    def arm(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> tuple[float, int]:
        return self.total, self.count

    def factor_since(self, mark: tuple[float, int]) -> float:
        """Mean speed factor of the samples taken since ``mark``."""
        total, count = mark
        return (self.total - total) / (self.count - count)
