"""Machine-speed reference for the end-to-end times.

On a shared virtual machine the speed the process gets changes by up to 2x,
over spans from half a second to minutes, and process CPU time slows with
it, so neither wall nor CPU time of a job is steady from run to run.  While
a Sampler is armed, a timer signal runs a short fixed reference loop every
INTERVAL_S of wall time, between the program's bytecodes: exact rational
arithmetic with list and dict traffic, the kind of pure-Python work the
program does, calling nothing of the program.  The time spent in the loop
is taken out of the measured time, and what is left is rescaled by
NOMINAL_S over the mean loop time sampled during it.  A slow spell of the
machine slows the job and the loop alike and cancels; a slower program
does not touch the loop.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# about the reference loop's mean time while sampled on the machine the
# benchmark was tuned on (2 vCPUs of a shared Intel Xeon host, Python 3.11),
# so rescaled times read close to seconds there
NOMINAL_S = 0.0017
INTERVAL_S = 0.025


def reference_loop() -> Fraction:
    acc = Fraction(0)
    row = [Fraction(k, k + 3) for k in range(1, 13)]
    seen = {}
    for i in range(1, 11):
        x = Fraction(i, 7)
        for k, y in enumerate(row):
            acc += x * y - y
            row[k] = y * Fraction(k + 1, i + 1) + 1
        seen[i % 11] = acc
    return acc


def time_reference():
    """Wall and CPU time of one run of the reference loop, with the
    collector off so the program's heap does not change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        c0, t0 = time.process_time(), time.perf_counter()
        reference_loop()
        return time.perf_counter() - t0, time.process_time() - c0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Samples the reference loop from SIGALRM while armed.

    ``wall`` and ``cpu`` hold the loop times since the last ``scales()``;
    ``spent_wall`` and ``spent_cpu`` the total time the loop took, which a
    caller subtracts from what it timed while the sampler was armed.
    """

    def __init__(self):
        self.wall, self.cpu = [], []
        self.spent_wall = self.spent_cpu = 0.0
        self._previous = None
        self._busy = False

    def _on_alarm(self, signum, frame):
        if self._busy:   # a signal that arrives while the loop runs is dropped
            return
        self._busy = True
        try:
            wall, cpu = time_reference()
        finally:
            self._busy = False
        self.wall.append(wall)
        self.cpu.append(cpu)
        self.spent_wall += wall
        self.spent_cpu += cpu

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def take_spent(self):
        """(wall, cpu) spent in the loop since the last call."""
        spent = self.spent_wall, self.spent_cpu
        self.spent_wall = self.spent_cpu = 0.0
        return spent

    def scales(self):
        """(wall, cpu) rescaling factors from the samples since the last
        call: NOMINAL_S over the mean loop time.  The mean, not the median,
        because a job's time is the sum over its whole duration.  With no
        sample (work shorter than INTERVAL_S) one is taken now."""
        if not self.wall:
            self._on_alarm(None, None)
            self.take_spent()
        wall = NOMINAL_S * len(self.wall) / sum(self.wall)
        cpu = NOMINAL_S * len(self.cpu) / max(sum(self.cpu), 1e-9)
        self.wall, self.cpu = [], []
        return wall, cpu
