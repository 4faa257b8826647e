"""Machine-speed calibration of untraced runs.

On the shared 2-core VM this benchmark was written on, everything (the
workloads, fresh-process set-up, a fixed pure-Python loop) ran up to 1.3x
slower for tens of seconds at a time, with faster and slower phases
alternating.  Taking each op's fastest of several runs removes short bursts
but not such a phase.  So a fixed loop that uses no homfrag code is timed
before every cycle of every pass, and measured exactly like an op: its time
at a cycle is its fastest over the passes, and the run's loop time is the
median over cycles.  The run's timings are reported scaled to a machine on
which that loop time is REFERENCE_S (about its value on that VM).  A change
to homfrag cannot move the loop, so it moves the scaled timings by the same
factor as the raw ones.  The report keeps the raw metrics too.
"""

import math
import statistics
from time import perf_counter

REFERENCE_S = 3e-3
_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def loop():
    """About 3 ms of interpreter work: integer mixing, floats, a small stack."""
    s, acc, stack = _GAMMA, 0.0, []
    for i in range(6600):
        s = (s + _GAMMA) & _MASK
        z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        stack.append((i, (z >> 11) * 2.0 ** -53))
        if len(stack) > 8:
            acc += math.log1p(-stack.pop()[1])
    return acc


class Calibration:
    def __init__(self):
        self.passes = []        # loop time before each cycle, per pass

    def new_pass(self):
        self.passes.append([])

    def sample(self):
        t0 = perf_counter()
        loop()
        self.passes[-1].append(perf_counter() - t0)

    def loop_s(self):
        """The loop's time, taken like an op's: fastest pass, median cycle."""
        return statistics.median(min(runs) for runs in zip(*self.passes))

    def scale(self):
        """Factor that turns this run's times into reference-machine times."""
        return REFERENCE_S / self.loop_s()
