"""Machine speed, sampled while the program runs, and times rescaled to a
fixed reference speed.

The VMs this benchmark runs on change CPU speed between two levels about
1.5x apart, in stretches from a tenth of a second to tens of seconds, and
two vCPUs do not change together.  A timing taken over a whole run then
measures the share of slow stretches in it more than the program.  The
pacer measures the speed on the same thread as the program: an interval
timer interrupts the program every PERIOD_S seconds and the signal
handler times small fixed probes.  A stretch of program time between two
handler calls is rescaled by the probe's reference time over its measured
time, and the time spent in the handler is left out.  A rescaled time is
the time the work would have taken on a machine that runs the probe in
its reference time; it moves with the program's own cost and much less
with the VM's speed at the time.

There are two probes, because the two kinds of work bmlab does slow down
differently: interpreter work (most of it) tracks the `interpreter` probe,
and numpy passes over arrays larger than the cache (the pure-Nash
enumeration) track the `memory` probe.  Each timed step names its probe.

Signals are handled between bytecodes, so inside a long numpy call the
sample waits until the call returns; the stretch is still rescaled by the
sample that ends it.
"""
from __future__ import annotations

import bisect
import signal
import time

clock = time.monotonic   # CLOCK_MONOTONIC, the clock the parent reads too

PERIOD_S = 0.01
_MEM = []   # the memory probe's two arrays, once arm_memory made them
# resident bytes the memory probe adds to a child for its whole life
PROBE_BYTES = 2 * (2 << 20)


def _interpreter() -> float:
    """An edit-distance table, float arithmetic and dict stores.  A tight
    integer loop tracked the slowdown of bmlab's interpreter work less
    well."""
    a, b = "kalomepa tisu", "lomepa tisuka"
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    x, table = float(prev[-1]), {}
    for k in range(150):
        x += (k * 0.5) ** 0.5
        table[k % 31] = x
    return x


def _memory() -> bool:
    """One numpy pass over two 2 MB arrays, once they exist."""
    if not _MEM:
        return False
    a, b = _MEM
    a += b
    return True


# name: (probe, run on every n-th handler call, reference seconds).  The
# reference times are about the probes' times on the fast level of the
# 2-vCPU Xeon VM the benchmark was written on; any constant does, it only
# sets the scale.
PROBES = {
    "interpreter": (_interpreter, 1, 0.00013),
    "memory": (_memory, 4, 0.0004),
}


def arm_memory() -> None:
    """Make the memory probe's arrays.  Done once numpy is loaded, so that
    the pacer can start before the program imports it."""
    import numpy as np
    arrays = [np.ones(PROBE_BYTES // 16) for _ in range(2)]
    _MEM[:] = arrays   # one bytecode: the handler never sees half of them


class Pacer:
    def __init__(self):
        self._starts, self._ends = [], []
        self._calls = {name: [] for name in PROBES}   # handler call numbers
        self._secs = {name: [] for name in PROBES}

    def _sample(self, _signum, _frame):
        n, start = len(self._ends), clock()
        for name, (probe, every, _) in PROBES.items():
            if n % every == 0:
                t0 = clock()
                if probe() is not False:
                    self._secs[name].append(clock() - t0)
                    self._calls[name].append(n)
        self._starts.append(start)
        self._ends.append(clock())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self, t0: float, t1: float) -> float:
        """Time spent in the handler between t0 and t1."""
        lo, hi = bisect.bisect_right(self._ends, t0), bisect.bisect_right(self._ends, t1)
        return sum(e - s for s, e in zip(self._starts[lo:hi], self._ends[lo:hi]))

    def _scale(self, n: int, probe: str) -> float:
        """Reference over measured time of the probe's first sample at or
        after handler call n (its last sample if there is none)."""
        calls, secs = self._calls[probe], self._secs[probe]
        if not calls:
            return 1.0
        return PROBES[probe][2] / secs[min(bisect.bisect_left(calls, n), len(calls) - 1)]

    def scale_at(self, t: float, probe: str = "interpreter") -> float:
        """The factor that rescales a stretch of time around t."""
        return self._scale(bisect.bisect_right(self._ends, t), probe)

    def ref_seconds(self, t0: float, t1: float, probe: str = "interpreter") -> float:
        """Program time between t0 and t1 at the reference speed of `probe`."""
        starts, ends = self._starts, self._ends
        i = bisect.bisect_right(ends, t0)
        total, prev = 0.0, t0
        while i < len(ends) and ends[i] <= t1:
            total += max(starts[i] - prev, 0.0) * self._scale(i, probe)
            prev = ends[i]
            i += 1
        # the tail up to t1 is scaled by the next sample, or the last one
        return total + max(t1 - prev, 0.0) * self._scale(i, probe)
