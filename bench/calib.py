"""Host-speed probe: the op latencies of a run, in reference milliseconds.

The benchmark runs on shared hosts whose speed drifts by tens of percent
within minutes, which would swamp any change to immtools.  While a run's
ops execute, a real-time interval timer interrupts the loop every PERIOD_S
seconds and times one run of a fixed pure-Python kernel (graph search over
dicts, tuples and lists: the same interpreter work immtools does, none of
immtools' code).  Each op's latency is then scaled by REF_KERNEL_NS over the
mean kernel time sampled around it, so it reads as the latency on a host
where the kernel takes REF_KERNEL_NS: "reference time".  REF_KERNEL_NS is
about the kernel's typical time on a 2-vCPU KVM guest (Xeon with AVX-512,
Python 3.11), whose speed ranged over 0.55-1.3 of it in one evening.  A
change to immtools moves the scaled latency; a change of host speed moves
the kernel too and mostly cancels out.

The time spent in the probe is measured and taken out of the op that it
interrupted.
"""

from __future__ import annotations

import array
import signal
import time

CLOCK = time.perf_counter_ns
PERIOD_S = 0.015
REF_KERNEL_NS = 200_000
WINDOW = 16  # samples on each side of an op that its speed is averaged over

_N = 160
_ADJ = {i: ((i * 7 + 1) % _N, (i * 13 + 5) % _N, (i + 1) % _N) for i in range(_N)}


def kernel() -> int:
    """Breadth-first layers from two roots, with a sort per layer."""
    total = 0
    for root in (0, 1):
        dist = {root: 0}
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for v in _ADJ[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append((v, u))
            nxt.sort()
            frontier = [v for v, _ in nxt]
        total += sum(dist.values())
    return total


class SpeedProbe:
    """Context manager that samples the kernel time while it is active.

    `samples` holds one kernel time (ns) per timer tick; `spent_ns` is the
    total time spent in the handler, which the loop subtracts from the op
    that was running.
    """

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.samples = array.array("q")
        self.spent_ns = 0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = CLOCK()
        kernel()
        t1 = CLOCK()
        self.samples.append(t1 - t0)
        self.spent_ns += CLOCK() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, first, last):
        """Per op, REF_KERNEL_NS over the mean kernel time of the samples
        taken from WINDOW before its first sample to WINDOW after its last.
        `first[i]`/`last[i]` are len(samples) at op i's start and end."""
        n = len(self.samples)
        if n == 0:
            raise ValueError("the speed probe took no samples")
        prefix = array.array("q", [0])
        for s in self.samples:
            prefix.append(prefix[-1] + s)
        out = array.array("d")
        for a, b in zip(first, last):
            lo, hi = max(0, a - WINDOW), min(n, b + WINDOW)
            if hi - lo < 2 * WINDOW:  # near an end of the run: widen inward
                lo, hi = max(0, min(lo, hi - 2 * WINDOW)), min(n, max(hi, lo + 2 * WINDOW))
            out.append(REF_KERNEL_NS * (hi - lo) / (prefix[hi] - prefix[lo]))
        return out

    def mean_speed(self) -> float:
        """Host speed over the whole run, relative to the reference host."""
        return REF_KERNEL_NS * len(self.samples) / sum(self.samples)
