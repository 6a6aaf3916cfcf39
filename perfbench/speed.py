"""Operation timing corrected for the host's speed at the time.

On a shared host the same pure-Python code runs at 1.1 to 2 times its
fastest time, in spells of seconds to minutes that no in-process measure
can avoid.  A SpeedMeter times a fixed pure-Python unit of work (dict and
set lookups, list appends, integer arithmetic and calls, as in the
program) right before and after each operation, and from a SIGALRM
handler every INTERVAL seconds while it runs.  The mean of those samples
over CAL_REF_S is the host's slowdown during the operation; the
operation's time with the handler's own time taken out, divided by that
slowdown, is its time at the reference speed.

CAL_REF_S is the unit's fastest time on the reference host (2-core x86-64
VM, Python 3.11.7).  On another host the corrected times are in that
host's units, so compare commits on one host only.
"""

from __future__ import annotations

import gc
import signal
import time

perf = time.perf_counter

CAL_REF_S = 0.0013
INTERVAL = 0.05

_NODES = 127
_ADJ = {i: ((i * 7 + 1) % _NODES, (i * 13 + 5) % _NODES, (i + 1) % _NODES) for i in range(_NODES)}


def unit() -> int:
    """The fixed unit of work: breadth-first searches on a 127-node graph."""
    total = 0
    for src in range(0, _NODES, 2):
        seen = {src}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in _ADJ[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        total += len(seen)
    return total


class SpeedMeter:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self.paused = 0.0

    def sample(self) -> None:
        # With the collector off, a collection that the unit's allocations
        # make due runs, and is timed, in the program's code, not here.
        enabled = gc.isenabled()
        gc.disable()
        start = perf()
        unit()
        self.samples.append(perf() - start)
        if enabled:
            gc.enable()

    def _on_alarm(self, signum, frame) -> None:
        start = perf()
        self.sample()
        self.paused += perf() - start

    def slowdown(self) -> float:
        return sum(self.samples) / len(self.samples) / CAL_REF_S

    def run(self, fn):
        """Call fn(); return (its result, busy seconds, slowdown).

        Busy seconds are fn's wall time without the alarm handler's."""
        self.samples = []
        self.paused = 0.0
        self.sample()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        start = perf()
        try:
            result = fn()
        finally:
            elapsed = perf() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.sample()
        return result, elapsed - self.paused, self.slowdown()


if __name__ == "__main__":
    # The fastest of many units: the figure CAL_REF_S was set from.
    times = []
    for _ in range(5000):
        start = perf()
        unit()
        times.append(perf() - start)
    print(f"fastest {min(times):.6f} s, median {sorted(times)[len(times) // 2]:.6f} s")
