"""Host-speed meter: turns wall-clock intervals into reference-speed seconds.

The sizing host is a few cores of a shared machine whose speed steps between
regimes up to 2x apart that last seconds to minutes (a neighbour on the same
physical core), so two wall-clock timings of one program differ by more than
any regression bound.  CPU time does not help — the slow regime slows the
instructions themselves — and the VM exposes no instruction counter.

So the timed process calibrates as it goes: an interval timer interrupts the
main thread every ``PERIOD_S`` and runs a fixed interpreter-bound loop
(:func:`spin`), whose duration is the host's speed right now.  An interval of
work is then reported as the time it *would* have taken had the loop run in
``REFERENCE_SPIN_S`` throughout: each stretch between two samples is scaled
by ``REFERENCE_SPIN_S / local spin time``.  Interleaved with SymPy-heavy
work, that cuts the quartile spread of repeated runs from 12-30% to 3-5%
(``README.md`` has the measurements).

``exclusive=True`` is for a workload that runs in this process's main
thread: the loop stops the work, so its own duration is left out of the
interval, and it is timed by the wall clock so that a descheduled vCPU shows
as slowness.  ``exclusive=False`` is for ``daemon_mixed``, whose work runs in
other processes beside the loop: nothing is left out, and the loop is timed
by thread CPU time, because there it competes with the pool workers for a
core and a wall-clock sample would time the scheduler.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.02
#: ``spin()`` takes 0.68 ms on the sizing host at its fastest and 1.1-1.2 ms
#: in its usual regime; at this reference, reference seconds read like the
#: usual wall-clock seconds there.
REFERENCE_SPIN_S = 0.001
#: Samples each side of a stretch whose median is its local spin time.
SMOOTH = 4


class _Node:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def get(self) -> int:
        return self.value


_NODES = [_Node(i) for i in range(64)]
_TABLE = {(i, j): i * j for i in range(16) for j in range(16)}


def spin(n: int = 3000) -> int:
    """Method calls, attribute loads, tuple hashing and dict lookups: the
    instruction mix of the interpreter running SymPy, with no allocation
    that would bring the collector in."""
    nodes, table, total = _NODES, _TABLE, 0
    for i in range(n):
        node = nodes[i & 63]
        total += node.get() + table[(i & 15, (i >> 4) & 15)]
        if isinstance(node, _Node) and hash((total & 255, i & 7)) & 1:
            total ^= i
    return total


class SpeedMeter:
    def __init__(self, exclusive: bool) -> None:
        self.exclusive = exclusive
        self._clock = time.perf_counter if exclusive else time.thread_time
        #: (wall start, wall end, spin duration by ``_clock``) per sample
        self.samples: list[tuple[float, float, float]] = []
        self._edges: list[float] | None = None
        self._cumulative: list[float] = []
        self._rates: list[float] = []

    def _sample(self, *_signal_args) -> None:
        wall0, t0 = time.perf_counter(), self._clock()
        spin()
        t1 = self._clock()
        self.samples.append((wall0, time.perf_counter(), t1 - t0))

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def cancel(self) -> None:
        """Disarm the timer; a process must not leave ``start()`` without it,
        or the next alarm finds the interpreter's handlers gone and kills it."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)  # not SIG_DFL: one may be on its way

    def stop(self) -> None:
        self.cancel()
        self._sample()
        self._integrate()

    def _integrate(self) -> None:
        """Piecewise-constant rate (reference seconds per wall second) over
        the metered time, and its running integral at every edge."""
        spins = [s[2] for s in self.samples]
        local = [
            statistics.median(spins[max(0, i - SMOOTH): i + SMOOTH + 1])
            for i in range(len(spins))
        ]
        edges, rates = [], []
        for i, (wall0, wall1, _) in enumerate(self.samples):
            rate = REFERENCE_SPIN_S / local[i]
            if self.exclusive:
                edges += [wall0, wall1]
                rates += [0.0, rate]
            else:
                edges.append(wall0)
                rates.append(rate)
        cumulative = [0.0]
        for i in range(len(edges) - 1):
            cumulative.append(cumulative[-1] + (edges[i + 1] - edges[i]) * rates[i])
        self._edges, self._rates, self._cumulative = edges, rates, cumulative

    def _at(self, wall: float) -> float:
        edges = self._edges
        i = min(max(bisect.bisect_right(edges, wall) - 1, 0), len(edges) - 1)
        return self._cumulative[i] + (wall - edges[i]) * self._rates[i]

    def reference_seconds(self, start: float, end: float) -> float:
        """The ``perf_counter`` interval ``[start, end]`` at reference speed."""
        assert self._edges is not None, "stop() first"
        return self._at(end) - self._at(start)

    def slowdown(self) -> float:
        """Median spin time over the reference: how slow the host was."""
        return statistics.median(s[2] for s in self.samples) / REFERENCE_SPIN_S
