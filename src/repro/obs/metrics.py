"""Metrics registry: counters, gauges, and histograms for search telemetry.

The registry is where a search's counts are kept: the recording helpers of
:class:`~repro.synth.search.SearchStats` write it and that class's flat
counters are read-only views of it, so existing consumers keep their flat
names while traces, journals, and reports get typed metrics (prune-reason
counts, DFS depth histograms, solver-latency histograms, cache hit ratios).

Snapshots are plain JSON-native dicts (``{"counters": .., "gauges": ..,
"histograms": ..}``) so they round-trip losslessly through the run journal
and the synthesis store; :func:`merge_snapshots` aggregates them across the
kernels of a module run deterministically (counters and histogram buckets
sum, gauges keep the maximum).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Default bucket upper bounds for latency histograms (seconds).
LATENCY_BUCKETS_S = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0)

#: Default bucket upper bounds for DFS depth histograms.
DEPTH_BUCKETS = (0, 1, 2, 3, 4, 5, 6, 8)


@dataclass
class Counter:
    """A monotonically increasing count."""

    name: str
    value: int = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


@dataclass
class Gauge:
    """A point-in-time value (last write wins)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A fixed-bucket histogram with sum/count/min/max.

    ``bounds`` are inclusive upper bucket bounds; one overflow bucket is
    appended, so ``counts`` has ``len(bounds) + 1`` entries.
    """

    __slots__ = ("name", "bounds", "counts", "total", "count", "min", "max")

    def __init__(self, name: str, bounds=LATENCY_BUCKETS_S) -> None:
        self.name = name
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        i = 0
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                break
        else:
            i = len(self.bounds)
        self.counts[i] += 1
        self.total += value
        self.count += 1
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Get-or-create registry of named counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def count(self, name: str) -> int:
        """A counter's value, 0 when nobody created it (reading creates none)."""
        c = self._counters.get(name)
        return c.value if c is not None else 0

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str, bounds=LATENCY_BUCKETS_S) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, bounds)
        return h

    def snapshot(self) -> dict:
        """JSON-native snapshot of every instrument (sorted, deterministic)."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: h.snapshot() for k, h in sorted(self._histograms.items())
            },
        }


#: Process-wide event counts under their registry names (``equiv.*``,
#: ``analysis.*``), for the sites with no ``SearchStats`` at hand: battery
#: evaluation, the equivalence tiers, the enumerator's admission, the
#: pre-screens.  ``superoptimize_program`` reads the bag before and after a
#: kernel and credits the difference to that kernel's registry, so parallel
#: workers' counts merge through :func:`merge_snapshots`.
PROCESS_COUNTERS: dict[str, int] = {}


def bump(name: str, n: int = 1) -> None:
    PROCESS_COUNTERS[name] = PROCESS_COUNTERS.get(name, 0) + n


def empty_snapshot() -> dict:
    return {"counters": {}, "gauges": {}, "histograms": {}}


def merge_snapshots(snapshots) -> dict:
    """Aggregate metric snapshots: counters/histograms sum, gauges take max.

    Tolerant of partial or empty snapshots (kernels resolved through the
    rule cache carry none).
    """
    out = empty_snapshot()
    for snap in snapshots:
        if not snap:
            continue
        for name, value in snap.get("counters", {}).items():
            out["counters"][name] = out["counters"].get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            out["gauges"][name] = max(out["gauges"].get(name, value), value)
        for name, hist in snap.get("histograms", {}).items():
            merged = out["histograms"].get(name)
            if merged is None or merged.get("bounds") != hist.get("bounds"):
                if merged is None:
                    out["histograms"][name] = {
                        "bounds": list(hist.get("bounds", [])),
                        "counts": list(hist.get("counts", [])),
                        "sum": hist.get("sum", 0.0),
                        "count": hist.get("count", 0),
                        "min": hist.get("min"),
                        "max": hist.get("max"),
                    }
                continue  # incompatible bucket layout: keep the first
            merged["counts"] = [
                a + b for a, b in zip(merged["counts"], hist.get("counts", []))
            ]
            merged["sum"] += hist.get("sum", 0.0)
            merged["count"] += hist.get("count", 0)
            mins = [m for m in (merged.get("min"), hist.get("min")) if m is not None]
            maxs = [m for m in (merged.get("max"), hist.get("max")) if m is not None]
            merged["min"] = min(mins) if mins else None
            merged["max"] = max(maxs) if maxs else None
    out["counters"] = dict(sorted(out["counters"].items()))
    out["gauges"] = dict(sorted(out["gauges"].items()))
    out["histograms"] = dict(sorted(out["histograms"].items()))
    return out
