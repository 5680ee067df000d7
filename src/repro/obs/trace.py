"""Span-based tracing of the synthesis pipeline.

A :class:`Tracer` records a tree of spans (DFS node expansions, solver
calls, base-case matches, enumeration levels, verification) plus instant
events (prunes with their reason, cache hits).  Tracing is **strictly
best-effort**: every sink/export failure is swallowed and logged, a failing
trace file can never fail the synthesis run (the ``trace`` fault-injection
site of :mod:`repro.resilience` proves this in tests).

One export format: **Chrome trace-event JSON** (``trace.json``), which
loads directly in ``chrome://tracing`` or https://ui.perfetto.dev and is
what ``repro-trace`` (:mod:`repro.cli.trace`) reads.

The hot-path contract: call sites guard with ``if tracer.enabled:`` so a
disabled tracer (:data:`NULL_TRACER`, the default) costs one attribute load
and a branch per site — measured under 5% on the tier-1 search tests
(``tests/test_obs.py``).

Worker processes forward their events to the parent over the existing
result Pipe (see :mod:`repro.parallel`): a :class:`PipeSink` batches events
into ``("trace", [...])`` messages, and the parent merges them with
:meth:`Tracer.add_events`, rebasing each worker's monotonic clock onto its
own so per-worker ordering is preserved.
"""

from __future__ import annotations

import json
import time

from repro.obs.log import get_logger

log = get_logger(__name__)

#: Bump when the on-disk trace format changes.
TRACE_VERSION = 1


class _NullSpan:
    """Shared no-op context manager returned by the null tracer."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every operation is a cheap no-op.

    Installed by default; hot call sites additionally guard with
    ``tracer.enabled`` so even the method-call overhead is skipped.
    """

    enabled = False

    def begin(self, name, cat="", **args) -> int:
        return 0

    def end(self, span_id, **args) -> None:
        return None

    def span(self, name, cat="", **args):
        return _NULL_SPAN

    def complete(self, name, cat="", start=0.0, duration=0.0, **args) -> None:
        return None

    def instant(self, name, cat="", **args) -> None:
        return None

    def add_events(self, events, worker=None) -> None:
        return None

    def events(self) -> list:
        return []

    def flush(self) -> None:
        return None


NULL_TRACER = NullTracer()


class _Span:
    """Context manager closing one open span."""

    __slots__ = ("_tracer", "_id")

    def __init__(self, tracer: "Tracer", span_id: int) -> None:
        self._tracer = tracer
        self._id = span_id

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self._tracer.end(self._id)
        else:
            self._tracer.end(self._id, error=exc_type.__name__)
        return None


class Tracer:
    """Collects a span tree (plus instant events) for one run.

    ``sink``, when given, is a callable receiving batches of event dicts as
    they are produced (used by workers to forward events to the parent).  A
    sink that raises is disabled after the first failure — tracing is
    observability, never a dependency.

    ``max_events`` bounds memory: past it, new events are counted in
    ``dropped`` instead of stored (the export records the drop count, so
    truncation is never silent).
    """

    enabled = True

    def __init__(
        self,
        process: str = "main",
        clock=time.monotonic,
        sink=None,
        max_events: int = 500_000,
        flush_every: int = 256,
        flush_interval_s: float = 0.25,
    ) -> None:
        self.process = process
        self.clock = clock
        self.sink = sink
        self.max_events = max_events
        self.flush_every = flush_every
        self.flush_interval_s = flush_interval_s
        self.dropped = 0
        self._events: list[dict] = []
        self._stack: list[int] = []
        self._open: dict[int, dict] = {}
        self._next_id = 1
        self._pending: list[dict] = []
        self._last_flush = clock()
        self._sink_failed = False
        # Per-worker clock rebasing state for add_events.
        self._worker_offsets: dict = {}

    # -- recording -------------------------------------------------------------

    def _emit(self, event: dict) -> None:
        if len(self._events) >= self.max_events:
            self.dropped += 1
            return
        self._events.append(event)
        if self.sink is not None and not self._sink_failed:
            self._pending.append(event)
            now = self.clock()
            if (
                len(self._pending) >= self.flush_every
                or now - self._last_flush >= self.flush_interval_s
            ):
                self.flush()

    def begin(self, name: str, cat: str = "", **args) -> int:
        """Open a span; returns its id (pass back to :meth:`end`)."""
        span_id = self._next_id
        self._next_id += 1
        self._open[span_id] = {
            "type": "span",
            "id": span_id,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "cat": cat,
            "tid": self.process,
            "ts": self.clock(),
            "dur": None,
            "args": args,
        }
        self._stack.append(span_id)
        return span_id

    def end(self, span_id: int, **args) -> None:
        """Close the span ``span_id`` (and any deeper span left open)."""
        while self._stack:
            top = self._stack.pop()
            entry = self._open.pop(top, None)
            if entry is None:
                continue
            entry["dur"] = self.clock() - entry["ts"]
            if top == span_id and args:
                entry["args"] = {**entry["args"], **args}
            self._emit(entry)
            if top == span_id:
                return

    def span(self, name: str, cat: str = "", **args) -> _Span:
        """``with tracer.span("solve", "solver"):`` convenience wrapper."""
        return _Span(self, self.begin(name, cat, **args))

    def complete(
        self, name: str, cat: str = "", start: float = 0.0, duration: float = 0.0, **args
    ) -> None:
        """Record an already-timed span without begin/end bookkeeping."""
        self._emit(
            {
                "type": "span",
                "id": self._next_id,
                "parent": self._stack[-1] if self._stack else None,
                "name": name,
                "cat": cat,
                "tid": self.process,
                "ts": start,
                "dur": duration,
                "args": args,
            }
        )
        self._next_id += 1

    def instant(self, name: str, cat: str = "", **args) -> None:
        """Record a point event (e.g. a prune, with its reason)."""
        self._emit(
            {
                "type": "instant",
                "id": self._next_id,
                "parent": self._stack[-1] if self._stack else None,
                "name": name,
                "cat": cat,
                "tid": self.process,
                "ts": self.clock(),
                "args": args,
            }
        )
        self._next_id += 1

    # -- worker merge ----------------------------------------------------------

    def add_events(self, events, worker=None) -> None:
        """Merge a batch of events forwarded by a worker process.

        Each worker's ``time.monotonic()`` is not comparable with the
        parent's, so the first batch from a worker pins an offset mapping
        its clock onto ours; later batches reuse it, preserving the
        worker's own (monotonic) ordering.
        """
        if not events:
            return
        tid = f"worker-{worker}" if worker is not None else None
        offset = None
        if worker is not None:
            offset = self._worker_offsets.get(worker)
            if offset is None:
                first_ts = events[0].get("ts", 0.0) or 0.0
                offset = self.clock() - first_ts
                self._worker_offsets[worker] = offset
        for event in events:
            event = dict(event)
            if tid is not None:
                event["tid"] = tid
            if offset is not None and event.get("ts") is not None:
                event["ts"] = event["ts"] + offset
            if len(self._events) >= self.max_events:
                self.dropped += 1
                continue
            self._events.append(event)

    # -- reading / exporting ---------------------------------------------------

    def events(self) -> list[dict]:
        """All finished events, in emission order."""
        return list(self._events)

    def flush(self) -> None:
        """Push pending events to the sink (best-effort; never raises)."""
        if self.sink is None or self._sink_failed or not self._pending:
            return
        batch, self._pending = self._pending, []
        self._last_flush = self.clock()
        try:
            from repro.resilience import inject

            inject("trace", key="sink")
            self.sink(batch)
        except Exception as exc:  # noqa: BLE001 — tracing is best-effort
            self._sink_failed = True
            log.warning("trace sink failed; tracing disabled", error=repr(exc))

    def close_open_spans(self) -> None:
        """Close every span still open (e.g. after an exception unwound)."""
        while self._stack:
            self.end(self._stack[-1])

    def chrome_events(self, pid: int = 0) -> list[dict]:
        """Events converted to the Chrome trace-event format (microseconds)."""
        out: list[dict] = [
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": "stenso"},
            }
        ]
        for event in self._events:
            ts_us = (event.get("ts") or 0.0) * 1e6
            args = dict(event.get("args") or {})
            args["id"] = event.get("id")
            if event.get("parent") is not None:
                args["parent"] = event["parent"]
            common = {
                "name": event.get("name", "?"),
                "cat": event.get("cat") or "stenso",
                "pid": pid,
                "tid": event.get("tid", self.process),
                "ts": ts_us,
                "args": args,
            }
            if event.get("type") == "span":
                out.append({**common, "ph": "X", "dur": (event.get("dur") or 0.0) * 1e6})
            else:
                out.append({**common, "ph": "i", "s": "t"})
        if self.dropped:
            out.append(
                {
                    "ph": "M",
                    "name": "stenso_dropped_events",
                    "pid": pid,
                    "tid": 0,
                    "args": {"dropped": self.dropped},
                }
            )
        return out

    def export_chrome(self, path) -> bool:
        """Write Chrome trace-event JSON; False (never an exception) on failure."""
        payload = {
            "traceEvents": self.chrome_events(),
            "displayTimeUnit": "ms",
            "otherData": {"format": "stenso-trace", "version": TRACE_VERSION},
        }
        return self._write(path, json.dumps(payload))

    def _write(self, path, text: str) -> bool:
        try:
            from repro.resilience import inject

            directive = inject("trace", key="write")
            if directive == "corrupt":
                text = text[: len(text) // 2]
            from pathlib import Path

            target = Path(path)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)
            return True
        except Exception as exc:  # noqa: BLE001 — a trace sink must never fail the run
            log.warning("trace export failed", path=str(path), error=repr(exc))
            return False


class PipeSink:
    """Tracer sink forwarding event batches over a multiprocessing Pipe.

    The parent side of :mod:`repro.parallel` understands ``("trace", batch)``
    messages interleaved with the final result message.
    """

    def __init__(self, conn) -> None:
        self.conn = conn

    def __call__(self, batch: list[dict]) -> None:
        self.conn.send(("trace", batch))


# ---------------------------------------------------------------------------
# Process-wide active tracer
# ---------------------------------------------------------------------------

_ACTIVE: Tracer | NullTracer = NULL_TRACER


def get_tracer() -> "Tracer | NullTracer":
    """The process-wide active tracer (the no-op tracer by default)."""
    return _ACTIVE


def install_tracer(tracer: "Tracer | None") -> "Tracer | NullTracer":
    """Install (or, with None, clear) the process-wide tracer."""
    global _ACTIVE
    _ACTIVE = tracer if tracer is not None else NULL_TRACER
    return _ACTIVE
