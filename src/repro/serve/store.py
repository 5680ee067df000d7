"""Content-addressed result store: fleet-wide dedup of identical kernels.

The daemon (and any concurrent client of the same state directory) addresses
finished synthesis results by *what was asked*, not by request id:

    key = sha1(synthesis_fingerprint || kernel_key(spec))

``kernel_key`` covers the kernel's name, source, and input types;
``synthesis_fingerprint`` covers every semantic knob of the synthesis config
plus the cost model.  Two requests with the same key are the same problem —
the second one is served from the store without touching a worker.

Objects live under ``<root>/objects/<key[:2]>/<key>.json``, one
checksum-framed JSON line per file (the :mod:`repro.journal` line codec), and
are published with :func:`repro.journal.write_atomic` so concurrent daemons
sharing the directory never observe a torn object.  Only ``status == "ok"`` outcomes
are published: timeouts and degraded results must be retried, not memoized.

Corruption is contained, never fatal: an object whose checksum, key binding,
or payload shape fails verification on read is **quarantined** — moved to
``<root>/quarantine/`` for post-mortem — and reported as a miss, so the
daemon re-synthesizes instead of crashing or serving garbage.  A
:class:`CircuitBreaker` watches the failure rate: repeated corruption (a bad
disk, a hostile writer) opens the breaker and the store stops serving reads
for a cooldown, degrading the fleet to synthesis-only rather than grinding
through a poisoned object tree.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import asdict
from pathlib import Path
from typing import Callable

from repro.journal import decode_line, encode_line, kernel_key, write_atomic
from repro.pipeline import KernelOutcome, KernelSpec


def content_key(spec: KernelSpec, fingerprint: str) -> str:
    """The store address of one (kernel, synthesis-configuration) problem."""
    return hashlib.sha1(
        f"{fingerprint}||{kernel_key(spec)}".encode()
    ).hexdigest()


class CircuitBreaker:
    """A small failure-rate circuit breaker (closed → open → half-open).

    ``record_failure`` within a sliding ``window_s`` opens the breaker once
    ``failure_threshold`` failures accumulate; while open, :meth:`allow`
    returns False for ``cooldown_s``.  After the cooldown the breaker goes
    half-open: calls flow again, one success closes it fully, the next
    failure re-opens it immediately.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        window_s: float = 120.0,
        cooldown_s: float = 60.0,
    ) -> None:
        self.failure_threshold = max(1, failure_threshold)
        self.window_s = window_s
        self.cooldown_s = cooldown_s
        self._failures: list[float] = []
        self._opened_at: float | None = None
        self.opens = 0

    @property
    def is_open(self) -> bool:
        if self._opened_at is None:
            return False
        if time.monotonic() - self._opened_at >= self.cooldown_s:
            return False  # cooldown elapsed: half-open
        return True

    def allow(self) -> bool:
        return not self.is_open

    def record_failure(self) -> bool:
        """Count one failure; returns True when this failure opened the
        breaker (callers use it to emit an 'opened' event exactly once)."""
        now = time.monotonic()
        if self._opened_at is not None and not self.is_open:
            # Half-open probe failed: re-open immediately.
            self._opened_at = now
            self.opens += 1
            return True
        self._failures = [t for t in self._failures if now - t <= self.window_s]
        self._failures.append(now)
        if self._opened_at is None and len(self._failures) >= self.failure_threshold:
            self._opened_at = now
            self.opens += 1
            return True
        return False

    def record_success(self) -> None:
        if self._opened_at is not None and not self.is_open:
            # Half-open probe succeeded: close fully.
            self._opened_at = None
            self._failures.clear()


class ContentStore:
    """Durable, concurrency-safe map from content key to finished outcome.

    ``on_event`` (optional) is called with an event name — ``"quarantined"``,
    ``"breaker_open"``, or ``"breaker_skip"`` — so the daemon can mirror
    store health into its metrics registry without the store importing it.
    """

    def __init__(
        self,
        root: str | Path,
        breaker: CircuitBreaker | None = None,
        on_event: Callable[[str], None] | None = None,
    ) -> None:
        self.root = Path(root)
        self.breaker = breaker
        self.on_event = on_event
        self.quarantined = 0

    def _object_path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.json"

    def _event(self, name: str) -> None:
        if self.on_event is not None:
            try:
                self.on_event(name)
            except Exception:  # noqa: BLE001 — telemetry must never fail a read
                pass

    def _quarantine_path(self, path: Path) -> Path:
        qdir = self.root / "quarantine"
        target = qdir / path.name
        n = 0
        while target.exists():
            n += 1
            target = qdir / f"{path.stem}.{n}{path.suffix}"
        return target

    def quarantine(self, key: str) -> bool:
        """Move one object out of the serving tree (corrupt bytes or a
        semantically bad entry caught by re-verification).  Returns True when
        a file was actually moved."""
        path = self._object_path(key)
        try:
            target = self._quarantine_path(path)
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            try:  # a bad entry must leave the serving tree one way or another
                path.unlink()
            except OSError:
                return False
        self.quarantined += 1
        self._event("quarantined")
        return True

    def get(self, key: str) -> KernelOutcome | None:
        """The stored outcome for ``key``, or None on miss.

        A present-but-corrupt object (torn write, bit rot, wrong key binding,
        unexpected payload shape) is quarantined and reported as a miss; the
        stored checksum is verified on every read.  While the corruption
        circuit breaker is open, every read short-circuits to a miss.
        """
        if self.breaker is not None and not self.breaker.allow():
            self._event("breaker_skip")
            return None
        path = self._object_path(key)
        try:
            line = path.read_text().strip()
        except OSError:
            return None  # plain miss: nothing stored under this key
        payload = decode_line(line)
        outcome = None
        if payload is not None and payload.get("key") == key:
            try:
                outcome = KernelOutcome(**payload["outcome"])
            except (KeyError, TypeError):
                outcome = None
        if outcome is None:
            self.quarantine(key)
            if self.breaker is not None and self.breaker.record_failure():
                self._event("breaker_open")
            return None
        if self.breaker is not None:
            self.breaker.record_success()
        return outcome

    def put(self, key: str, outcome: KernelOutcome) -> bool:
        """Publish one finished outcome.  Returns False (and stores nothing)
        for non-``ok`` outcomes or on any I/O failure — the store is an
        accelerator, never a point of failure."""
        if outcome.status != "ok":
            return False
        line = encode_line({"key": key, "outcome": asdict(outcome)})
        try:
            write_atomic(self._object_path(key), line + "\n")
        except OSError:
            return False
        return True

    def __len__(self) -> int:
        objects = self.root / "objects"
        if not objects.is_dir():
            return 0
        return sum(1 for _ in objects.glob("*/*.json"))
