"""Synthesis-as-a-service: persistent warm worker pool + daemon + client.

* :class:`~repro.serve.pool.WorkerPool` — persistent synthesis workers with
  crash replacement, lifecycle recycling, and cache-delta fan-out (also
  drives the parallel batch pipeline's waves).
* :class:`~repro.serve.daemon.SynthesisDaemon` — long-lived daemon with a
  durable prioritized request queue over a Unix socket, admission control
  under overload, and deadline propagation.
* :class:`~repro.serve.client.ServeClient` — thin client API
  (``submit`` / ``status`` / ``result`` / ``health`` / ``metrics`` /
  ``shutdown``) with timeouts and jittered reconnect backoff.
* :class:`~repro.serve.store.ContentStore` — the daemon's in-memory index
  of finished syntheses by content key, for fleet-wide dedup; rebuilt at
  restart from the request log, which is the only durable copy.
* :class:`~repro.serve.watchdog.Supervisor` — self-healing watchdog that
  restarts a wedged daemon from its request journal.

A daemon's state dir holds ``daemon.lock``, ``daemon.sock``,
``requests.jsonl`` (requests and results), ``store/cache/`` (the pool's
persistent cache), ``heartbeat`` and ``metrics.json``.
"""

from repro.serve.client import ServeClient
from repro.serve.daemon import ServeRequest, SynthesisDaemon
from repro.serve.pool import PoolEvent, PoolTask, WorkerPool
from repro.serve.store import ContentStore, content_key
from repro.serve.watchdog import Supervisor, SupervisorPolicy

__all__ = [
    "ContentStore",
    "PoolEvent",
    "PoolTask",
    "ServeClient",
    "ServeRequest",
    "Supervisor",
    "SupervisorPolicy",
    "SynthesisDaemon",
    "WorkerPool",
    "content_key",
]
