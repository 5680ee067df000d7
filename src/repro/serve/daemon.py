"""Synthesis-as-a-service: a long-lived daemon over the warm worker pool.

The batch pipeline pays its dominant costs — process spawn, SymPy warm-up,
persistent-cache load — once per *kernel*.  :class:`SynthesisDaemon`
restructures the system so they are paid once per daemon lifetime:

* a :class:`~repro.serve.pool.WorkerPool` of persistent workers, spawned at
  startup, keeps the intern table / residue batteries / solver caches hot
  in-process across every request the daemon ever serves;
* an **async request queue** with per-request priority and budget
  (``timeout_s`` / ``max_solver_calls``, enforced through the workers'
  cooperative :class:`~repro.resilience.Budget` plus the pool's hard
  deadline);
* a durable **request log** (``requests.jsonl``, a
  :class:`repro.journal.DurableLog`): a submit is acknowledged only after it is
  durable, results are write-ahead logged on arrival, and a killed daemon
  restarted on the same state dir resumes exactly the pending requests —
  finished ones are served from the log with **zero** re-solving;
* a :class:`~repro.serve.store.ContentStore` keyed by
  ``(synthesis fingerprint, kernel identity)``: concurrent clients (or
  daemon restarts) submitting the identical kernel trigger one synthesis and
  all receive the result.  In-flight dedup attaches followers to the running
  request; completed work is served from the store, an in-memory index over
  the log's synthesized ``result`` lines.

State directory layout::

    <state_dir>/daemon.lock      exclusive daemon lock (second daemon refused)
    <state_dir>/daemon.sock      Unix socket (clients)
    <state_dir>/requests.jsonl   durable request/result log (DurableLog); the
                                 one durable copy of every result
    <state_dir>/store/cache/     the pool's PersistentCache: one DurableLog
                                 per section, appended to by the workers
    <state_dir>/heartbeat        dispatcher liveness beat (write_atomic)
    <state_dir>/metrics.json     final metrics snapshot (write_atomic)

Overload behavior: with ``max_queue_depth`` set, a submission that would
grow the queue past the bound is **shed** with a structured
``{"shed": true, "retry_after": ...}`` reply (lowest-priority-first: a
higher-priority arrival instead evicts the lowest-priority queued request,
which completes with status ``shed``).  Content-store hits and in-flight
dedup followers are always admitted.  Client-supplied deadlines
(``deadline_s``) are enforced both in the queue (expired entries are shed
before dispatch) and at dispatch (the worker budget gets only the remaining
time).

Dispatch: what is tried before a request reaches a worker, and what a
worker's answer means, is the daemon's :class:`~repro.pipeline.ModuleOptimizer`'s
resolution ladder, the one a module run climbs: ``_restore`` sends every
logged result through ``readmit`` (a restart re-learns the rules and pattern
verdicts its log proves before the socket binds, and indexes only what it
re-verified), a content-store hit is served as indexed, ``_dispatch_one``
asks ``resolve``, ``_handle_event`` hands every pool event to ``settle`` — with
no failure-verdict dict: a transient worker crash must not poison a pattern
for a daemon's lifetime.  This module keeps what is the daemon's own:
admission, shedding, deadlines, in-flight dedup, durability, ``served_from``.

Threading model: one accept thread plus one short-lived thread per client
connection mutate daemon state only under ``self._lock``; the dispatcher
loop (:meth:`serve_forever`, main thread) owns the pool.  The pool uses the
``spawn`` start context — the daemon is multi-threaded, and forking a
threaded process is a deadlock lottery.
"""

from __future__ import annotations

import heapq
import json
import os
import socket
import threading
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

from repro.errors import ServeError, WireError
from repro.journal import DurableLog, write_atomic
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressBoard
from repro.pipeline import KernelOutcome, KernelSpec, ModuleOptimizer
from repro.resilience import FileLock, ResiliencePolicy, inject
from repro.serve.pool import WorkerPool, absorb_trace
from repro.serve.store import ContentStore, content_key
from repro.serve.wire import recv_msg, send_msg, spec_from_payload, spec_to_payload
from repro.synth.cache import PersistentCache, synthesis_fingerprint
from repro.synth.config import DEFAULT_CONFIG, SynthesisConfig

_LOG_VERSION = 1


@dataclass
class ServeRequest:
    """One submitted kernel and its lifecycle state."""

    id: str
    spec: KernelSpec
    priority: int = 0
    timeout_s: float | None = None
    max_solver_calls: int | None = None
    state: str = "queued"  # 'queued' | 'running' | 'done'
    outcome: KernelOutcome | None = None
    served_from: str | None = None
    #: Requests deduplicated onto this one (they complete when it does).
    followers: list["ServeRequest"] = field(default_factory=list)
    content_key: str = ""
    submitted_at: float = 0.0
    #: Submitting client's identity (for per-client in-flight caps); None for
    #: requests restored from the log — their clients are likely gone.
    client: str | None = None
    #: Client-supplied deadline as a monotonic timestamp; a queued request
    #: whose deadline passes is shed before dispatch, and a dispatched one
    #: hands only its *remaining* time to the worker's cooperative budget.
    deadline: float | None = None
    #: The same deadline on the wall clock, for the durable request log
    #: (monotonic clocks do not survive a restart).
    deadline_unix: float | None = None


class RequestLog:
    """Write-ahead log of requests and results: a schema over
    :class:`~repro.journal.DurableLog` (checksummed lines; a torn tail —
    daemon killed mid-append — is dropped on read and truncated by the next
    append, corrupt lines are skipped).  The header binds the log to the
    daemon's synthesis fingerprint — restarting over a state dir written
    under a different config is refused rather than silently served stale.
    """

    def __init__(self, path: str | Path, fingerprint: str, config=None) -> None:
        self._config = config
        self._log = DurableLog(
            path, {"type": "serve-log", "version": _LOG_VERSION, "fingerprint": fingerprint}
        )

    def load(self) -> tuple[list[dict], dict[str, tuple[dict, str | None]]]:
        """Replay the log: (request entries in order, ``(outcome,
        served_from)`` by request id; a later result line wins)."""
        requests: list[dict] = []
        results: dict[str, tuple[dict, str | None]] = {}
        entries, _end, _dropped = self._log.read()
        if entries and not self._log.bound(entries[0]):
            raise ServeError(
                f"request log {self._log.path} was written under a different "
                "synthesis configuration; refusing to serve stale results "
                "(use a fresh --state-dir)"
            )
        for entry in entries[1:]:
            if entry.get("type") == "request":
                requests.append(entry)
            elif entry.get("type") == "result":
                results[entry["id"]] = (entry["outcome"], entry.get("served_from"))
        return requests, results

    def record_request(self, req: ServeRequest) -> None:
        payload = {
            "type": "request",
            "id": req.id,
            "spec": spec_to_payload(req.spec),
            "priority": req.priority,
            "timeout_s": req.timeout_s,
            "max_solver_calls": req.max_solver_calls,
            "deadline_unix": req.deadline_unix,
        }
        self._log.append([payload])

    def record_result(self, req: ServeRequest) -> None:
        payload = {
            "type": "result",
            "id": req.id,
            "served_from": req.served_from,
            "outcome": asdict(req.outcome),
        }
        # Same fault site as RunJournal.record_outcome: 'corrupt' models a
        # crash mid-append (torn line — dropped and re-derived on restart).
        torn = inject("journal", key=req.spec.name, config=self._config) == "corrupt"
        self._log.append([payload], torn=torn)


class SynthesisDaemon:
    """Owns the state dir, the socket, the queue, and the worker pool."""

    def __init__(
        self,
        state_dir: str | Path,
        workers: int = 2,
        cost_model="flops",
        config: SynthesisConfig | None = None,
        policy: ResiliencePolicy | None = None,
        socket_path: str | Path | None = None,
        trace: bool = False,
        progress: bool | None = False,
        max_queue_depth: int | None = None,
        max_inflight_per_client: int | None = None,
        heartbeat_interval_s: float = 1.0,
        conn_read_timeout_s: float = 60.0,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.config = config or DEFAULT_CONFIG
        self.policy = policy or ResiliencePolicy()
        self.socket_path = Path(
            socket_path if socket_path is not None else self.state_dir / "daemon.sock"
        )
        #: Admission control: queued (not running) leaders beyond this depth
        #: are shed with a ``retry_after`` hint; None = unbounded (the PR 6
        #: behavior).  Content-store hits and in-flight-dedup followers are
        #: always admitted — they cost no worker time.
        self.max_queue_depth = max_queue_depth
        self.max_inflight_per_client = max_inflight_per_client
        self.heartbeat_interval_s = max(0.05, heartbeat_interval_s)
        self.conn_read_timeout_s = conn_read_timeout_s
        self.heartbeat_path = self.state_dir / "heartbeat"
        self.metrics = MetricsRegistry()
        self.store = ContentStore()
        self._cache = PersistentCache(self.state_dir / "store" / "cache")
        # The daemon's own optimizer: it owns the resolution ladder (readmit /
        # resolve / settle) and the rules and pattern verdicts behind it.  It
        # never runs a full synthesis in-process — the pool does that.
        self._opt = ModuleOptimizer(
            cost_model=cost_model,
            config=self.config,
            rules=(),
            cache=self._cache,
        )
        self.fingerprint = synthesis_fingerprint(self.config, self._opt.cost_model)
        self.board = ProgressBoard(0, enabled=progress)
        self.pool = WorkerPool(
            workers,
            cost_model=self._opt.cost_model,
            config=self.config,
            cache=self._cache,
            policy=self.policy,
            trace=trace,
            on_trace=partial(absorb_trace, board=self.board, node_counts={}),
            ctx="spawn",
        )
        self.log = RequestLog(
            self.state_dir / "requests.jsonl", self.fingerprint, config=self.config
        )
        self._lock = threading.RLock()
        self._done_cond = threading.Condition(self._lock)
        self._requests: dict[str, ServeRequest] = {}
        self._heap: list[tuple[int, int, str]] = []  # (-priority, seq, id)
        self._queued_ids: set[str] = set()  # leaders awaiting dispatch
        self._inflight: dict[str, str] = {}  # content key -> leader request id
        self._client_inflight: dict[str, int] = {}  # client id -> live requests
        self._seq = 0
        self._last_tick = 0.0  # dispatcher liveness (monotonic)
        self._last_beat = 0.0
        self._stop = threading.Event()
        self._drain = True
        self._daemon_lock: FileLock | None = None
        self._server_sock: socket.socket | None = None
        self._threads: list[threading.Thread] = []

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Acquire the state dir, restore the log, spawn workers, bind the
        socket.  Raises :class:`ServeError` if another daemon holds the dir."""
        lock = FileLock(self.state_dir / "daemon.lock")
        if not lock.acquire(blocking=False):
            raise ServeError(
                f"another daemon already serves {self.state_dir} "
                "(daemon.lock is held)"
            )
        self._daemon_lock = lock
        try:
            self._restore()
            self.pool.start()
            self._bind()
            self._beat(force=True)
        except BaseException:
            self._release_lock()
            raise

    def _beat(self, force: bool = False) -> None:
        """Refresh the heartbeat file the supervisor watchdog watches.

        Written by the dispatcher loop, so a wedged dispatcher — stalled
        event loop, a journal fsync stuck under ``self._lock``, a deadlock —
        stops the beat even while connection threads still answer pings.
        Published atomically: the supervisor never reads a torn beat.
        """
        now = time.monotonic()
        if not force and now - self._last_beat < self.heartbeat_interval_s:
            return
        self._last_beat = now
        payload = {
            "pid": os.getpid(),
            "time": time.time(),
            "queued": len(self._queued_ids),
            "outstanding": self.pool.outstanding if self.pool.started else 0,
        }
        try:
            write_atomic(self.heartbeat_path, json.dumps(payload) + "\n")
        except OSError:
            pass  # the health probe is the watchdog's second signal

    def _release_lock(self) -> None:
        if self._daemon_lock is not None:
            try:
                self._daemon_lock.release()
            except Exception:
                pass
            self._daemon_lock = None

    def _bind(self) -> None:
        try:
            self.socket_path.unlink()
        except OSError:
            pass
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.bind(str(self.socket_path))
        sock.listen(16)
        sock.settimeout(0.2)
        self._server_sock = sock
        accept = threading.Thread(target=self._accept_loop, daemon=True)
        accept.start()
        self._threads.append(accept)

    def _restore(self) -> None:
        """Rebuild state from the request log: finished requests become
        ``done`` (their outcomes re-served verbatim, their rules and pattern
        verdicts re-learned by ``readmit``, their syntheses indexed in the
        content store), pending ones re-enter the queue — the crash cost is
        exactly the work that was in flight.  A result line that fails its
        checksum never gets here, and one ``readmit`` rejects is not served:
        either way its request runs again."""
        request_entries, results = self.log.load()
        restored = pending = 0
        for entry in request_entries:
            spec = spec_from_payload(entry["spec"])
            deadline_unix = entry.get("deadline_unix")
            deadline = None
            if deadline_unix is not None:
                # Remaining wall time, rebased onto this process's monotonic
                # clock; an already-expired deadline is shed before dispatch.
                deadline = time.monotonic() + (deadline_unix - time.time())
            req = ServeRequest(
                id=entry["id"],
                spec=spec,
                priority=entry.get("priority", 0),
                timeout_s=entry.get("timeout_s"),
                max_solver_calls=entry.get("max_solver_calls"),
                content_key=content_key(spec, self.fingerprint),
                deadline=deadline,
                deadline_unix=deadline_unix,
            )
            # Keep new ids monotonic past every restored one.
            try:
                self._seq = max(self._seq, int(entry["id"].lstrip("r")))
            except ValueError:
                pass
            self._requests[req.id] = req
            payload, served_from = results.get(req.id, (None, None))
            outcome = None
            if payload is not None:
                try:
                    outcome = KernelOutcome(**payload)
                except TypeError:
                    outcome = None
            if self._opt.readmit(spec, outcome) is not None:
                req.state = "done"
                req.outcome = outcome
                req.served_from = "restored"
                restored += 1
                if served_from == "synthesis":
                    self.store.put(req.content_key, outcome)
                continue
            pending += 1
            self._enqueue(req)
        if restored or pending:
            self.metrics.counter("serve.restored").inc(restored)
            self.metrics.counter("serve.resumed_pending").inc(pending)
            self.board.grow(pending)

    def _enqueue(self, req: ServeRequest) -> None:
        """Queue one request, or attach it to an identical in-flight one."""
        leader_id = self._inflight.get(req.content_key)
        if leader_id is not None:
            leader = self._requests.get(leader_id)
            if leader is not None and leader.state != "done":
                leader.followers.append(req)
                self.metrics.counter("serve.dedup_inflight").inc()
                return
        self._inflight[req.content_key] = req.id
        self._seq += 1
        heapq.heappush(self._heap, (-req.priority, self._seq, req.id))
        self._queued_ids.add(req.id)

    # -- socket plumbing -------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._server_sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            t = threading.Thread(target=self._serve_conn, args=(conn,), daemon=True)
            t.start()

    def _serve_conn(self, conn: socket.socket) -> None:
        try:
            # Bound how long one connection may dribble a frame in: a
            # slow-loris peer times out and is dropped instead of pinning a
            # connection thread (and its makefile buffer) forever.
            conn.settimeout(self.conn_read_timeout_s)
            try:
                with conn.makefile("r") as fh:
                    msg = recv_msg(fh)
            except WireError as exc:
                self.metrics.counter("serve.protocol_errors").inc()
                send_msg(conn, {"ok": False, "error": f"protocol: {exc}"})
                return
            if msg is None:
                return
            try:
                reply = self._handle(msg)
            except ServeError as exc:
                reply = {"ok": False, "error": str(exc)}
            except Exception as exc:  # noqa: BLE001 — protocol errors reply, not kill
                reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            send_msg(conn, reply)
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except Exception:
                pass

    # -- request handling ------------------------------------------------------

    def _handle(self, msg: dict) -> dict:
        op = msg.get("op")
        if op == "ping":
            return {"ok": True, "pid": os.getpid()}
        if op == "health":
            return self._op_health()
        if op == "submit":
            return self._op_submit(msg)
        if op == "status":
            return self._op_status(msg)
        if op == "result":
            return self._op_result(msg)
        if op == "metrics":
            return {"ok": True, "metrics": self.metrics.snapshot()}
        if op == "shutdown":
            self._drain = bool(msg.get("drain", True))
            self._stop.set()
            with self._done_cond:
                self._done_cond.notify_all()
            return {"ok": True, "drain": self._drain}
        raise ServeError(f"unknown op: {op!r}")

    def _retry_after_estimate(self) -> float:
        """How long a shed client should wait: the queue's expected drain
        time under the observed mean service latency (bounded to [0.5, 120]s,
        2 s per request when no request has finished yet)."""
        hist = self.metrics._histograms.get("serve.request_seconds")
        mean_s = hist.mean if hist is not None and hist.count else 2.0
        depth = len(self._queued_ids) + (
            self.pool.outstanding if self.pool.started else 0
        )
        return round(min(120.0, max(0.5, mean_s * depth / max(1, self.pool.size))), 3)

    def _shed_reply(self, reason: str, counter: str) -> dict:
        retry_after = self._retry_after_estimate()
        self.metrics.counter(counter).inc()
        self.metrics.counter("serve.shed").inc()
        return {
            "ok": False,
            "shed": True,
            "retry_after": retry_after,
            "error": f"{reason}; retry after {retry_after:g}s",
        }

    def _lowest_priority_queued(self) -> ServeRequest | None:
        """The shed-policy victim: the lowest-priority (latest-submitted on
        ties) request still waiting for dispatch."""
        worst_key = None
        worst = None
        for key in self._heap:
            rid = key[2]
            if rid not in self._queued_ids:
                continue  # stale heap entry (already dispatched/evicted)
            req = self._requests.get(rid)
            if req is None or req.state != "queued":
                continue
            if worst_key is None or key > worst_key:
                worst_key, worst = key, req
        return worst

    def _admit(self, msg: dict, priority: int, client: str | None) -> dict | None:
        """Admission control (lock held): None to admit, or the structured
        shed reply.  Runs only for requests that need a worker — store hits
        and in-flight followers are always admitted."""
        cap = self.max_inflight_per_client
        if cap is not None and client is not None:
            if self._client_inflight.get(client, 0) >= cap:
                return self._shed_reply(
                    f"client {client} already has {cap} request(s) in flight",
                    "serve.shed_client_cap",
                )
        bound = self.max_queue_depth
        if bound is not None and len(self._queued_ids) >= bound:
            victim = self._lowest_priority_queued()
            if victim is not None and priority > victim.priority:
                # Evict the lowest-priority queued request in favor of the
                # higher-priority arrival; the victim gets a terminal 'shed'
                # outcome (with the retry hint in its error) so its waiters
                # unblock instead of hanging.
                retry_after = self._retry_after_estimate()
                self._queued_ids.discard(victim.id)
                self._complete(
                    victim,
                    self._opt.failed_outcome(
                        victim.spec,
                        "shed",
                        "evicted by a higher-priority arrival under overload; "
                        f"retry after {retry_after:g}s",
                    ),
                    served_from="shed",
                )
                self.metrics.counter("serve.shed_evicted").inc()
                self.metrics.counter("serve.shed").inc()
                return None
            return self._shed_reply(
                f"queue is at its {bound}-request bound", "serve.shed_queue_full"
            )
        return None

    def _op_submit(self, msg: dict) -> dict:
        if self._stop.is_set():
            raise ServeError("daemon is shutting down; submission refused")
        spec = spec_from_payload(msg["spec"])
        priority = int(msg.get("priority", 0))
        client = msg.get("client")
        deadline_s = msg.get("deadline_s")
        with self._lock:
            ckey = content_key(spec, self.fingerprint)

            # Fleet-wide dedup, cheapest first: a finished identical kernel in
            # the content store, else an identical in-flight one.  Both are
            # admitted even under overload — they cost no worker time.  A hit
            # is not re-verified: this process's pool produced it, or
            # ``_restore`` readmitted it.
            stored = self.store.get(ckey)
            leader_id = self._inflight.get(ckey)
            follows = (
                leader_id is not None
                and (leader := self._requests.get(leader_id)) is not None
                and leader.state != "done"
            )
            if stored is None and not follows:
                shed = self._admit(msg, priority, client)
                if shed is not None:
                    return shed

            self._seq += 1
            now = time.monotonic()
            req = ServeRequest(
                id=f"r{self._seq:05d}",
                spec=spec,
                priority=priority,
                timeout_s=msg.get("timeout_s"),
                max_solver_calls=msg.get("max_solver_calls"),
                content_key=ckey,
                submitted_at=now,
                client=client,
                deadline=now + deadline_s if deadline_s is not None else None,
                deadline_unix=(
                    time.time() + deadline_s if deadline_s is not None else None
                ),
            )
            # Durability before acknowledgement: once the client holds the
            # id, a daemon kill cannot lose the request.
            self.log.record_request(req)
            self._requests[req.id] = req
            self.metrics.counter("serve.submitted").inc()
            self.board.grow(1)

            if stored is not None:
                self.metrics.counter("serve.store_hits").inc()
                self._complete(req, stored, served_from="store")
            else:
                if client is not None:
                    self._client_inflight[client] = (
                        self._client_inflight.get(client, 0) + 1
                    )
                self._enqueue(req)
            return {"ok": True, "id": req.id}

    def _op_health(self) -> dict:
        """Liveness of the parts a ping cannot see.

        Answered on a connection thread *without* taking the daemon lock, so
        it stays answerable while the dispatcher is wedged on a stuck fsync —
        ``dispatcher_age_s`` is exactly how the watchdog notices that case.
        """
        now = time.monotonic()
        age = now - self._last_tick if self._last_tick else None
        stall_bound = max(5.0, 5 * self.heartbeat_interval_s)
        healthy = (
            not self._stop.is_set()
            and age is not None
            and age < stall_bound
            and (not self.pool.started or self.pool.alive_workers > 0)
        )
        return {
            "ok": True,
            "healthy": healthy,
            "pid": os.getpid(),
            "dispatcher_age_s": age,
            "queued": len(self._queued_ids),
            "pool_alive": self.pool.alive_workers if self.pool.started else 0,
            "shedding": (
                self.max_queue_depth is not None
                and len(self._queued_ids) >= self.max_queue_depth
            ),
        }

    def _op_status(self, msg: dict) -> dict:
        rid = msg.get("id")
        with self._lock:
            if rid is not None:
                req = self._requests.get(rid)
                if req is None:
                    raise ServeError(f"unknown request id: {rid!r}")
                out: dict = {"ok": True, "id": rid, "state": req.state}
                if req.outcome is not None:
                    out["status"] = req.outcome.status
                    out["served_from"] = req.served_from
                return out
            by_state: dict[str, int] = {}
            for req in self._requests.values():
                by_state[req.state] = by_state.get(req.state, 0) + 1
            return {
                "ok": True,
                "requests": by_state,
                "queued": len(self._queued_ids),
                "pool": {
                    "workers": self.pool.size,
                    "alive": self.pool.alive_workers,
                    "busy": self.pool.busy_workers,
                    **self.pool.counters,
                },
            }

    def _op_result(self, msg: dict) -> dict:
        rid = msg["id"]
        wait = bool(msg.get("wait"))
        deadline = time.monotonic() + float(msg.get("timeout_s", 600.0))
        with self._done_cond:
            req = self._requests.get(rid)
            if req is None:
                raise ServeError(f"unknown request id: {rid!r}")
            while req.state != "done":
                if not wait:
                    raise ServeError(f"request {rid} is {req.state}, not finished")
                if self._stop.is_set() and not self._drain:
                    raise ServeError("daemon shut down before the request finished")
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ServeError(f"request {rid} not finished in time")
                self._done_cond.wait(min(remaining, 0.5))
            return {
                "ok": True,
                "id": rid,
                "served_from": req.served_from,
                "outcome": asdict(req.outcome),
            }

    # -- completion ------------------------------------------------------------

    def _complete(
        self, req: ServeRequest, outcome: KernelOutcome, served_from: str
    ) -> None:
        """Terminal transition (caller holds the lock): durably record the
        result, index a synthesis in the content store, update telemetry,
        cascade to dedup followers."""
        req.state = "done"
        req.outcome = outcome
        req.served_from = served_from
        self._queued_ids.discard(req.id)
        self._release_client(req)
        self.log.record_result(req)
        if self._inflight.get(req.content_key) == req.id:
            del self._inflight[req.content_key]
        if served_from == "synthesis":
            self.store.put(req.content_key, outcome)
        self.metrics.counter("serve.completed").inc()
        self.metrics.counter(f"serve.served_from.{served_from}").inc()
        self.metrics.counter(f"serve.status.{outcome.status}").inc()
        if req.submitted_at:
            self.metrics.histogram("serve.request_seconds").observe(
                time.monotonic() - req.submitted_at
            )
        self.board.finish(req.spec.name, outcome.status)
        for follower in req.followers:
            follower.state = "done"
            follower.outcome = outcome
            follower.served_from = "dedup"
            self._release_client(follower)
            self.log.record_result(follower)
            self.metrics.counter("serve.completed").inc()
            self.metrics.counter("serve.served_from.dedup").inc()
            self.board.finish(follower.spec.name, outcome.status)
        req.followers = []
        self._done_cond.notify_all()

    def _release_client(self, req: ServeRequest) -> None:
        """Return one slot of the submitting client's in-flight allowance."""
        if req.client is None:
            return
        left = self._client_inflight.get(req.client, 0) - 1
        if left > 0:
            self._client_inflight[req.client] = left
        else:
            self._client_inflight.pop(req.client, None)

    # -- the dispatcher loop ---------------------------------------------------

    def _dispatch_one(self, req: ServeRequest) -> None:
        """Route one dequeued request (lock held): whatever the optimizer
        resolves short of a search completes instantly, everything else goes
        to the pool."""
        resolved = self._opt.resolve(req.spec)
        if resolved is not None:
            if resolved.improved:
                served_from = "rule-cache"
                self.metrics.counter("serve.rule_cache_hits").inc()
            elif resolved.status == "ok":
                served_from = "pattern"
                self.metrics.counter("serve.pattern_hits").inc()
            else:
                served_from = "error"
            self._complete(req, resolved, served_from=served_from)
            return
        # Deadline propagation, dispatch side: the worker's cooperative
        # Budget gets only the time the caller still has, not the request's
        # nominal timeout — queue wait is not free solver time.
        timeout_s = req.timeout_s
        if req.deadline is not None:
            remaining = req.deadline - time.monotonic()
            if remaining <= 0:
                self._queued_ids.discard(req.id)
                self._complete(
                    req,
                    self._opt.failed_outcome(
                        req.spec, "timeout", "deadline expired before dispatch"
                    ),
                    served_from="deadline",
                )
                self.metrics.counter("serve.deadline_expired").inc()
                return
            timeout_s = remaining if timeout_s is None else min(timeout_s, remaining)
        req.state = "running"
        self.board.start(req.spec.name)
        self.metrics.counter("serve.dispatched").inc()
        self.pool.submit(
            req.id,
            req.spec,
            timeout_s=timeout_s,
            max_solver_calls=req.max_solver_calls,
        )

    def _handle_event(self, event) -> None:
        with self._lock:
            req = self._requests.get(event.task_id)
            if req is None:
                return
            # No failure-verdict dict: a transient crash or timeout must not
            # poison its pattern for this daemon's lifetime.
            outcome = self._opt.settle(req.spec, event.kind, event.payload)
            self._complete(
                req,
                outcome,
                served_from="synthesis" if event.kind == "ok" else event.kind,
            )

    def serve_forever(self) -> None:
        """The dispatcher loop; returns after a shutdown request (drained or
        not) and :meth:`close`.  Run :meth:`start` first.  A SIGINT/SIGTERM
        asks for a stop; one during the teardown is absorbed, so the cache,
        ``metrics.json`` and the lock are always written out."""
        from repro.resilience import InterruptGuard

        with InterruptGuard() as guard:
            while True:
                self._last_tick = time.monotonic()
                self._beat()
                if guard.requested():
                    self._drain = False
                    self._stop.set()
                if self._stop.is_set() and (not self._drain or self._idle()):
                    break
                self._shed_expired()
                dispatched = self._fill_pool()
                events = self.pool.step() if self.pool.started else []
                for event in events:
                    self._handle_event(event)
                if not events and not dispatched:
                    time.sleep(self.policy.poll_interval_s)
            self.close()

    def _shed_expired(self) -> None:
        """Deadline propagation, queue side: complete every queued request
        whose client-supplied deadline has already passed — a slow queue must
        never burn solver time on a request whose caller is gone."""
        now = time.monotonic()
        expired = []
        with self._lock:
            for rid in self._queued_ids:
                req = self._requests.get(rid)
                if (
                    req is not None
                    and req.state == "queued"
                    and req.deadline is not None
                    and now > req.deadline
                ):
                    expired.append(req)
            for req in expired:
                self._queued_ids.discard(req.id)
                waited = now - req.submitted_at if req.submitted_at else 0.0
                self._complete(
                    req,
                    self._opt.failed_outcome(
                        req.spec,
                        "timeout",
                        f"deadline expired after {waited:.2f}s in queue, "
                        "before dispatch",
                    ),
                    served_from="deadline",
                )
                self.metrics.counter("serve.deadline_expired").inc()

    def _idle(self) -> bool:
        with self._lock:
            return not self._heap and self.pool.outstanding == 0

    def _fill_pool(self) -> int:
        """Move queued requests to the pool while it has idle capacity.

        Priority lives in the daemon's heap, not the pool's FIFO: a request
        is released to the pool only when a worker can take it, so a
        higher-priority submission always overtakes queued lower ones.
        """
        n = 0
        with self._lock:
            while self._heap and self.pool.busy_workers + n < self.pool.size:
                _, _, rid = heapq.heappop(self._heap)
                req = self._requests.get(rid)
                if req is None or req.state != "queued":
                    continue
                self._queued_ids.discard(rid)
                self._dispatch_one(req)
                if req.state == "running":
                    n += 1
        return n

    def close(self) -> None:
        """Tear down: stop the pool, flush cache + metrics, drop the lock."""
        self._stop.set()
        if not self._drain:
            self.pool.cancel_all()
        self.pool.stop()
        try:
            # The workers saved their own entries; this is what the daemon's
            # own optimizer added (program costs of an expensive cost model).
            self._cache.save()
        except Exception:  # noqa: BLE001 — the cache is an accelerator
            pass
        try:
            write_atomic(
                self.state_dir / "metrics.json",
                json.dumps(self.metrics.snapshot(), indent=2, sort_keys=True) + "\n",
            )
        except OSError:
            pass
        if self._server_sock is not None:
            try:
                self._server_sock.close()
            except Exception:
                pass
            self._server_sock = None
        try:
            self.socket_path.unlink()
        except OSError:
            pass
        self.board.close()
        self._release_lock()
        with self._done_cond:
            self._done_cond.notify_all()
