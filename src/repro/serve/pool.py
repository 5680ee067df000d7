"""Persistent warm worker pool: synthesis workers that outlive their tasks.

The wave scheduler of :mod:`repro.parallel` used to spawn one process
per kernel attempt.  On the project's 1-core bench host that *regressed* the
batch (0.87x at 2 workers): every spawn re-loaded the persistent cache from
disk, re-built SymPy's caches, and threw the warm
:class:`~repro.symexec.interning.InternTable` away.  :class:`WorkerPool`
fixes the model the way long-lived autotuning services (Ansor's measurement
server, FlexTensor's persistent explorer) do:

* workers are spawned **once** and loop over tasks — the in-process
  ``PersistentCache`` entries, interned canonical forms, SymPy memo tables,
  and cost-model memos stay hot across tasks, waves, and (for the daemon)
  whole request batches;
* workers own their cache entries end to end: each one folds what its peers
  appended to the shared :class:`~repro.synth.cache.PersistentCache` logs
  before a task (``refresh``) and appends what it found after it (``save``)
  — the file is the only channel, the parent relays nothing;
* a worker that **crashes** is replaced by a live worker immediately and the
  task retried with bounded backoff; the replacement reads the same cache
  files, so a crash never costs the pool its warm state;
* a worker that **hangs** past its task's hard deadline is killed and
  replaced, and the task reported ``timeout`` — identical semantics to the
  old per-wave driver, minus the respawn tax for everyone else;
* a worker that has completed ``max_requests_per_worker`` tasks or grown
  past the ``worker_rss_limit_mb`` high-watermark is **recycled** between
  tasks (lifecycle hygiene for long soaks: SymPy caches and allocator
  fragmentation grow without bound otherwise) — the replacement loads the
  cache files its predecessor appended to, so recycling costs no cache
  warmth (``pool.recycled`` counters track it).

Protocol over each worker's duplex pipe::

    parent -> worker   ("task", task_id, spec, overrides, attempt)
                       ("stop",)
    worker -> parent   ("trace", event_batch)                    # interleaved
                       ("done", task_id, "ok", (outcome, rules))
                       ("done", task_id, "error", message)

A crash is a pipe EOF / dead process with no ``done`` message.  Per-task
``overrides`` carry the request's budget (``timeout_seconds`` /
``max_solver_calls``) into the worker's :class:`~repro.resilience.Budget`.

Both owners — :func:`repro.parallel.run_waves` (one pool per module run,
waves become task submissions) and the
:class:`repro.serve.daemon.SynthesisDaemon` (one pool for the daemon's whole
lifetime) — only schedule: each asks its
:class:`~repro.pipeline.ModuleOptimizer` to ``resolve`` a kernel before
submitting it here, and hands every terminal event's ``(kind, payload)`` to
its ``settle``.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.cost import CostModel, make_cost_model
from repro.obs.progress import ProgressBoard
from repro.obs.trace import PipeSink, Tracer, get_tracer, install_tracer
from repro.pipeline import KernelSpec, ModuleOptimizer
from repro.resilience import ResiliencePolicy, inject
from repro.synth.cache import PersistentCache, as_cache
from repro.synth.config import DEFAULT_CONFIG, SynthesisConfig

_STILL_RUNNING = object()


def absorb_trace(
    task: "PoolTask", batch, board: ProgressBoard, node_counts: dict[str, int]
) -> None:
    """``on_trace`` body of both pool owners: forward a worker's event batch
    to the parent tracer and count its ``dfs`` spans into the progress board.
    Best-effort — :meth:`WorkerPool._handle_trace` swallows what it raises."""
    tracer = get_tracer()
    if tracer.enabled:
        tracer.add_events(batch, worker=task.id)
    expanded = sum(1 for e in batch if e.get("name") == "dfs")
    if expanded:
        name = task.spec.name
        node_counts[name] = node_counts.get(name, 0) + expanded
        board.nodes(name, node_counts[name])


@dataclass
class PoolTask:
    """One synthesis task queued on (or running in) the pool."""

    id: object
    spec: KernelSpec
    overrides: dict
    effective_timeout: float | None
    attempt: int = 1
    ready_at: float = 0.0


@dataclass
class PoolEvent:
    """A terminal task event: ``ok | error | timeout | crashed``.

    ``payload`` is ``(outcome, rules)`` for ``ok`` and a message for
    ``error``/``timeout``/``crashed`` (retries exhausted — the caller
    decides on a fallback).
    """

    kind: str
    task_id: object
    payload: object
    task: PoolTask


@dataclass
class _Member:
    """One live pool worker and its dispatch state."""

    worker_id: int
    proc: object
    conn: object
    task: PoolTask | None = None
    hard_deadline: float | None = None
    tasks_done: int = 0


def worker_rss_mb(pid: int) -> float | None:
    """Resident set size of one process in MiB (Linux ``/proc``; None when
    unreadable — non-Linux hosts simply never trip the RSS watermark)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        return None
    return None


def _stop_process(proc, grace_s: float) -> None:
    """SIGTERM, wait ``grace_s``, then SIGKILL a worker process."""
    try:
        proc.terminate()
        proc.join(grace_s)
        if proc.is_alive():
            proc.kill()
            proc.join(1.0)
    except Exception:
        pass


def _pool_worker_main(conn, worker_id, cost_model, config, cache_path, trace) -> None:
    """Worker-process entry point: loop over tasks until told to stop.

    One :class:`~repro.pipeline.ModuleOptimizer` lives for the whole worker —
    its persistent cache, the process-wide intern table, and SymPy's memo
    caches are the warm state the pool exists to preserve.  The cache is
    refreshed from its files before a task and saved to them after it (a
    failing save is swallowed: the cache is an accelerator).  Mined rules are
    cleared per task (the parent owns the rule cache), and the per-task
    config override carries the request budget.
    """
    tracer = None
    if trace:
        try:
            tracer = Tracer(process=f"pool-worker:{worker_id}", sink=PipeSink(conn))
            install_tracer(tracer)
        except Exception:
            tracer = None
    cache = PersistentCache(cache_path) if cache_path is not None else None
    optimizer = ModuleOptimizer(
        cost_model=cost_model, config=config, rules=(), cache=cache
    )
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if not isinstance(msg, tuple) or not msg or msg[0] != "task":
            break  # ("stop",) or garbage: exit cleanly
        _, task_id, spec, overrides, attempt = msg
        try:
            if cache is not None:
                cache.refresh()
            # The fault site fires per (kernel, attempt) exactly as it did in
            # the spawn-per-task driver, so existing plans keep their meaning.
            inject("worker", key=spec.name, index=attempt, config=config)
            optimizer.rules = []
            optimizer.config = config.replace(**overrides) if overrides else config
            outcome = optimizer.optimize_kernel(spec)
            if cache is not None:
                try:
                    cache.save()
                except Exception:  # noqa: BLE001
                    pass
            if tracer is not None:
                try:
                    tracer.close_open_spans()
                    tracer.flush()
                except Exception:
                    pass
            conn.send(("done", task_id, "ok", (outcome, list(optimizer.rules))))
        except BaseException as exc:  # noqa: BLE001 — report, stay alive
            try:
                conn.send(("done", task_id, "error", f"{type(exc).__name__}: {exc}"))
            except Exception:
                break
    try:
        conn.close()
    except Exception:
        pass


class WorkerPool:
    """A fixed-size pool of persistent synthesis workers.

    ``cache`` (a :class:`~repro.synth.cache.PersistentCache` or directory
    path) names the directory every worker opens its own cache on; the
    parent's object is only saved at :meth:`start`, so workers load what it
    held.  ``policy`` controls hard deadlines, crash retry,
    and kill grace.  ``ctx`` selects the multiprocessing start method — the
    wave scheduler keeps the platform default (fork on Linux: cheap, no
    threads in the CLI parent), while the daemon passes ``"spawn"`` because
    it forks from a multi-threaded process.

    The pool is deliberately not thread-safe: exactly one dispatcher thread
    calls :meth:`submit` / :meth:`step`.
    """

    def __init__(
        self,
        workers: int,
        cost_model: CostModel | str = "flops",
        config: SynthesisConfig | None = None,
        cache=None,
        policy: ResiliencePolicy | None = None,
        trace: bool = False,
        on_trace: Callable | None = None,
        ctx: str | None = None,
    ) -> None:
        self.size = max(1, workers)
        self.cost_model = (
            make_cost_model(cost_model) if isinstance(cost_model, str) else cost_model
        )
        self.config = config or DEFAULT_CONFIG
        self.cache = as_cache(cache)
        self.policy = policy or ResiliencePolicy()
        self.trace = trace
        self.on_trace = on_trace
        self._ctx = mp.get_context(ctx) if ctx else mp.get_context()
        self._members: list[_Member] = []
        self._queue: list[PoolTask] = []
        self._tasks: dict[object, PoolTask] = {}
        self._next_worker_id = 0
        self.counters: dict[str, int] = {
            "pool.spawned": 0,
            "pool.tasks": 0,
            "pool.completed": 0,
            "pool.crash_retries": 0,
            "pool.replacements": 0,
            "pool.timeouts": 0,
            "pool.recycled": 0,
            "pool.recycled_requests": 0,
            "pool.recycled_rss": 0,
        }

    # -- lifecycle -------------------------------------------------------------

    @property
    def started(self) -> bool:
        return bool(self._members)

    @property
    def outstanding(self) -> int:
        """Tasks submitted but not yet terminal (queued + running)."""
        return len(self._tasks)

    @property
    def alive_workers(self) -> int:
        return sum(1 for m in self._members if m.proc.is_alive())

    @property
    def busy_workers(self) -> int:
        return sum(1 for m in self._members if m.task is not None)

    def start(self) -> None:
        """Spawn the workers (idempotent).  Persists the cache first so every
        worker loads the same warm disk state."""
        if self._members:
            return
        if self.cache is not None:
            self.cache.save()
        for _ in range(self.size):
            self._members.append(self._spawn())

    def _spawn(self) -> _Member:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_pool_worker_main,
            args=(
                child_conn,
                worker_id,
                self.cost_model,
                self.config,
                self.cache.path if self.cache is not None else None,
                self.trace,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self.counters["pool.spawned"] += 1
        return _Member(worker_id, proc, parent_conn)

    def _replace(self, member: _Member, counter: str = "pool.replacements") -> None:
        """Kill (if needed) and replace one member in place, keeping the pool
        at full strength.  The fresh worker opens the cache files its
        predecessor saved to — no cold-cache loss."""
        _stop_process(member.proc, self.policy.kill_grace_s)
        try:
            member.conn.close()
        except Exception:
            pass
        fresh = self._spawn()
        idx = self._members.index(member)
        self._members[idx] = fresh
        self.counters[counter] += 1

    def _recycle_reason(self, member: _Member) -> str | None:
        """Why an idle member should be proactively recycled, or None."""
        limit = self.policy.max_requests_per_worker
        if limit is not None and member.tasks_done >= limit:
            return "requests"
        rss_limit = self.policy.worker_rss_limit_mb
        if rss_limit is not None:
            rss = worker_rss_mb(member.proc.pid)
            if rss is not None and rss > rss_limit:
                return "rss"
        return None

    def _recycle(self, member: _Member, reason: str) -> None:
        """Retire one *idle* member and replace it in place (see
        :meth:`_replace`: lifecycle hygiene costs no cache warmth)."""
        try:  # ask nicely first; _replace escalates to SIGTERM/SIGKILL
            member.conn.send(("stop",))
        except Exception:
            pass
        self._replace(member, counter="pool.recycled")
        self.counters[f"pool.recycled_{reason}"] += 1

    def stop(self) -> None:
        """Stop every worker: idle ones exit on ``("stop",)``, busy or stuck
        ones are killed.  Pending queued tasks are dropped."""
        for member in self._members:
            if member.task is None and member.proc.is_alive():
                try:
                    member.conn.send(("stop",))
                except Exception:
                    pass
        for member in self._members:
            member.proc.join(self.policy.kill_grace_s)
            if member.proc.is_alive():
                _stop_process(member.proc, self.policy.kill_grace_s)
            try:
                member.conn.close()
            except Exception:
                pass
        self._members.clear()
        self._queue.clear()
        self._tasks.clear()

    def cancel_all(self) -> list[object]:
        """Drop queued tasks and kill+replace members running one (interrupt
        path).  Returns the cancelled task ids; the pool stays usable."""
        cancelled = [t.id for t in self._queue]
        self._queue.clear()
        for member in list(self._members):
            if member.task is not None:
                cancelled.append(member.task.id)
                member.task = None
                member.hard_deadline = None
                self._replace(member)
        self._tasks.clear()
        return cancelled

    # -- dispatch --------------------------------------------------------------

    def submit(
        self,
        task_id,
        spec: KernelSpec,
        timeout_s: float | None = None,
        max_solver_calls: int | None = None,
    ) -> PoolTask:
        """Queue one kernel; budgets ride along as config overrides."""
        if not self._members:
            self.start()
        overrides: dict = {}
        if timeout_s is not None:
            overrides["timeout_seconds"] = min(timeout_s, self.config.timeout_seconds)
        if max_solver_calls is not None:
            overrides["max_solver_calls"] = max_solver_calls
        task = PoolTask(
            id=task_id,
            spec=spec,
            overrides=overrides,
            effective_timeout=overrides.get(
                "timeout_seconds", self.config.timeout_seconds
            ),
        )
        self._tasks[task_id] = task
        self._queue.append(task)
        self.counters["pool.tasks"] += 1
        return task

    def _dispatch(self, member: _Member, task: PoolTask) -> bool:
        if not member.proc.is_alive():
            self._replace(member)
            return False  # retry on the fresh member next step
        try:
            member.conn.send(("task", task.id, task.spec, task.overrides, task.attempt))
        except (OSError, ValueError):
            self._replace(member)
            return False
        member.task = task
        hard = self.policy.hard_deadline_for(task.effective_timeout)
        member.hard_deadline = time.monotonic() + hard if hard is not None else None
        return True

    def _handle_trace(self, task: PoolTask | None, batch) -> None:
        if self.on_trace is None or task is None:
            return
        try:
            self.on_trace(task, batch)
        except Exception:  # noqa: BLE001 — telemetry must never fail the pool
            pass

    # -- the scheduler tick ----------------------------------------------------

    def step(self) -> list[PoolEvent]:
        """One scheduler tick: dispatch ready tasks, drain pipes, enforce hard
        deadlines, retry crashes.  Returns the terminal events produced."""
        events: list[PoolEvent] = []
        now = time.monotonic()
        for member in self._members:
            if member.task is not None or not self._queue:
                continue
            task = next((t for t in self._queue if t.ready_at <= now), None)
            if task is None:
                continue
            self._queue.remove(task)
            if not self._dispatch(member, task):
                task.ready_at = 0.0
                self._queue.insert(0, task)

        for member in list(self._members):
            if member.task is None:
                continue
            msg = _STILL_RUNNING
            try:
                while member.conn.poll(0):
                    received = member.conn.recv()
                    if (
                        isinstance(received, tuple)
                        and len(received) == 2
                        and received[0] == "trace"
                    ):
                        self._handle_trace(member.task, received[1])
                        continue
                    msg = received
                    break
            except (EOFError, OSError):
                msg = None  # died mid-send: crash
            if msg is _STILL_RUNNING and not member.proc.is_alive():
                msg = None  # died without reporting: crash
            if msg is _STILL_RUNNING:
                if (
                    member.hard_deadline is not None
                    and time.monotonic() > member.hard_deadline
                ):
                    task = member.task
                    member.task = None
                    self._replace(member)
                    self.counters["pool.timeouts"] += 1
                    self._tasks.pop(task.id, None)
                    events.append(
                        PoolEvent(
                            "timeout",
                            task.id,
                            f"kernel exceeded its {task.effective_timeout:g}s "
                            "deadline; worker killed",
                            task,
                        )
                    )
                continue
            if msg is None:
                # Crashed worker: replace it so the retry lands on a *live*
                # worker immediately.
                task = member.task
                member.task = None
                self._replace(member)
                if task.attempt <= self.policy.max_retries:
                    backoff = self.policy.retry_backoff_s * (2 ** (task.attempt - 1))
                    task.attempt += 1
                    task.ready_at = time.monotonic() + backoff
                    self._queue.append(task)
                    self.counters["pool.crash_retries"] += 1
                else:
                    self._tasks.pop(task.id, None)
                    events.append(
                        PoolEvent(
                            "crashed", task.id, f"worker crashed {task.attempt}x", task
                        )
                    )
                continue
            # Terminal ("done", id, kind, payload) message.
            task = member.task
            member.task = None
            member.hard_deadline = None
            member.tasks_done += 1
            self._tasks.pop(task.id, None)
            self.counters["pool.completed"] += 1
            _, _, kind, payload = msg
            events.append(PoolEvent("ok" if kind == "ok" else "error", task.id, payload, task))
            reason = self._recycle_reason(member)
            if reason is not None:
                self._recycle(member, reason)
        return events

    def run_until_done(
        self,
        task_ids: Sequence[object] | None = None,
        stop=None,
        on_event: Callable[[PoolEvent], None] | None = None,
    ) -> dict[object, PoolEvent]:
        """Step until the given tasks (default: all outstanding) are terminal,
        or ``stop.requested()`` turns true — then queued tasks are dropped
        and busy workers killed and replaced.  ``on_event`` sees each wanted
        event the moment it arrives (write-ahead journaling, progress)."""
        wanted = set(task_ids) if task_ids is not None else set(self._tasks)
        done: dict[object, PoolEvent] = {}
        while wanted - set(done):
            if stop is not None and stop.requested():
                self.cancel_all()
                break
            events = self.step()
            for event in events:
                if event.task_id in wanted:
                    done[event.task_id] = event
                    if on_event is not None:
                        on_event(event)
            if not events and wanted - set(done):
                time.sleep(self.policy.poll_interval_s)
        return done
