"""The wave scheduler: one module's kernels over a pool of worker processes.

Section VII-E's amortization argument scales two ways: *across runs* via the
:class:`~repro.synth.cache.PersistentCache`, and *across kernels of one
batch*.  What is tried before a search and what a finished attempt means is
:class:`~repro.pipeline.ModuleOptimizer`'s resolution ladder, the same one
the sequential loop and the daemon climb; :func:`run_waves` — what
``optimize_module(parallel=N)`` runs — only decides *order*:

1. kernels a prior run journaled are restored up front (``readmit``);
2. before each wave every pending kernel is offered to ``resolve`` — the
   mined-rule cache, then its pattern's verdict;
3. kernels sharing a normalized pattern (:func:`~repro.pipeline.batch_key`)
   are deduplicated — one representative per pattern goes to a worker,
   duplicates wait for the next wave and its verdict;
4. workers run full synthesis with the persistent cache — each reads what
   its peers appended before a task and appends what it found after it;
5. results are ``settle``\\ d in kernel order, so rule merging stays
   deterministic regardless of completion order.

The wave structure is what makes later kernels benefit from earlier
discoveries exactly as in the sequential loop: a duplicate of an *improved*
kernel resolves through the merged rule cache (``via == "rule-cache"``), a
duplicate of an *unimproved* kernel is emitted as ``"unchanged"`` without
paying synthesis again.

Execution rides on the persistent :class:`~repro.serve.pool.WorkerPool`
(one pool per module run, spawned at the first wave): workers stay warm
across waves — the persistent cache, the intern table, and SymPy's memo
caches are loaded once per *run*, not once per kernel.

Resilience (see :mod:`repro.resilience`): each kernel runs in a pool worker
with a cooperative synthesis budget *and* a hard deadline — a worker stuck
in a pathological SymPy call is SIGTERM'd (then SIGKILL'd) and the kernel
reported ``status='timeout'``; a worker that *crashes* (OOM, injected death)
is replaced by a live one with bounded retry + exponential backoff; a worker
whose synthesis *raises* is reported ``status='error'`` without retry (the
failure is deterministic).  One decision here is the scheduler's own,
because it is about *where* to run: a kernel the pool gave up on is searched
once more in the parent, and what comes back is settled as ``degraded``.
Every kernel always gets a structured :class:`KernelOutcome`, and the rest
of the module keeps optimizing.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from repro.obs.progress import ProgressBoard
from repro.obs.trace import get_tracer
from repro.pipeline import KernelOutcome, KernelSpec, ModuleOptimizer, batch_key
from repro.resilience import ResiliencePolicy
from repro.serve.pool import WorkerPool, absorb_trace


def run_waves(
    optimizer: ModuleOptimizer,
    kernels: Sequence[KernelSpec],
    workers: int,
    timeout_s: float | None = None,
    policy: ResiliencePolicy | None = None,
    journal=None,
    stop=None,
    failed: dict | None = None,
) -> list[KernelOutcome]:
    """Optimize ``kernels`` for ``optimizer`` in parallel waves.

    Returns the outcomes in kernel order — all of them, unless
    ``stop.requested()`` cut the run: then queued tasks are dropped, busy
    workers killed (their kernels stay un-journaled and are redone on
    resume), and only the completed outcomes come back.  ``journal`` sees
    every outcome the moment the parent learns it; ``failed`` is the run's
    failure-verdict dict (see :meth:`ModuleOptimizer.settle`).
    """
    policy = policy or ResiliencePolicy()
    board = ProgressBoard(len(kernels))
    # One persistent pool for the whole module run: workers stay warm across
    # waves.  Forward worker trace events whenever the parent traces *or* a
    # live progress board wants per-kernel node counts.
    pool = WorkerPool(
        workers,
        cost_model=optimizer.cost_model,
        config=optimizer.config,
        cache=optimizer.cache,
        policy=policy,
        trace=get_tracer().enabled or board.enabled,
        on_trace=partial(absorb_trace, board=board, node_counts={}),
    )
    outcomes: list[KernelOutcome | None] = [None] * len(kernels)

    def finish(idx: int, outcome: KernelOutcome, record: bool = True) -> None:
        outcomes[idx] = outcome
        if record and journal is not None:
            journal.record_outcome(kernels[idx], outcome)
        board.finish(outcome.name, outcome.status)

    def on_event(event) -> None:
        status = event.kind
        if event.kind == "ok":
            # Write-ahead: an outcome is durable the moment the parent
            # learns it, not at the end-of-wave merge.
            if journal is not None:
                journal.record_outcome(event.task.spec, event.payload[0])
            status = event.payload[0].status
        board.finish(event.task.spec.name, status)

    pending: list[int] = []
    for idx, spec in enumerate(kernels):
        restored = None
        if journal is not None:
            restored = optimizer.readmit(spec, journal.restore(spec))
        if restored is not None:
            finish(idx, restored, record=False)
        else:
            pending.append(idx)

    def interrupted() -> bool:
        return stop is not None and stop.requested()

    try:
        while pending and not interrupted():
            deferred: list[int] = []
            wave: dict[str, int] = {}  # pattern -> its representative
            for idx in pending:
                resolved = optimizer.resolve(kernels[idx], failed)
                if resolved is not None:
                    finish(idx, resolved)
                    continue
                key = batch_key(kernels[idx], optimizer.config)
                if wave.setdefault(key, idx) != idx:
                    deferred.append(idx)  # wait for the representative
            # The pool owns dispatch, hard deadlines and crash retry on a
            # live replacement worker (task id = kernel index).
            for idx in wave.values():
                pool.submit(idx, kernels[idx], timeout_s=timeout_s)
                board.start(kernels[idx].name)
            events = pool.run_until_done(
                list(wave.values()), stop=stop, on_event=on_event
            )
            # Settle in submission (kernel) order: rule merging stays
            # deterministic regardless of completion order.
            for idx in wave.values():
                if idx not in events:
                    continue  # interrupted before this kernel resolved
                spec, event = kernels[idx], events[idx]
                kind, payload = event.kind, event.payload
                if kind == "crashed":
                    kind, payload = _search_in_parent(optimizer, spec, timeout_s, payload)
                outcome = optimizer.settle(spec, kind, payload, failed)
                finish(idx, outcome, record=event.kind != "ok")  # 'ok': at arrival
            pending = deferred
    finally:
        pool.stop()
    board.close()
    if optimizer.cache is not None:
        # The caller's cache object sees what its workers found (a warm
        # rerun through it makes no solver call).
        optimizer.cache.refresh()
    done = [o for o in outcomes if o is not None]
    assert interrupted() or len(done) == len(kernels), "wave scheduler dropped a kernel"
    return done


def _search_in_parent(
    optimizer: ModuleOptimizer, spec: KernelSpec, timeout_s: float | None, crash: str
) -> tuple[str, object]:
    """The fallback for a kernel whose workers kept dying: search it here and
    report the attempt as a worker would have, marked ``degraded``."""
    try:
        outcome = optimizer.search(spec, timeout_s)
    except Exception as exc:  # noqa: BLE001 — one kernel must not sink a module
        return "error", f"{type(exc).__name__}: {exc}"
    if outcome.status == "ok":
        outcome.status = "degraded"
        outcome.error = f"{crash}; synthesized in parent"
    return "ok", (outcome, ())
