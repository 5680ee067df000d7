"""Parallel batch synthesis across worker processes, with failure isolation.

Section VII-E's amortization argument scales two ways: *across runs* via the
:class:`~repro.synth.cache.PersistentCache`, and *across kernels of one
batch*, implemented here.  :class:`ParallelModuleOptimizer` fans independent
kernels of a module over worker processes in waves:

1. before each wave the parent tries the **mined-rule cache** on every
   pending kernel (milliseconds, no search) and resolves kernels whose
   normalized pattern already synthesized to "unchanged" in this batch;
2. kernels sharing a normalized pattern (same program after shrinking and
   positional input renaming) are deduplicated — one representative per
   pattern goes to a worker, duplicates wait for its verdict;
3. workers run full synthesis with the persistent cache — each reads what
   its peers appended before a task and appends what it found after it —
   and return their outcome and mined rules;
4. the parent merges rules deterministically in kernel order, and ends the
   run by folding the workers' cache entries into its own cache object.

The wave structure is what makes later kernels benefit from earlier
discoveries exactly as in the sequential pipeline: a duplicate of an
*improved* kernel resolves through the merged rule cache (``via ==
"rule-cache"``), a duplicate of an *unimproved* kernel is emitted as
``"unchanged"`` without paying synthesis again.  With ``workers=1`` the
driver is bypassed entirely (`ModuleOptimizer.optimize_module` keeps the
sequential path).

Execution rides on the persistent :class:`~repro.serve.pool.WorkerPool`
(one pool per module run, spawned at the first wave): workers stay warm
across waves — the persistent cache, the intern table, and SymPy's memo
caches are loaded once per *run*, not once per kernel — and a worker picks
up its peers' new cache entries by reading on from where it last stopped
in the section files.

Resilience (see :mod:`repro.resilience`): each kernel runs in a pool worker
with a cooperative synthesis budget *and* a hard deadline — a worker stuck
in a pathological SymPy call is SIGTERM'd (then SIGKILL'd) and the kernel
reported ``status='timeout'``; a worker that *crashes* (OOM, injected death)
is replaced by a live one with bounded retry + exponential backoff, falling
back to in-parent synthesis after the retries; a worker whose synthesis
*raises* is reported ``status='error'`` without retry (the failure is
deterministic).  Every kernel always gets a structured
:class:`KernelOutcome`, and the rest of the module keeps optimizing.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Sequence

from repro.cost import CostModel, make_cost_model
from repro.obs.progress import ProgressBoard
from repro.obs.trace import get_tracer
from repro.pipeline import KernelOutcome, KernelSpec, ModuleOptimizer, ModuleResult
from repro.resilience import ResiliencePolicy
from repro.rules.mining import MinedRule
from repro.serve.pool import WorkerPool, absorb_trace
from repro.synth.cache import as_cache
from repro.synth.config import DEFAULT_CONFIG, SynthesisConfig


def _batch_key(spec: KernelSpec, config: SynthesisConfig) -> str:
    """Normalized pattern key: two kernels with the same key synthesize alike.

    Mirrors ``superoptimize_source``: shrink the input types, parse, rename
    inputs positionally (so ``A + B`` and ``P + Q`` coincide), and print the
    *program* with its input types.  The symbolic spec alone is not a key:
    ``A**6 / A**4`` and ``A**2`` share one, yet only the second is already
    optimal, so an "unimproved" verdict on one says nothing about the other.
    Any failure yields a unique key — the kernel is simply never
    deduplicated.
    """
    try:
        from repro.ir.nodes import rename_inputs
        from repro.ir.parser import parse
        from repro.ir.printer import to_expression
        from repro.synth.superoptimizer import _as_type, synthesis_types

        types = {n: _as_type(t) for n, t in spec.inputs.items()}
        synth_types = synthesis_types(spec.source, types, name=spec.name)
        program = parse(spec.source, synth_types, name=spec.name)
        mapping = {name: f"__k{i}" for i, name in enumerate(program.input_names)}
        node = rename_inputs(program.node, mapping)
        ordered = ";".join(
            f"{i.type.dtype.value}{i.type.shape}" for i in program.inputs
        )
        return f"{to_expression(node)}##{ordered}"
    except Exception:
        return f"__opaque__:{spec.name}:{spec.source}:{sorted(spec.inputs)}"


#: Public name — the serve daemon keys its duplicate-pattern fast path on it.
batch_key = _batch_key


class ParallelModuleOptimizer:
    """Wave-scheduled parallel counterpart of :class:`ModuleOptimizer`.

    Produces the same set of :class:`KernelOutcome`\\ s (names, ``via``
    labels, costs) as the sequential pipeline on the same module; only
    wall-clock and ``synthesis_seconds`` bookkeeping differ.  ``policy``
    (a :class:`~repro.resilience.ResiliencePolicy`) controls per-kernel
    timeouts, crash retries, and kill grace periods.
    """

    def __init__(
        self,
        cost_model: CostModel | str = "flops",
        config: SynthesisConfig | None = None,
        rules: Sequence[MinedRule] = (),
        workers: int | None = None,
        cache=None,
        policy: ResiliencePolicy | None = None,
    ) -> None:
        self.cost_model = (
            make_cost_model(cost_model) if isinstance(cost_model, str) else cost_model
        )
        self.config = config or DEFAULT_CONFIG
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.cache = as_cache(cache)
        self.policy = policy or ResiliencePolicy()
        # Sequential twin: rule-cache application, unchanged outcomes, and the
        # single-worker fallback all reuse its (verified) logic.
        self._seq = ModuleOptimizer(
            cost_model=self.cost_model,
            config=self.config,
            rules=rules,
            cache=self.cache,
        )

    @property
    def rules(self) -> list[MinedRule]:
        return self._seq.rules

    def optimize_module(
        self,
        kernels: Sequence[KernelSpec],
        timeout_s: float | None = None,
        journal=None,
    ) -> ModuleResult:
        """Optimize ``kernels`` in parallel waves.

        ``journal`` (a :class:`repro.journal.RunJournal`) makes the run
        durable: kernels already journaled by an interrupted prior run are
        restored up front (no worker, no solver calls), every newly resolved
        outcome is appended to the journal as soon as the parent learns it,
        and SIGINT/SIGTERM stop dispatching — running workers are killed,
        completed outcomes stay journaled, and the partial result returns
        with ``interrupted=True``.
        """
        timeout_s = timeout_s if timeout_s is not None else self.policy.kernel_timeout_s
        if self.workers <= 1 or len(kernels) <= 1:
            return self._seq.optimize_module(
                kernels, timeout_s=timeout_s, journal=journal
            )

        from contextlib import nullcontext

        from repro.resilience import InterruptGuard

        board = ProgressBoard(len(kernels))
        parent_tracer = get_tracer()

        # One persistent pool for the whole module run: workers stay warm
        # across waves.  Forward worker trace events whenever the parent
        # traces *or* a live progress board wants per-kernel node counts.
        pool = WorkerPool(
            self.workers,
            cost_model=self.cost_model,
            config=self.config,
            cache=self.cache,
            policy=self.policy,
            trace=parent_tracer.enabled or board.enabled,
            on_trace=partial(absorb_trace, board=board, node_counts={}),
        )
        outcomes: list[KernelOutcome | None] = [None] * len(kernels)
        pending: list[tuple[int, KernelSpec]] = []
        for idx, spec in enumerate(kernels):
            restored = self._seq.restore_from_journal(spec, journal)
            if restored is not None:
                outcomes[idx] = restored
                board.finish(spec.name, "restored")
            else:
                pending.append((idx, spec))
        unimproved_keys: set[str] = set()
        # Pattern key -> (status, error) of a representative that failed or
        # degraded: its duplicates share the verdict instead of re-paying the
        # same timeout/crash (same normalized problem, same fate).
        failed_keys: dict[str, tuple[str, str | None]] = {}
        interrupted = False

        guard = InterruptGuard() if journal is not None else nullcontext()
        try:
            with guard as stop:
                while pending:
                    if stop is not None and stop.requested():
                        interrupted = True
                        break
                    deferred: list[tuple[int, KernelSpec]] = []
                    wave: list[tuple[int, KernelSpec, str]] = []
                    wave_keys: set[str] = set()
                    for idx, spec in pending:
                        try:
                            cached = self._seq.try_rule_cache(spec)
                        except Exception as exc:  # noqa: BLE001 — classify, don't crash
                            outcomes[idx] = self._seq.failed_outcome(
                                spec, "error", f"{type(exc).__name__}: {exc}"
                            )
                            self._journal(journal, spec, outcomes[idx])
                            continue
                        if cached is not None:
                            outcomes[idx] = cached
                            self._journal(journal, spec, cached)
                            board.finish(spec.name, "rule-cache")
                            continue
                        key = _batch_key(spec, self.config)
                        if key in failed_keys:
                            status, error = failed_keys[key]
                            outcomes[idx] = self._seq.failed_outcome(
                                spec, status, error or "pattern representative failed"
                            )
                            self._journal(journal, spec, outcomes[idx])
                            board.finish(spec.name, status)
                            continue
                        if key in unimproved_keys:
                            # This pattern already synthesized to "no improvement";
                            # rerunning the search cannot change the verdict.
                            outcomes[idx] = self._seq.unchanged_outcome(spec)
                            self._journal(journal, spec, outcomes[idx])
                            board.finish(spec.name, "unchanged")
                            continue
                        if key in wave_keys:
                            deferred.append((idx, spec))  # wait for the representative
                            continue
                        wave_keys.add(key)
                        wave.append((idx, spec, key))

                    if not wave:
                        break  # everything resolved via rule cache / dedup
                    self._run_wave(
                        wave, unimproved_keys, failed_keys, outcomes, timeout_s,
                        pool=pool, journal=journal, stop=stop, board=board,
                    )
                    if stop is not None and stop.requested():
                        interrupted = True
                        break
                    pending = deferred

        finally:
            pool.stop()
        board.close()
        if self.cache is not None:
            # The caller's cache object sees what its workers found (a warm
            # rerun through it makes no solver call), then appends its own.
            self.cache.refresh()
            self.cache.save()
        done = [o for o in outcomes if o is not None]
        if not interrupted:
            assert len(done) == len(kernels), "parallel driver dropped a kernel"
        result = ModuleResult(
            outcomes=done, rules=list(self._seq.rules), interrupted=interrupted
        )
        if journal is not None:
            journal.mark(
                "interrupted" if interrupted else "completed",
                metrics=result.metrics_rollup(),
            )
        return result

    @staticmethod
    def _journal(journal, spec: KernelSpec, outcome: KernelOutcome | None) -> None:
        if journal is not None and outcome is not None:
            journal.record_outcome(spec, outcome)

    # -- wave execution --------------------------------------------------------

    def _run_wave(
        self,
        wave: list[tuple[int, KernelSpec, str]],
        unimproved_keys: set[str],
        failed_keys: dict[str, tuple[str, str | None]],
        outcomes: list[KernelOutcome | None],
        timeout_s: float | None,
        pool: WorkerPool,
        journal=None,
        stop=None,
        board: ProgressBoard | None = None,
    ) -> None:
        # Submit the whole wave to the persistent pool (task id = kernel
        # index).  The pool owns dispatch, hard deadlines and crash retry on
        # a live replacement worker.
        for idx, spec, key in wave:
            pool.submit(idx, spec, timeout_s=timeout_s)
            if board is not None:
                board.start(spec.name)

        def on_event(event) -> None:
            status = event.kind
            if event.kind == "ok":
                # Write-ahead: the outcome is durable the moment the parent
                # learns it, not at end-of-wave merge.
                self._journal(journal, event.task.spec, event.payload[0])
                status = event.payload[0].status
            if board is not None:
                board.finish(event.task.spec.name, status)

        # On a stop request queued tasks are dropped and busy workers killed
        # (their kernels stay un-journaled and are redone on resume); every
        # already-journaled outcome is kept.
        results = pool.run_until_done(
            [idx for idx, _, _ in wave], stop=stop, on_event=on_event
        )

        # Merge in submission (kernel) order: rule merging stays deterministic
        # regardless of completion order.
        for idx, spec, key in wave:
            if idx not in results:
                continue  # interrupted before this kernel resolved
            kind, payload = results[idx].kind, results[idx].payload
            if kind == "crashed":
                outcome = self._seq.optimize_kernel_guarded(spec, timeout_s=timeout_s)
                if outcome.status == "ok":
                    outcome.status = "degraded"
                    outcome.error = (
                        f"worker crashed {self.policy.max_retries + 1}x; "
                        "synthesized in parent"
                    )
                # Parent fallback used self._seq directly, so any mined rule
                # is already absorbed; nothing more to merge.
            elif kind == "timeout":
                outcome = self._seq.failed_outcome(spec, "timeout", payload)
            elif kind == "error":
                outcome = self._seq.failed_outcome(spec, "error", payload)
            else:
                outcome, rules = payload
                for rule in rules:
                    self._seq.absorb_rule(rule)
            if kind != "ok":  # 'ok' outcomes were journaled at arrival
                self._journal(journal, spec, outcome)
            outcomes[idx] = outcome
            if outcome.status == "ok":
                if not outcome.improved:
                    unimproved_keys.add(key)
            elif not outcome.improved:
                # A degraded/failed unimproved verdict is not trustworthy as
                # "proven unimprovable", but duplicates share the same fate:
                # don't re-pay the timeout/crash for each of them.
                failed_keys.setdefault(key, (outcome.status, outcome.error))
