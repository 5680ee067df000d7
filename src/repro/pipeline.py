"""Batch optimization pipeline: superoptimizing whole kernel modules.

Appendix F positions STENSO for "integration in custom compilation flows",
and Section VII-E argues the synthesis cost amortizes because results "can
be cached and reused indefinitely".  :class:`ModuleOptimizer` is where that
amortization is decided, once, for every driver — the sequential loop of
:meth:`ModuleOptimizer.optimize_module`, the wave scheduler of
:mod:`repro.parallel` and the :class:`~repro.serve.daemon.SynthesisDaemon`
differ only in the *order* they run kernels in.  The resolution ladder:

1. :meth:`~ModuleOptimizer.readmit` — an outcome somebody recorded (journal
   line or request-log result) is trusted again: an
   improved one is re-verified, a synthesized one re-mines its rule, a
   completed unimproved one re-records its pattern verdict;
2. :meth:`~ModuleOptimizer.resolve` — everything short of a search: the
   **rule cache** (rules mined from earlier kernels, applied in milliseconds
   via equality saturation), then the verdict the kernel's normalized
   pattern (:func:`batch_key`) already got;
3. full synthesis, here or in a pool worker;
4. :meth:`~ModuleOptimizer.settle` — what the finished attempt means: mined
   rules are absorbed, the pattern's verdict recorded, a failure becomes a
   structured pass-through outcome.

``optimize_kernel`` is ``resolve(spec) or settle(spec, "ok", search(spec))``.
The cache hit/miss split per kernel is reported, making the amortization
claim directly observable (see ``tests/test_pipeline.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.analysis.audit import POSITIVE_POLICY, AuditReport, RuleAuditor
from repro.cost import CostModel, make_cost_model
from repro.egraph import optimize_with_rules
from repro.errors import StensoError, WireError
from repro.ir.nodes import rename_inputs
from repro.ir.parser import Program, parse
from repro.ir.printer import to_expression, to_source
from repro.ir.types import DType, TensorType
from repro.obs.log import get_logger
from repro.rules.mining import MinedRule, mine_rule
from repro.synth.config import DEFAULT_CONFIG, SynthesisConfig
from repro.synth.superoptimizer import (
    _as_type,
    superoptimize_program,
    superoptimize_source,
    synthesis_types,
    verify_candidate,
)

log = get_logger(__name__)


@dataclass(frozen=True)
class KernelSpec:
    """One kernel to optimize: source plus input types (shapes accepted).

    ``inputs`` stays as given; ``types`` holds them normalized once, at
    construction (a bare shape is a float tensor), and is what every key,
    the wire form and parsing read."""

    name: str
    source: str
    inputs: Mapping[str, TensorType | tuple[int, ...]]
    types: dict[str, TensorType] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        types = {k: _as_type(v) for k, v in self.inputs.items()}
        object.__setattr__(self, "types", types)

    def parse(self) -> Program:
        return parse(self.source, dict(self.types), name=self.name)


def spec_to_payload(spec: KernelSpec) -> dict:
    """``spec`` as plain JSON, the form the wire, the daemon's request log
    and the run journal carry: each input is ``{"dtype": "float", "shape":
    [3, 3]}`` (:func:`spec_from_payload` also reads a bare shape list
    ``[3, 3]`` as a float tensor)."""
    inputs = {
        name: {"dtype": t.dtype.value, "shape": list(t.shape)}
        for name, t in spec.types.items()
    }
    return {"name": spec.name, "source": spec.source, "inputs": inputs}


def spec_from_payload(payload: Mapping) -> KernelSpec:
    try:
        raw_inputs = payload["inputs"]
        name = payload["name"]
        source = payload["source"]
    except (KeyError, TypeError) as exc:
        raise WireError(f"kernel spec payload is missing {exc}") from exc
    inputs = {}
    for in_name, t in raw_inputs.items():
        if isinstance(t, Mapping):
            inputs[in_name] = TensorType(DType(t["dtype"]), tuple(t["shape"]))
        else:
            inputs[in_name] = tuple(t)
    return KernelSpec(name=name, source=source, inputs=inputs)


def batch_key(spec: KernelSpec, config: SynthesisConfig) -> str:
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
        synth_types = synthesis_types(spec.source, spec.types, name=spec.name)
        program = parse(spec.source, synth_types, name=spec.name)
        mapping = {name: f"__k{i}" for i, name in enumerate(program.input_names)}
        node = rename_inputs(program.node, mapping)
        ordered = ";".join(
            f"{i.type.dtype.value}{i.type.shape}" for i in program.inputs
        )
        return f"{to_expression(node)}##{ordered}"
    except Exception:
        return f"__opaque__:{spec.name}:{spec.source}:{sorted(spec.inputs)}"


@dataclass
class KernelOutcome:
    """How one kernel was optimized.

    ``status`` is the per-kernel resilience verdict:

    * ``ok`` — the run completed normally;
    * ``degraded`` — it completed under duress (synthesis budget expired and
      the result is best-effort, or a crashed worker was replaced by an
      in-parent fallback);
    * ``timeout`` — the kernel's hard deadline was hit and its worker was
      killed; the original source is passed through unchanged;
    * ``error`` — synthesis raised; the original source is passed through
      unchanged and ``error`` holds the message;
    * ``shed`` — (serving only) the daemon dropped the request under
      overload before synthesis ran; ``error`` carries the retry hint.
    """

    name: str
    improved: bool
    via: str  # 'rule-cache' | 'synthesis' | 'unchanged'
    original_source: str
    optimized_source: str
    original_cost: float
    optimized_cost: float
    synthesis_seconds: float = 0.0
    status: str = "ok"  # 'ok' | 'degraded' | 'timeout' | 'error' | 'shed'
    error: str | None = None
    #: Metrics-registry snapshot from the synthesis run (see
    #: :mod:`repro.obs.metrics`); empty for rule-cache hits and pass-throughs.
    #: JSON-native (only dicts/lists/scalars) so it round-trips the journal.
    metrics: dict = field(default_factory=dict)

    @property
    def speedup_estimate(self) -> float:
        return self.original_cost / self.optimized_cost if self.optimized_cost else 1.0


def synthesized_rule(spec: KernelSpec, outcome: KernelOutcome) -> MinedRule | None:
    """The rule a synthesized outcome teaches, named ``mined-<kernel>``; None
    for any other outcome, or when the pair does not generalize.

    Mined as the search mined it, from both programs parsed at
    :func:`synthesis_types`: a loop unrolled over a shrunken dimension gives
    another rule than the full-size one.  :meth:`ModuleOptimizer.readmit` and
    ``stenso-lint`` both call this, so the lint audits exactly the rule a
    restart learns.  Raises :class:`StensoError` when either program does not
    parse at those types.
    """
    if not outcome.improved or outcome.via != "synthesis":
        return None
    types = synthesis_types(spec.source, spec.types, name=spec.name)
    program = parse(spec.source, types, name=spec.name)
    optimized = parse(outcome.optimized_source, types, name=spec.name)
    return _mine(program.node, optimized.node, spec.name)


def _mine(original, optimized, kernel: str) -> MinedRule | None:
    try:
        return mine_rule(original, optimized, name=f"mined-{kernel}")
    except ValueError:
        return None


@dataclass
class ModuleResult:
    """Outcome of optimizing a whole kernel module.

    ``interrupted`` is True when the run was stopped by SIGINT/SIGTERM
    before every kernel completed: ``outcomes`` then holds only the
    completed kernels (all of them durably journaled when a
    :class:`repro.journal.RunJournal` was attached), and resuming the same
    run id finishes the rest.
    """

    outcomes: list[KernelOutcome]
    rules: list[MinedRule]
    interrupted: bool = False

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.via == "rule-cache")

    @property
    def synthesis_runs(self) -> int:
        return sum(1 for o in self.outcomes if o.via == "synthesis")

    @property
    def failed(self) -> list[KernelOutcome]:
        """Kernels that hit a hard failure (``timeout`` or ``error``)."""
        return [o for o in self.outcomes if o.status in ("timeout", "error")]

    def status_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for o in self.outcomes:
            counts[o.status] = counts.get(o.status, 0) + 1
        return counts

    def metrics_rollup(self) -> dict:
        """Module-wide metrics: per-kernel snapshots merged deterministically
        (counters and histograms sum, gauges take the max)."""
        from repro.obs.metrics import empty_snapshot, merge_snapshots

        snapshots = [o.metrics for o in self.outcomes if o.metrics]
        if not snapshots:
            return empty_snapshot()
        return merge_snapshots(snapshots)

    def module_source(self) -> str:
        """One importable Python module containing every optimized kernel."""
        parts = ['"""Kernels optimized by STENSO (repro.pipeline)."""', "", "import numpy as np", "", ""]
        for outcome in self.outcomes:
            parts.append(outcome.optimized_source.rstrip())
            parts.append("")
            parts.append("")
        return "\n".join(parts).rstrip() + "\n"

    def summary(self) -> str:
        head = (
            f"optimized {len(self.outcomes)} kernels: "
            f"{self.cache_hits} via rule cache, {self.synthesis_runs} via synthesis, "
            f"{len(self.rules)} rules in cache"
        )
        failed = self.failed
        if failed:
            head += f", {len(failed)} failed"
        if self.interrupted:
            head += " [interrupted]"
        lines = [head]
        for o in self.outcomes:
            line = f"  {o.name:<20} {o.via:<11} est {o.speedup_estimate:5.2f}x"
            if o.status != "ok":
                line += f"  [{o.status}]"
                if o.error:
                    line += f" {o.error}"
            lines.append(line)
        metrics_line = self._metrics_line()
        if metrics_line:
            lines.append(metrics_line)
        return "\n".join(lines)

    def _metrics_line(self) -> str:
        """Deterministic search-counter rollup for :meth:`summary`.

        Only counters whose values are identical across warm/cold-cache runs
        appear here (``summary()`` output is byte-compared across separate
        runs in the resume tests): node/prune/match/memo counts, and *total*
        solver queries — ``solver.calls + solver.cache_hits +
        solver.floor_pruned`` is invariant under cache state even though the
        split is not (a warm run answers from the cache what a cold one
        solved or floor-pruned).  Wall-time histograms stay in the
        trace/journal only.
        """
        rollup = self.metrics_rollup()
        counters = rollup.get("counters", {})
        if not counters:
            return ""
        nodes = counters.get("search.nodes_expanded", 0)
        pruned_bound = counters.get("search.prune.bound", 0)
        pruned_simpl = counters.get("search.prune.simplification", 0)
        matches = counters.get("search.base_case_matches", 0)
        memo = counters.get("search.memo_hits", 0)
        queries = sum(
            counters.get(name, 0)
            for name in ("solver.calls", "solver.cache_hits", "solver.floor_pruned")
        )
        return (
            f"  metrics: {nodes} nodes, "
            f"{pruned_bound + pruned_simpl} pruned "
            f"(bound {pruned_bound}, simplification {pruned_simpl}), "
            f"{matches} base matches, {memo} memo hits, {queries} solver queries"
        )


class ModuleOptimizer:
    """Optimizes kernel modules with a growing mined-rule cache.

    ``cache`` (a :class:`~repro.synth.cache.PersistentCache` or a directory
    path) additionally reuses solver outcomes, stub libraries, and program
    costs across runs; the caller persists it with ``cache.save()``.
    """

    def __init__(
        self,
        cost_model: CostModel | str = "flops",
        config: SynthesisConfig | None = None,
        rules: Sequence[MinedRule] = (),
        cache=None,
        auditor: RuleAuditor | None = None,
    ) -> None:
        from repro.synth.cache import as_cache

        self.cost_model = (
            make_cost_model(cost_model) if isinstance(cost_model, str) else cost_model
        )
        self.config = config or DEFAULT_CONFIG
        # The auditor gates every rule entering the cache — seeded and mined
        # alike — once, in ``absorb_rule``.  The positive policy audits over
        # the positive box, a narrower domain than ``verify_equivalence``'s
        # adversarial battery: a rule it admits is re-checked by that
        # battery on every kernel the rule cache rewrites.  Pass a
        # strict-policy auditor for a fleet-shared catalog.
        self.auditor = auditor if auditor is not None else RuleAuditor(POSITIVE_POLICY)
        self.audit_rejections: list[AuditReport] = []
        self.rules: list[MinedRule] = []
        for rule in rules:
            self.absorb_rule(rule)
        #: Patterns (:func:`batch_key`) a *completed* search could not
        #: improve.  As deterministic as a mined rule, so it lives as long as
        #: ``rules`` does; a failed or degraded search never lands here.
        self.exhausted: set[str] = set()
        # Failure verdicts (pattern -> (status, error)) of the module run in
        # progress, None outside one.  On the instance because callers wrap
        # ``optimize_kernel_guarded`` from outside with its two-argument
        # signature; the ladder itself only sees the dict it is handed.
        self._run_failed: dict[str, tuple[str, str | None]] | None = None
        self.cache = as_cache(cache)

    # -- outcomes --------------------------------------------------------------

    def unchanged_outcome(
        self, spec: KernelSpec, program: Program | None = None
    ) -> KernelOutcome:
        """The identity outcome for ``spec`` (``program``: it, already parsed)."""
        if program is None:
            program = spec.parse()
        original_cost = self.cost_model.program_cost(program.node)
        original_source = to_source(
            program.node, name=spec.name, input_names=program.input_names
        )
        return KernelOutcome(
            name=spec.name,
            improved=False,
            via="unchanged",
            original_source=original_source,
            optimized_source=original_source,
            original_cost=original_cost,
            optimized_cost=original_cost,
        )

    def failed_outcome(
        self, spec: KernelSpec, status: str, error: str | None
    ) -> KernelOutcome:
        """Pass-through outcome for a kernel that could not be optimized.

        Never raises — even a kernel whose source cannot be parsed gets a
        structured outcome, so one bad kernel cannot sink a module run.
        """
        try:
            outcome = self.unchanged_outcome(spec)
        except Exception:
            outcome = KernelOutcome(
                name=spec.name,
                improved=False,
                via="unchanged",
                original_source=spec.source,
                optimized_source=spec.source,
                original_cost=0.0,
                optimized_cost=0.0,
            )
        outcome.status = status
        outcome.error = error
        return outcome

    # -- the resolution ladder -------------------------------------------------

    def readmit(
        self, spec: KernelSpec, outcome: KernelOutcome | None
    ) -> KernelOutcome | None:
        """Trust an outcome somebody recorded for ``spec`` (a journal line or
        a request-log result); None means do it again.

        An unimproved outcome is taken as is, and a completed (``ok``) one
        re-records its pattern verdict.  An improved one is cheaply
        re-verified first (deterministic adversarial + random numeric trials,
        no solver, no symbolic pass) — one that no longer verifies is
        discarded, so restoring never weakens soundness — and a synthesized
        one re-mines its rule (rule-cache hits never mined one), so whoever
        restores sees the rule cache an uninterrupted run would have built.
        """
        if outcome is None:
            return None
        if not outcome.improved:
            if outcome.status == "ok":
                self.exhausted.add(batch_key(spec, self.config))
            return outcome
        if self._reverify_restored(spec, outcome) is None:
            return None
        # A restart must not know more (or less) than the run it continues.
        try:
            rule = synthesized_rule(spec, outcome)
        except StensoError:
            return None
        self._learn(rule)
        return outcome

    def resolve(
        self, spec: KernelSpec, failed: Mapping[str, tuple] | None = None
    ) -> KernelOutcome | None:
        """Everything short of a search; None means the kernel needs one.

        The rule cache first, then the verdict ``spec``'s pattern already
        got: a representative that failed or degraded in this run (``failed``)
        shares its fate with its duplicates instead of making each re-pay the
        same timeout or crash, and a pattern a completed search could not
        improve stays unchanged — rerunning the search cannot change that.
        Never raises: a kernel that cannot even be parsed resolves to a
        structured ``error`` outcome.
        """
        try:
            cached = self.try_rule_cache(spec)
            if cached is not None:
                return cached
            key = batch_key(spec, self.config)
            if failed and key in failed:
                status, error = failed[key]
                return self.failed_outcome(
                    spec, status, error or "pattern representative failed"
                )
            if key in self.exhausted:
                return self.unchanged_outcome(spec)
        except Exception as exc:  # noqa: BLE001 — classify, don't crash
            return self.failed_outcome(spec, "error", f"{type(exc).__name__}: {exc}")
        return None

    def settle(
        self,
        spec: KernelSpec,
        kind: str,
        payload,
        failed: dict[str, tuple] | None = None,
    ) -> KernelOutcome:
        """What a finished attempt means, in a pool event's vocabulary.

        ``ok`` carries ``(outcome, mined rules)``: the rules are absorbed.
        ``error`` / ``timeout`` / ``crashed`` carry a message and become the
        structured pass-through outcome (a crash is an ``error``).  Either
        way the pattern gets its verdict — a completed unimproved search for
        as long as this optimizer lives, anything else unimproved in
        ``failed`` only, which belongs to one module run: a transient crash
        must not poison a pattern for a daemon's lifetime, so it hands none.
        """
        if kind == "ok":
            outcome, rules = payload
            for rule in rules:
                self.absorb_rule(rule)
        else:
            outcome = self.failed_outcome(
                spec, "error" if kind == "crashed" else kind, payload
            )
        if outcome.improved:
            return outcome
        if outcome.status == "ok":
            self.exhausted.add(batch_key(spec, self.config))
        elif failed is not None:
            # Not proven unimprovable, but duplicates share the fate.
            verdict = (outcome.status, outcome.error)
            failed.setdefault(batch_key(spec, self.config), verdict)
        return outcome

    def try_rule_cache(self, spec: KernelSpec) -> KernelOutcome | None:
        """Apply the mined-rule cache; None when no rule improves the kernel."""
        if not self.rules:
            return None
        program = spec.parse()
        original_cost = self.cost_model.program_cost(program.node)
        best, _stats = optimize_with_rules(program.node, self.rules, self.cost_model)
        best_cost = self.cost_model.program_cost(best)
        if self.cost_model.improves(best_cost, original_cost) and verify_candidate(
            program, best, self.config
        ):
            return KernelOutcome(
                name=spec.name,
                improved=True,
                via="rule-cache",
                original_source=to_source(
                    program.node, name=spec.name, input_names=program.input_names
                ),
                optimized_source=to_source(
                    best, name=spec.name, input_names=program.input_names
                ),
                original_cost=original_cost,
                optimized_cost=best_cost,
            )
        return None

    # -- single kernel ---------------------------------------------------------

    def optimize_kernel_guarded(
        self, spec: KernelSpec, timeout_s: float | None = None
    ) -> KernelOutcome:
        """Like :meth:`optimize_kernel`, but an exception is an ``error``
        attempt — settled into a structured outcome, not raised (the
        service-facing entry point used by module runs)."""
        try:
            return self.optimize_kernel(spec, timeout_s=timeout_s)
        except Exception as exc:  # noqa: BLE001 — one kernel must not sink a module
            return self.settle(
                spec, "error", f"{type(exc).__name__}: {exc}", self._run_failed
            )

    def optimize_kernel(
        self, spec: KernelSpec, timeout_s: float | None = None
    ) -> KernelOutcome:
        """The whole ladder for one kernel, searching in this process."""
        return self.resolve(spec, self._run_failed) or self.settle(
            spec, "ok", (self.search(spec, timeout_s), ()), self._run_failed
        )

    def search(self, spec: KernelSpec, timeout_s: float | None = None) -> KernelOutcome:
        """Full synthesis (at shrunken shapes, transported back — exactly the
        public ``superoptimize_source`` flow); a discovery is mined into
        ``self.rules`` before the outcome's metrics are snapshotted."""
        config = self.config
        if timeout_s is not None:
            config = config.replace(
                timeout_seconds=min(timeout_s, config.timeout_seconds)
            )
        program = spec.parse()
        outcome = self.unchanged_outcome(spec, program)
        result = superoptimize_source(
            spec.source,
            spec.types,
            cost_model=self.cost_model,
            config=config,
            name=spec.name,
            cache=self.cache,
        )
        outcome.synthesis_seconds = result.synthesis_seconds
        outcome.status = "degraded" if result.stats.timed_out else "ok"
        if result.improved:
            # What ships is the printed program, priced as printed: the
            # search's running total can sit a rounding error below it.
            source = to_source(
                result.optimized, name=spec.name, input_names=program.input_names
            )
            cost = self.cost_model.program_cost(
                parse(source, program.input_types, name=spec.name).node
            )
            if self.cost_model.improves(cost, outcome.original_cost):
                outcome.improved, outcome.via = True, "synthesis"
                outcome.optimized_source, outcome.optimized_cost = source, cost
                # Learn before snapshotting so the audit verdict counter
                # lands in this kernel's metrics.
                self._learn(
                    _mine(result.program.node, result.optimized, spec.name),
                    stats=result.stats,
                )
        outcome.metrics = result.stats.metrics_snapshot()
        return outcome

    def _learn(self, rule: MinedRule | None, stats=None) -> None:
        if rule is None:
            return
        verdict = self.absorb_rule(rule)
        if stats is not None and verdict != "duplicate":
            stats.metrics.counter(f"analysis.audit_{verdict}").inc()

    def _reverify_restored(self, spec: KernelSpec, outcome: KernelOutcome):
        """Cheap, sound re-verification of a recorded improved program: the
        parsed ``(program, optimized node)`` when it still holds, else None."""
        from repro.verify import verify_equivalence

        try:
            program = spec.parse()
            candidate = parse(
                outcome.optimized_source, dict(program.input_types), name=spec.name
            ).node
        except Exception:
            return None
        report = verify_equivalence(
            program, candidate, symbolic=False, shape_transport=False
        )
        return (program, candidate) if report.passed else None

    def absorb_rule(self, rule: MinedRule) -> str:
        """Audit a mined rule and add it to the cache if it is sound.

        Returns ``"admitted"``, ``"duplicate"``, or ``"rejected"``.  A
        rejected rule's structured :class:`AuditReport` is appended to
        ``self.audit_rejections`` — unsound rules never reach
        ``self.rules`` and therefore never feed e-graph saturation.
        """
        if any(str(rule) == str(existing) for existing in self.rules):
            return "duplicate"
        admitted, report = self.auditor.admit(rule)
        if not admitted:
            self.audit_rejections.append(report)
            log.warning(
                "rule audit rejected",
                rule=rule.name,
                errors="; ".join(f.code for f in report.errors),
            )
            return "rejected"
        self.rules.append(rule)
        return "admitted"

    # -- whole module --------------------------------------------------------------

    def optimize_module(
        self,
        kernels: Sequence[KernelSpec],
        parallel: int = 1,
        timeout_s: float | None = None,
        policy=None,
        journal=None,
    ) -> ModuleResult:
        """Optimize every kernel; ``parallel > 1`` fans out across processes.

        ``timeout_s`` (default: ``config.timeout_seconds``) is a per-kernel
        deadline: a kernel that exhausts it is reported with
        ``status='degraded'``/``'timeout'`` and the rest of the module still
        optimizes.  Both paths climb the same ladder — restore
        (:meth:`readmit`), :meth:`resolve`, search, :meth:`settle` — and give
        the same outcomes; they differ in scheduling only: a ``for`` loop
        here, waves over a worker pool in :func:`repro.parallel.run_waves`,
        which adds hard kills for hung workers and crash retry (tuned by
        ``policy``, a :class:`repro.resilience.ResiliencePolicy`).

        ``journal`` (a :class:`repro.journal.RunJournal`) makes the run
        durable and resumable: every completed outcome is appended to the
        journal the moment it exists, kernels already journaled by a prior
        (interrupted) run are restored without synthesis, and SIGINT/SIGTERM
        stop dispatching gracefully — completed work is flushed, the journal
        is marked ``interrupted``, and the partial :class:`ModuleResult`
        comes back with ``interrupted=True``.
        """
        from contextlib import nullcontext

        from repro.resilience import InterruptGuard

        guard = InterruptGuard() if journal is not None else nullcontext()
        self._run_failed = {}
        try:
            with guard as stop:
                if parallel > 1 and len(kernels) > 1:
                    from repro.parallel import run_waves

                    outcomes = run_waves(
                        self, kernels, parallel, timeout_s, policy, journal,
                        stop, self._run_failed,
                    )
                else:
                    outcomes = self._run_loop(kernels, timeout_s, journal, stop)
        finally:
            self._run_failed = None
        if self.cache is not None:
            self.cache.save()
        # A run only comes back short when a stop request cut it.
        interrupted = len(outcomes) < len(kernels)
        result = ModuleResult(
            outcomes=outcomes, rules=list(self.rules), interrupted=interrupted
        )
        if journal is not None:
            journal.mark(
                "interrupted" if interrupted else "completed",
                metrics=result.metrics_rollup(),
            )
        return result

    def _run_loop(
        self, kernels: Sequence[KernelSpec], timeout_s: float | None, journal, stop
    ) -> list[KernelOutcome]:
        """The sequential scheduler: kernels in order, one at a time."""
        from repro.obs.trace import get_tracer

        tracer = get_tracer()
        outcomes: list[KernelOutcome] = []
        for spec in kernels:
            if stop is not None and stop.requested():
                break
            outcome = None
            if journal is not None:
                outcome = self.readmit(spec, journal.restore(spec))
            if outcome is None:
                kernel_span = (
                    tracer.begin("kernel", "pipeline", kernel=spec.name)
                    if tracer.enabled
                    else None
                )
                outcome = self.optimize_kernel_guarded(spec, timeout_s=timeout_s)
                if kernel_span is not None:
                    tracer.end(kernel_span, via=outcome.via, status=outcome.status)
                if journal is not None:
                    journal.record_outcome(spec, outcome)
            outcomes.append(outcome)
        return outcomes
