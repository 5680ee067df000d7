"""The STENSO driver (paper Algorithm 1) and its public result type.

``superoptimize_program`` runs the full pipeline on a parsed program:

1. estimate the input program's cost (the initial branch-and-bound bound);
2. symbolically execute it into the target specification Φ;
3. enumerate stubs toward Φ (Section IV-B): once Φ's class is in, the last
   level skips what cannot beat its champion; sketches are derived as SOLVE
   reads them;
4. run the DFS of Algorithm 2;
5. verify the winning candidate numerically and symbolically, and return the
   original program unless a strictly cheaper verified candidate was found.

``superoptimize_source`` is the string-level convenience wrapper used by the
public API and the CLI.  It synthesizes at *shrunken* shapes (tractable for
SymPy) and re-verifies the result at the original shapes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

from repro.cost import CostModel, make_cost_model, with_caching
from repro.cost.cached import CachingCostModel
from repro.errors import StensoError, SynthesisTimeout
from repro.ir.nodes import Node
from repro.ir.parser import Program, parse
from repro.ir.printer import to_expression, to_source
from repro.ir.types import TensorType, shrink_shape
from repro.obs.metrics import PROCESS_COUNTERS
from repro.obs.trace import get_tracer
from repro.resilience import Budget, inject
from repro.symexec.canonical import canonical
from repro.symexec.engine import symbolic_execute
from repro.symexec.interning import TABLE as _INTERN
from repro.synth.cache import PersistentCache, as_cache, synthesis_fingerprint
from repro.synth.complexity import spec_complexity
from repro.synth.config import DEFAULT_CONFIG, SynthesisConfig
from repro.synth.library import build_library
from repro.synth.search import SearchContext, SearchStats, dfs
from repro.verify import has_shape_attrs, verify_equivalence


@dataclass
class SynthesisResult:
    """Outcome of one superoptimization run."""

    program: Program
    optimized: Node
    improved: bool
    original_cost: float
    optimized_cost: float
    verified: bool
    stats: SearchStats
    synthesis_seconds: float

    @property
    def optimized_source(self) -> str:
        return to_source(self.optimized, name=self.program.name, input_names=self.program.input_names)

    @property
    def speedup_estimate(self) -> float:
        """Cost-model speedup estimate (original / optimized)."""
        if self.optimized_cost <= 0:
            return 1.0
        return self.original_cost / self.optimized_cost

    @property
    def status(self) -> str:
        """``'ok'`` for a completed search, ``'degraded'`` when the time or
        solver-call budget expired and the result is best-effort."""
        return "degraded" if self.stats.timed_out else "ok"

    def summary(self) -> str:
        verdict = "improved" if self.improved else "unchanged"
        degraded = " [degraded: budget exhausted]" if self.status == "degraded" else ""
        return (
            f"{self.program.name}: {verdict}{degraded}; cost {self.original_cost:.3g} -> "
            f"{self.optimized_cost:.3g} (est. {self.speedup_estimate:.2f}x), "
            f"{self.synthesis_seconds:.2f}s, {self.stats.nodes_expanded} nodes"
            f"\n  stages: {self.stats.profile_summary()}"
        )


def verify_candidate(
    program: Program, candidate: Node, config: SynthesisConfig, budget=None
) -> bool:
    """Check candidate == program numerically, then symbolically.

    With a :class:`~repro.resilience.Budget`, an expiry fails the candidate
    (safe direction: an unverified program is never emitted).
    """
    inject("verify", key=program.name, config=config)
    return verify_equivalence(
        program, candidate, shape_transport=False, budget=budget
    ).passed


def _process_counts() -> dict[str, int]:
    """The process counter bag, with the intern table's tallies sampled in."""
    return {
        **PROCESS_COUNTERS,
        "equiv.intern_hits": _INTERN.hits,
        "equiv.intern_misses": _INTERN.misses,
    }


def superoptimize_program(
    program: Program,
    cost_model: CostModel | str = "flops",
    config: SynthesisConfig | None = None,
    cache: "PersistentCache | str | None" = None,
    budget: "Budget | None" = None,
) -> SynthesisResult:
    """Run Algorithm 1 on a parsed program.

    ``cache`` (a :class:`PersistentCache` or a directory path) reuses solver
    outcomes, stub libraries, and program costs across runs.  The caller owns
    persistence: mutate-in-memory here, ``cache.save()`` when convenient.

    ``budget`` (defaults to one derived from the config's ``timeout_seconds``
    and ``max_solver_calls``) bounds the whole run — enumeration, search, and
    verification share it, and on expiry the best verified program found so
    far is returned with ``status == 'degraded'``.
    """
    config = config or DEFAULT_CONFIG
    if isinstance(cost_model, str):
        cost_model = make_cost_model(cost_model)
    cache = as_cache(cache)
    fingerprint = synthesis_fingerprint(config, cost_model) if cache is not None else ""
    cost_model = with_caching(cost_model, cache, fingerprint)
    budget = budget if budget is not None else Budget.for_config(config)
    counts_base = _process_counts()
    tracer = get_tracer()
    start = time.monotonic()

    cost_min = cost_model.program_cost(program.node)  # line 2
    spec = symbolic_execute(program.node).map(canonical)  # line 3
    # The enumeration stage is line 4 alone, not the spec before it (which
    # also pays SymPy's lazy imports on a process's first kernel).
    enum_start = time.monotonic()
    library = build_library(  # line 4, toward Φ
        program, config, cost_model, cache=cache, fingerprint=fingerprint,
        budget=budget, goal=spec,
    )
    enum_elapsed = time.monotonic() - enum_start
    if tracer.enabled:
        tracer.complete(
            "enumerate", "enum",
            start=enum_start, duration=enum_elapsed,
            kernel=program.name,
            stubs=library.stub_count, sketches=library.sketch_count,
            cached=library.from_cache,
        )
    score = spec_complexity(spec, config.complexity_mode)  # line 5

    ctx = SearchContext(
        library, cost_model, config, cost_min, cache=cache, fingerprint=fingerprint,
        budget=budget, scope=program.name, tracer=tracer,
    )
    ctx.stats.time_enumeration = enum_elapsed
    ctx.stats.library_cache_hit = library.from_cache
    search_span = (
        tracer.begin("search", "search", kernel=program.name) if tracer.enabled else None
    )
    try:
        result, result_cost = dfs(spec, score, 0, 0.0, ctx)  # line 6
    except SynthesisTimeout:
        result, result_cost = None, float("inf")
    if search_span is not None:
        tracer.end(
            search_span,
            nodes=ctx.stats.nodes_expanded,
            timed_out=ctx.stats.timed_out,
        )
    elapsed = time.monotonic() - start
    ctx.stats.elapsed_seconds = elapsed
    # Sketches exist only as far as the SOLVEs read them: known only now.
    ctx.stats.sketch_count = library.sketch_count
    ctx.stats.time_sketches = library.derive_seconds
    ctx.close()

    # Line 7, with the model's noise floor: a measured model only declares
    # victory when the candidate beats the original by more than its margin.
    improved = result is not None and cost_model.improves(result_cost, cost_min)
    verified = False
    if improved:
        assert result is not None
        verify_start = time.monotonic()
        verified = verify_candidate(program, result, config, budget=budget)
        verify_elapsed = time.monotonic() - verify_start
        ctx.stats.time_verification += verify_elapsed
        if tracer.enabled:
            tracer.complete(
                "verify", "verify",
                start=verify_start, duration=verify_elapsed,
                kernel=program.name, verified=verified,
            )
        improved = verified
    if isinstance(cost_model, CachingCostModel):
        ctx.stats.cost_cache_hits = cost_model.hits
    for name, count in _process_counts().items():
        delta = count - counts_base.get(name, 0)
        if delta:
            ctx.stats.metrics.counter(name).inc(delta)
    if not improved:
        result, result_cost = program.node, cost_min  # line 10

    assert result is not None
    return SynthesisResult(
        program=program,
        optimized=result,
        improved=improved,
        original_cost=cost_min,
        optimized_cost=result_cost if improved else cost_min,
        verified=verified or not improved,
        stats=ctx.stats,
        synthesis_seconds=elapsed,
    )


def _as_type(value) -> TensorType:
    """Accept either a TensorType or a bare shape tuple (float assumed)."""
    from repro.ir.types import DType

    if isinstance(value, TensorType):
        return value
    return TensorType(DType.FLOAT, tuple(value))


def synthesis_types(
    source: str,
    types: Mapping[str, TensorType],
    shrink: int | None = 3,
    name: str = "program",
) -> Program:
    """The program as synthesis sees it: parsed at shrunken input types when
    it parses there, else at ``types``; its ``input_types`` are the types used.

    Shared between :func:`superoptimize_source` and the parallel batch
    driver's deduplication key, so both see the same normalized problem.
    Raises :class:`StensoError` when the source does not parse at ``types``.
    """
    if shrink is not None:
        candidate_types = {
            n: t.with_shape(shrink_shape(t.shape, shrink)) for n, t in types.items()
        }
        try:
            return parse(source, candidate_types, name=name)
        except StensoError:
            pass  # literal shape attrs forbid shrinking
    return parse(source, types, name=name)


def superoptimize_source(
    source: str,
    inputs: Mapping[str, TensorType | tuple[int, ...]],
    cost_model: CostModel | str = "flops",
    config: SynthesisConfig | None = None,
    name: str = "program",
    shrink: int | None = 3,
    cache: "PersistentCache | str | None" = None,
    program: Program | None = None,
) -> SynthesisResult:
    """Superoptimize NumPy source, synthesizing at shrunken shapes.

    ``shrink`` caps every tensor dimension during synthesis (None disables).
    The synthesized program is rejected unless it verifies at the *original*
    shapes too, guarding against rewrites only valid at the shrunken sizes.
    ``program`` is the source as parsed at ``inputs``, where the caller has
    it; it is parsed here otherwise.
    """
    config = config or DEFAULT_CONFIG
    types = {n: _as_type(t) for n, t in inputs.items()}
    synth_program = synthesis_types(source, types, shrink, name=name)
    result = superoptimize_program(
        synth_program, cost_model=cost_model, config=config, cache=cache
    )

    # Shrunken where the program's own inputs are: an entry of ``inputs``
    # that no parameter reads shrinks nothing the search saw.
    shrunk = any(t != types[n] for n, t in synth_program.input_types.items())
    if result.improved and shrunk:
        # Re-verify at original shapes; programs with embedded (shrunken)
        # shape attributes cannot be transported and are rejected outright.
        full_program = program or parse(source, types, name=name)
        try:
            candidate = parse(to_expression(result.optimized), types).node
        except StensoError:
            candidate = None
        if (
            candidate is None
            or has_shape_attrs(candidate)
            or not verify_equivalence(
                full_program, candidate, symbolic=False, shape_transport=False
            ).passed
        ):
            return _fallback_to_original(result, full_program)
    return result


def _fallback_to_original(result: SynthesisResult, program: Program) -> SynthesisResult:
    return SynthesisResult(
        program=program,
        optimized=program.node,
        improved=False,
        original_cost=result.original_cost,
        optimized_cost=result.original_cost,
        verified=True,
        stats=result.stats,
        synthesis_seconds=result.synthesis_seconds,
    )
