"""Top-down synthesis search with branch-and-bound (paper Algorithm 2).

The DFS starts from the symbolic specification of the input program.  At each
node it first tries the base case — an exact canonical-key match against the
stub library — then decomposes the spec through sketches returned by the
symbolic algebra solver, keeping only sketches that *simplify* the spec
(Section V-A) and whose accumulated cost stays below the best complete
program found so far (Section V-B).  SOLVE derives the hole specs, PRUNE
decides on them, and only a survivor's decomposition is proved: a pruned
sketch is dropped either way, so the proof cannot reach the result.
``cost_min`` is shared across the whole search, mirroring the paper's
pass-by-reference bound.

Observability (:mod:`repro.obs`): every node expansion opens a ``dfs`` span
on the active tracer, prunes emit instant events carrying their reason and
the spec complexity, and :class:`SearchStats` keeps its counts in a
:class:`~repro.obs.metrics.MetricsRegistry` (prune-reason counters, DFS
depth histogram, solver-latency histogram, cache counters).  With the
default :data:`~repro.obs.trace.NULL_TRACER` all instrumentation reduces to
an attribute load and a branch per site.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import islice

from repro.analysis import prescreen as _prescreen
from repro.errors import SynthesisTimeout
from repro.cost.base import CostModel
from repro.obs.metrics import DEPTH_BUCKETS, LATENCY_BUCKETS_S, MetricsRegistry, bump
from repro.obs.trace import get_tracer
from repro.resilience import Budget
from repro.ir.nodes import Node
from repro.ir.types import TensorType
from repro.symexec.canonical import canonical_key, equivalent
from repro.symexec.residues import residue_key, tensor_residues
from repro.symexec.symtensor import SymTensor
from repro.synth.cache import MISS, solver_key
from repro.synth.complexity import exact_floor, prune_floor, prune_verdict
from repro.synth.config import SynthesisConfig
from repro.synth.library import Library, retype_sketch
from repro.synth.sketch import Sketch
from repro.synth.solver import Pruned, SketchSolver

_INF = float("inf")

#: Sketches explored per DFS node after cost-sorting.  A safety valve, not the
#: limiter: branch-and-bound stops once sketch skeletons alone exceed the bound.
MAX_CANDIDATES_PER_NODE = 1024


def _counter_view(name: str) -> property:
    """A read-only flat counter of :class:`SearchStats`: ``metrics`` holds it."""
    return property(lambda self: self.metrics.count(name))


@dataclass
class SearchStats:
    """Counters describing one synthesis run (drives Fig. 5).

    ``solver_calls`` counts *actual* ``solve_all`` invocations; queries
    answered by the persistent cache count into ``solver_cache_hits``
    instead, and queries PRUNE's floor turned down before any derivation
    into ``solver_floor_pruned`` — the three add up to the queries asked.
    ``solver_hits`` counts the answers that were not "unsolvable": derived
    hole specs, verified or pruned, and floor prunes, computed or restored.
    The ``time_*`` fields are the stage-level profiler: wall-time
    spent building the stub library, deriving its sketches (at the first
    SOLVE; zero for a search that ends at MATCH), solving sketches, matching
    base cases, and verifying the final candidate.  ``sketch_count`` is the
    number of sketches derived, filled in with ``time_sketches`` when the
    search ends.

    ``metrics``, a :class:`~repro.obs.metrics.MetricsRegistry` whose snapshot
    travels with the kernel outcome into the run journal and
    ``ModuleResult.summary()``, is the one place a count is kept: the
    ``record_*`` helpers write it, and the nine flat counters existing
    consumers read (``nodes_expanded`` … ``max_depth_reached``) are
    read-only views of it that :meth:`as_dict` still emits under their
    names.  Timers and flags are plain fields.  The ``equiv.*`` /
    ``analysis.*`` process counters have no flat name:
    ``superoptimize_program`` credits them to ``metrics`` directly.
    """

    stub_count: int = 0
    sketch_count: int = 0
    elapsed_seconds: float = 0.0
    timed_out: bool = False
    # -- stage-level profiler -------------------------------------------------
    time_enumeration: float = 0.0
    time_sketches: float = 0.0
    time_solver: float = 0.0
    time_base_match: float = 0.0
    time_verification: float = 0.0
    # -- persistent-cache counters --------------------------------------------
    cost_cache_hits: int = 0
    library_cache_hit: bool = False
    # -- typed metrics registry ------------------------------------------------
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry, repr=False)

    nodes_expanded = _counter_view("search.nodes_expanded")
    solver_calls = _counter_view("solver.calls")
    solver_hits = _counter_view("solver.hits")
    pruned_simplification = _counter_view("search.prune.simplification")
    pruned_bound = _counter_view("search.prune.bound")
    base_case_matches = _counter_view("search.base_case_matches")
    memo_hits = _counter_view("search.memo_hits")
    solver_cache_hits = _counter_view("solver.cache_hits")
    solver_floor_pruned = _counter_view("solver.floor_pruned")

    @property
    def max_depth_reached(self) -> int:
        depths = self.metrics._histograms.get("search.depth")
        return (depths.max or 0) if depths is not None else 0

    def as_dict(self) -> dict:
        views = {
            name: getattr(self, name)
            for name, attr in vars(SearchStats).items()
            if isinstance(attr, property)
        }
        # JSON-native: the registry's snapshot, not the registry.
        return {**views, **self.__dict__, "metrics": self.metrics.snapshot()}

    # -- recording helpers -----------------------------------------------------

    def record_expand(self, depth: int) -> None:
        self.metrics.counter("search.nodes_expanded").inc()
        self.metrics.histogram("search.depth", DEPTH_BUCKETS).observe(depth)

    def record_prune(self, reason: str) -> None:
        self.metrics.counter(f"search.prune.{reason}").inc()

    def record_memo_hit(self) -> None:
        self.metrics.counter("search.memo_hits").inc()

    def record_base_match(self) -> None:
        self.metrics.counter("search.base_case_matches").inc()

    def record_solver_call(self, seconds: float) -> None:
        self.time_solver += seconds
        self.metrics.counter("solver.calls").inc()
        self.metrics.histogram("solver.latency_s", LATENCY_BUCKETS_S).observe(seconds)

    def record_solver_cache_hit(self) -> None:
        self.metrics.counter("solver.cache_hits").inc()

    def record_floor_prune(self, op: str) -> None:
        self.metrics.counter("solver.floor_pruned").inc()
        self.metrics.counter(f"solver.floor_pruned.{op}").inc()

    def record_pruned_before_cancel(self, op: str) -> None:
        self.metrics.counter("solver.pruned_before_cancel").inc()
        self.metrics.counter(f"solver.pruned_before_cancel.{op}").inc()

    def record_solver_outcome(self, outcome) -> None:
        """Credit one SOLVE answer, computed, floor-pruned or restored alike.

        A hit is any answer but "unsolvable": verified hole specs, derived
        ones PRUNE turned down, and a floor prune (nothing derived — the
        floor only prunes where the derived hole specs would have been
        pruned or would not have existed).  ``solver.verified`` counts the
        decompositions that were also proved, which are the ones the search
        recurses into.  Crediting restored answers keeps both invariant
        under cache state, so warm and cold runs of the same batch report
        identical counters.
        """
        if outcome is None:
            return
        self.metrics.counter("solver.hits").inc()
        if not isinstance(outcome, Pruned):
            self.metrics.counter("solver.verified").inc()

    def metrics_snapshot(self) -> dict:
        """Registry snapshot with derived cache-hit-ratio gauges refreshed."""
        solver_total = self.solver_calls + self.solver_cache_hits + self.solver_floor_pruned
        if solver_total:
            self.metrics.gauge("solver.cache_hit_ratio").set(
                round(self.solver_cache_hits / solver_total, 6)
            )
        if self.nodes_expanded or self.memo_hits:
            self.metrics.gauge("search.memo_hit_ratio").set(
                round(self.memo_hits / (self.nodes_expanded + self.memo_hits), 6)
            )
        if self.cost_cache_hits:
            self.metrics.counter("cost.cache_hits").value = self.cost_cache_hits
        return self.metrics.snapshot()

    def profile_summary(self) -> str:
        """One-line stage breakdown with every cache counter surfaced."""
        cached = (
            f", {self.solver_cache_hits} cached" if self.solver_cache_hits else ""
        )
        if self.solver_floor_pruned:
            cached += f", {self.solver_floor_pruned} floor-pruned"
        lib = " [lib cache]" if self.library_cache_hit else ""
        memo = f", {self.memo_hits} memo" if self.memo_hits else ""
        cost = f" | cost cache {self.cost_cache_hits} hits" if self.cost_cache_hits else ""
        return (
            f"enum {self.time_enumeration:.2f}s{lib} | "
            f"sketches {self.time_sketches:.2f}s | "
            f"solver {self.time_solver:.2f}s ({self.solver_calls} calls{cached}) | "
            f"match {self.time_base_match:.2f}s ({self.base_case_matches} hits{memo}) | "
            f"verify {self.time_verification:.2f}s{cost}"
        )


class SearchContext:
    """Mutable state threaded through the recursive search."""

    def __init__(
        self,
        library: Library,
        cost_model: CostModel,
        config: SynthesisConfig,
        cost_min: float,
        cache=None,
        fingerprint: str = "",
        budget: Budget | None = None,
        scope: str = "",
        tracer=None,
    ) -> None:
        self.library = library
        self.cost_model = cost_model
        self.config = config
        self.cost_min = cost_min  # pass-by-reference bound of Algorithm 2
        self.scope = scope  # kernel name, used to scope injected faults
        self.tracer = tracer if tracer is not None else get_tracer()
        self.solver = SketchSolver(config, scope=scope, tracer=self.tracer)
        self.cache = cache  # PersistentCache | None
        self.fingerprint = fingerprint
        self.stats = SearchStats(stub_count=library.stub_count)
        self.budget = budget if budget is not None else Budget.for_config(config)
        self.memo: dict[tuple, tuple[Node | None, float]] = {}
        self._retyped: dict[TensorType, list[Sketch]] = {}
        self._pools: dict[tuple[TensorType, frozenset[str]], list[Sketch]] = {}
        self._stubs_by_cost: dict[tuple, list] = {}
        # Per-search input-name cache of sketch and stub trees (previously a
        # module-level global that grew without bound across runs in a
        # long-lived process).
        self._node_inputs: dict[Node, frozenset[str]] = {}

    def check_time(self) -> None:
        try:
            self.budget.check()
        except SynthesisTimeout:
            self.stats.timed_out = True
            raise

    # -- solver with persistent caching -----------------------------------------

    def solve_all(self, sketch: Sketch, spec: SymTensor, spec_key: tuple, score: float):
        """SOLVE and PRUNE (lines 11-12), the persistent cache in front.

        Returns None (unsolvable), a :class:`Pruned` (the mean hole
        complexity does not drop below ``score``), or the verified hole
        specs with their complexities.  After a cache miss PRUNE's floor is
        asked first: if it already reaches ``score`` nothing is derived.
        Otherwise the solver asks the exact floor on the hole specs it derived
        before ``cancel`` normalizes them, runs PRUNE on the normalized ones, and
        proves the decomposition only if they survive; restored hole specs
        were proved when they were stored, and PRUNE decides on them here.
        """
        hole_scores: list[float] = []
        mode = self.config.complexity_mode

        def prune(hole_specs) -> Pruned | None:
            scores, verdict = prune_verdict(hole_specs, score, mode)
            hole_scores[:] = scores
            return verdict

        def prune_before_cancel(hole_specs) -> Pruned | None:
            bound = exact_floor(hole_specs, mode)
            return Pruned(bound, before_cancel=True) if bound >= score else None

        cache_key = None
        out = MISS
        if self.cache is not None:
            cache_key = solver_key(self.fingerprint, sketch, spec_key)
            out = self.cache.solver_get(cache_key, score)
        if out is not MISS:
            self.stats.record_solver_cache_hit()
            if out is not None and not isinstance(out, Pruned):
                out = prune(out) or out
            if self.tracer.enabled:
                self.tracer.instant(
                    "solver-cache-hit", "solver",
                    op=_sketch_op(sketch), outcome=_outcome_name(out),
                )
        elif (pruned := self._floor_prune(sketch, spec, score)) is not None:
            out = pruned
            if cache_key is not None:
                self.cache.solver_put(cache_key, out)
        else:
            try:
                self.budget.charge_solver()
            except SynthesisTimeout:
                self.stats.timed_out = True
                raise
            start = time.monotonic()
            out = self.solver.solve_all(sketch, spec, prune, prune_before_cancel)
            elapsed = time.monotonic() - start
            self.stats.record_solver_call(elapsed)
            if isinstance(out, Pruned) and out.before_cancel:
                self.stats.record_pruned_before_cancel(_sketch_op(sketch))
            if self.tracer.enabled:
                self.tracer.complete(
                    "solve",
                    "solver",
                    start=start,
                    duration=elapsed,
                    op=_sketch_op(sketch),
                    outcome=_outcome_name(out),
                )
            if cache_key is not None:
                self.cache.solver_put(cache_key, out)
        self.stats.record_solver_outcome(out)
        if out is None or isinstance(out, Pruned):
            return out
        return out, hole_scores

    def _floor_prune(self, sketch: Sketch, spec: SymTensor, score: float) -> Pruned | None:
        """``Pruned(floor)`` if PRUNE's floor already reaches ``score``.

        Free like a cache hit: no solver call is charged or counted.
        """
        start = time.monotonic() if self.tracer.enabled else 0.0
        floor = prune_floor(sketch, spec, self.solver.value, self.config.complexity_mode)
        if floor is None or floor < score:
            return None
        self.stats.record_floor_prune(_sketch_op(sketch))
        if self.tracer.enabled:
            self.tracer.complete(
                "solver-floor", "solver",
                start=start,
                duration=time.monotonic() - start,
                op=_sketch_op(sketch),
                outcome="pruned",
                floor=round(floor, 4),
            )
        return Pruned(floor, from_floor=True)

    # -- candidate sketch pool ---------------------------------------------------

    def sketch_pool(self, spec: SymTensor) -> list[Sketch]:
        spec_type = TensorType(spec.dtype, spec.shape)
        names = spec.input_names()
        pool = self._pools.get((spec_type, names))
        if pool is None:
            pool = list(self.library.sketches_for(spec_type))
            pool.extend(self._retyped_pool(spec_type))
            pool = [
                sk for sk in pool if self._input_names(sk.root) <= names or not names
            ]
            pool.sort(key=lambda s: (s.cost, s.root.num_nodes))
            pool = pool[:MAX_CANDIDATES_PER_NODE]
            self._pools[(spec_type, names)] = pool
        return pool

    def stubs_by_cost(self, shape: tuple[int, ...], dtype) -> list:
        """Same-signature stubs, cheapest first (stable): MATCH's scan order."""
        ranked = self._stubs_by_cost.get((shape, dtype))
        if ranked is None:
            ranked = sorted(
                self.library.stubs_with_signature(shape, dtype),
                key=lambda e: self.cost_model.program_cost(e.node),
            )
            self._stubs_by_cost[(shape, dtype)] = ranked
        return ranked

    def _retyped_pool(self, spec_type: TensorType) -> list[Sketch]:
        cached = self._retyped.get(spec_type)
        if cached is not None:
            return cached
        out: list[Sketch] = []
        seen: set[Node] = {sk.root for sk in self.library.sketches_for(spec_type)}
        for sk in self.library.sketches:
            if sk.root.type == spec_type:
                continue
            widened = retype_sketch(sk, spec_type, self.cost_model)
            if widened is not None and widened.root not in seen:
                seen.add(widened.root)
                out.append(widened)
        self._retyped[spec_type] = out
        return out

    def _input_names(self, node: Node) -> frozenset[str]:
        """The names of the program inputs an IR tree (a sketch's or a stub's)
        reads, holes left out: a superset of the names its value mentions."""
        names = self._node_inputs.get(node)
        if names is None:
            from repro.synth.sketch import is_hole

            names = frozenset(i.name for i in node.inputs() if not is_hole(i))
            self._node_inputs[node] = names
        return names

    def same_inputs(self, stubs, names: frozenset[str]):
        """The stubs whose value mentions exactly the inputs ``names``.

        A stub whose IR inputs do not cover ``names`` cannot, so it is
        refuted (``search.match_input_refuted``) without executing it.
        """
        for e in stubs:
            if not names <= self._input_names(e.node):
                self.stats.metrics.counter("search.match_input_refuted").inc()
            elif e.tensor.input_names() == names:
                yield e


def _sketch_op(sketch: Sketch) -> str:
    root = sketch.root
    return getattr(root, "op", type(root).__name__)


def _outcome_name(out) -> str:
    if out is None:
        return "miss"
    return "pruned" if isinstance(out, Pruned) else "hit"


def _constant_spec_node(spec: SymTensor, ctx: SearchContext) -> Node | None:
    """Synthesize a specification that references no program inputs.

    Constant hole specs arise naturally (``5*A`` decomposed through
    ``multiply(??, A)`` leaves a tensor of fives) but cannot be reached by
    the simplification objective — their complexity is already 0.  They are
    constructed directly instead: a scalar :class:`Const` when the entries
    are uniform (broadcasting keeps the filled sketch well-typed and the
    printed program shape-polymorphic), an exact-shape array constant
    otherwise.
    """
    import sympy as sp

    from repro.ir.nodes import Const

    if spec.input_symbols():
        return None
    values = []
    for e in spec.entries():
        try:
            values.append(float(sp.nsimplify(e)))
        except (TypeError, ValueError):
            return None
    if all(v == values[0] for v in values):
        return Const(values[0])
    import numpy as np

    return Const(np.array(values, dtype=float).reshape(spec.shape))


def _match_base_case(spec: SymTensor, key: tuple, ctx: SearchContext):
    """MATCH of Algorithm 2: cheapest stub equivalent to the spec.

    Two keyed tiers first — a residue-battery lookup (rational specs: one
    dict probe against the enumerator's value partition), then a
    canonical-key probe of the battery-weak stubs that share the spec's
    value bucket; the slow scan then only pays ``equivalent`` for stubs that
    neither the battery nor the interval pre-screen refutes.  Both tiers
    only skip work whose outcome they already decide.
    """
    res = tensor_residues(spec)
    entry = None
    if res is not None:
        entry = ctx.library.stubs_by_val.get(residue_key(spec.shape, spec.dtype, res))
    if entry is None:
        # Exact tier: battery-weak stubs dedupe by canonical key; a keyed
        # probe is sound for any spec — key equality is equivalence — and
        # the bucket only says which stubs are worth keying.
        entry = ctx.library.match_weak(spec, key)
    if entry is not None:
        bump("equiv.fingerprint_hits")
        if ctx.tracer.enabled:
            ctx.tracer.instant("fingerprint-hit", "equiv")
        return entry
    # Slow path: canonical keys can differ for semantically equal tensors
    # (e.g. exp/log combinations); try full equivalence against the 24
    # cheapest stubs that agree on signature and referenced inputs.  Cheapest
    # first and lazily: a stub past the 24th, or one whose IR does not read
    # every input the spec mentions, is never symbolically executed.
    by_cost = ctx.stubs_by_cost(spec.shape, spec.dtype)
    candidates = islice(ctx.same_inputs(by_cost, spec.input_names()), 24)
    for e in candidates:
        if res is not None and e.res is not None:
            if e.res.shape != res.shape or not (e.res == res).all():
                # Different batteries: definitely inequivalent — skip the
                # simplify-based check.  (Equal batteries cannot reach here:
                # the value tier would already have matched.)
                bump("equiv.fingerprint_rejects")
                continue
        # Abstract tier: disjoint entry hulls over the verification box
        # prove the stub differs from the spec somewhere, so the
        # ``equivalent`` call below could only return False — skip it.
        bump("analysis.prescreen_checks")
        if _prescreen.tensors_disjoint(e.tensor, spec):
            bump("analysis.prescreen_pruned")
            continue
        if equivalent(spec, e.tensor):
            return e
    return None


def dfs(
    spec: SymTensor,
    score: float,
    level: int,
    cost: float,
    ctx: SearchContext,
) -> tuple[Node | None, float]:
    """Algorithm 2 with span tracing: one ``dfs`` span per node expansion."""
    tracer = ctx.tracer
    if not tracer.enabled:
        return _dfs(spec, score, level, cost, ctx)
    span_id = tracer.begin(
        "dfs", "search", depth=level, complexity=round(score, 4)
    )
    try:
        result = _dfs(spec, score, level, cost, ctx)
    except BaseException as exc:
        tracer.end(span_id, outcome=type(exc).__name__)
        raise
    tracer.end(span_id, outcome="hit" if result[0] is not None else "miss")
    return result


def _dfs(
    spec: SymTensor,
    score: float,
    level: int,
    cost: float,
    ctx: SearchContext,
) -> tuple[Node | None, float]:
    """Algorithm 2: returns (best subtree, its cost) for ``spec``.

    ``cost`` is the accumulated cost of the partial program assembled on the
    path from the root (the prefix), used by the branch-and-bound check.
    """
    tracer = ctx.tracer
    ctx.check_time()
    ctx.stats.record_expand(level)
    key = canonical_key(spec)

    if ctx.config.memoize:
        hit = ctx.memo.get(key)
        if hit is not None:
            ctx.stats.record_memo_hit()
            return hit

    # -- base case: constant specs are built directly --------------------------
    const_node = _constant_spec_node(spec, ctx)
    if const_node is not None:
        result = (const_node, 0.0)
        if ctx.config.memoize:
            ctx.memo[key] = result
        return result

    # -- base case: direct stub match (lines 2-8) ------------------------------
    match_start = time.monotonic()
    matched = _match_base_case(spec, key, ctx)
    match_elapsed = time.monotonic() - match_start
    ctx.stats.time_base_match += match_elapsed
    if tracer.enabled:
        tracer.complete(
            "match",
            "search",
            start=match_start,
            duration=match_elapsed,
            hit=matched is not None,
            depth=level,
        )
    if matched is not None:
        ctx.stats.record_base_match()
        result = (matched.node, ctx.cost_model.program_cost(matched.node))
        if ctx.config.memoize:
            ctx.memo[key] = result
        return result

    if level >= ctx.config.max_recursion_depth:
        if tracer.enabled:
            tracer.instant("prune", "search", reason="depth-limit", depth=level)
        return (None, _INF)

    # -- recursive case: decompose through sketches (lines 9-28) ----------------
    best_program: Node | None = None
    best_cost = _INF
    timed_out = False
    for sk in ctx.sketch_pool(spec):
        # Graceful degradation: a budget expiring mid-sketch abandons the
        # remaining candidates but keeps the best completion found at this
        # node, so the run returns "best program so far" instead of nothing.
        try:
            ctx.check_time()
            cost_total = cost + sk.cost
            # Branch and bound (line 16): the pool is cost-sorted, so once one
            # sketch busts the bound every later one does too.
            if ctx.config.use_branch_and_bound and cost_total >= ctx.cost_min:
                ctx.stats.record_prune("bound")
                if tracer.enabled:
                    tracer.instant(
                        "prune",
                        "search",
                        reason="bound",
                        depth=level,
                        cost=round(cost_total, 4),
                        bound=round(ctx.cost_min, 4),
                    )
                break
            if cost_total >= cost + best_cost:
                break  # cannot beat the best completion already found here
            solved = ctx.solve_all(sk, spec, key, score)
            if solved is None:
                continue
            if isinstance(solved, Pruned):
                ctx.stats.record_prune("simplification")
                if tracer.enabled:
                    # A floor prune derived nothing: its bound is all there is.
                    # One before ``cancel`` derived the hole spec; its bound
                    # stands for the mean.
                    kind = "floor" if solved.from_floor else "hole_complexity"
                    extra = {"before_cancel": True} if solved.before_cancel else {}
                    tracer.instant(
                        "prune",
                        "search",
                        reason="floor" if solved.from_floor else "simplification",
                        depth=level,
                        complexity=round(score, 4),
                        **{kind: round(solved.mean_complexity, 4)},
                        **extra,
                    )
                continue
            hole_specs, hole_scores = solved
            # Lines 15-22: synthesize each hole, accumulating cost, with the
            # branch-and-bound check before every recursion.
            fills: list[Node] = []
            running = cost_total
            success = True
            for hole_spec, hole_score in zip(hole_specs, hole_scores):
                if ctx.config.use_branch_and_bound and running >= ctx.cost_min:
                    ctx.stats.record_prune("bound")
                    if tracer.enabled:
                        tracer.instant(
                            "prune",
                            "search",
                            reason="bound",
                            depth=level,
                            cost=round(running, 4),
                            bound=round(ctx.cost_min, 4),
                        )
                    success = False
                    break
                sub_program, sub_cost = dfs(hole_spec, hole_score, level + 1, running, ctx)
                if sub_program is None:
                    success = False
                    break
                fills.append(sub_program)
                running += sub_cost
            if not success:
                continue
            total = running - cost  # sketch skeleton + all hole costs
            if total < best_cost:
                best_program = sk.fill_many(fills)
                best_cost = total
                # Lines 29-31: a complete program exists once the root's sketch
                # is filled; tighten the shared bound.
                if level == 0 and cost + total < ctx.cost_min:
                    ctx.cost_min = cost + total
        except SynthesisTimeout:
            timed_out = True
            break

    if timed_out and best_program is None:
        # Nothing assembled at this node: unwind so an ancestor (which may
        # hold a complete candidate) degrades instead.
        raise SynthesisTimeout("synthesis search exceeded its budget")
    result = (best_program, best_cost)
    # A timed-out partial result may be suboptimal; never memoize it.
    if ctx.config.memoize and best_program is not None and not timed_out:
        ctx.memo[key] = result
    return result
