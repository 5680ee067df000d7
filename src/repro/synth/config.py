"""Configuration of the synthesis search.

One dataclass gathers every knob of the pipeline so benchmarks and ablations
can vary them declaratively.  Defaults correspond to the paper's evaluated
configuration: enumeration depth 2, simplification objective on, branch and
bound on, measured cost model off (chosen by the caller).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SynthesisConfig:
    """Knobs of the STENSO synthesis pipeline."""

    # -- sketch generation (Section IV-B) -----------------------------------
    max_depth: int = 2
    """Bottom-up enumeration iterations for stub generation (paper: 2)."""

    max_stubs: int = 20_000
    """Hard cap on the stub library size (safety valve)."""

    grow_both_args: bool = False
    """If True, depth-2 stubs may combine two depth-1 stubs; if False (the
    default) at most one argument of a depth-2 stub is itself compound, which
    keeps the library near-linear in the depth-1 count while still containing
    every building block the paper's benchmarks need."""

    extra_constants: tuple[float, ...] = (0.0, 1.0, 2.0)
    """Constants available to the enumerator in addition to those found in the
    input program (the paper's FCons terminals)."""

    extra_grammar_ops: tuple[str, ...] = ()
    """Registered elementwise ops added to the synthesis grammar beyond
    Fig. 3 — e.g. ``("maximum", "minimum")`` lets max_stack reach
    ``np.maximum(A, B)`` instead of the grammar's ``where(less(A,B),B,A)``
    spelling.  Extension over the paper; empty by default."""

    # -- simplification objective (Section V-A) -------------------------------
    complexity_mode: str = "per_entry"
    """'per_entry' (default): mean unique input symbols per element, times
    density.  'global': the paper's literal |var(Φ)|·density(Φ) over the whole
    tensor; see DESIGN.md for why per-entry is needed for reduction sketches."""

    # -- branch and bound (Section V-B) ---------------------------------------
    use_branch_and_bound: bool = True
    """Abandon branches whose accumulated cost exceeds the best found."""

    # -- search limits ----------------------------------------------------------
    timeout_seconds: float = 600.0
    """Wall-clock budget for one synthesis run (paper: 10 minutes)."""

    max_solver_calls: int | None = None
    """Optional cap on *actual* solver invocations per synthesis run (cache
    hits and queries PRUNE's floor turns down before any derivation are
    free).  Like ``timeout_seconds`` this is a pure resource limit:
    exceeding it degrades the search to the best program found so far and
    never changes what a completed search would return, so it is excluded
    from the cache fingerprint."""

    fault_plan: "object | None" = None
    """Optional :class:`repro.resilience.FaultPlan` injected into the run's
    instrumented sites (solver, cache-read, worker, verify) for failure-path
    testing.  Also settable process-wide via ``$STENSO_FAULTS``; excluded
    from the cache fingerprint."""

    memoize: bool = True
    """Cache the DFS's constant and base-case MATCH answers per canonical
    spec key; no bound decides them, so a later path may reuse them."""

    def replace(self, **kwargs) -> "SynthesisConfig":
        from dataclasses import replace as _replace

        return _replace(self, **kwargs)


#: Configuration matching the paper's main evaluated setup.
DEFAULT_CONFIG = SynthesisConfig()
