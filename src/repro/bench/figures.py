"""The data behind every figure of the paper's evaluation (Figs. 4-8).

Each ``figN_*`` function returns plain data (dict / list of rows);
``scripts/generate_experiments.py`` renders them, with the paper's values,
into EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.backends import ALL_BACKEND_NAMES
from repro.bench.classify import classify
from repro.bench.runner import Measurement, geomean, measure_pair
from repro.bench.store import SynthesisRecord, SynthesisStore
from repro.bench.suite import (
    ALL_BENCHMARKS,
    TRANSFORMATION_CLASSES,
    Benchmark,
    get_benchmark,
)
from repro.ir.parser import parse


@dataclass
class BenchmarkEvaluation:
    """All evaluation artifacts for one benchmark."""

    benchmark: Benchmark
    record: SynthesisRecord
    measurements: list[Measurement] = field(default_factory=list)
    transformation_class: str | None = None

    @property
    def name(self) -> str:
        return self.benchmark.name

    def speedup(self, backend: str) -> float:
        for m in self.measurements:
            if m.backend == backend:
                return m.speedup
        raise KeyError(backend)


def _auto_class(bench: Benchmark, record: SynthesisRecord) -> str | None:
    if not record.improved:
        return None
    original = bench.parse_synth()
    optimized = parse(
        record.optimized_source,
        original.input_types,
        name=bench.name,
    )
    return classify(original.node, optimized.node)


def evaluate_benchmark(
    bench: Benchmark | str,
    store: SynthesisStore,
    cost_model: str = "measured",
    backends: Sequence[str] = ALL_BACKEND_NAMES,
    measure: bool = True,
    min_sample_seconds: float = 0.05,
    samples: int = 5,
) -> BenchmarkEvaluation:
    """Synthesize (cached) and optionally time one benchmark."""
    if isinstance(bench, str):
        bench = get_benchmark(bench)
    record = store.get_or_run(bench, cost_model=cost_model)
    measurements: list[Measurement] = []
    if measure:
        measurements = measure_pair(
            bench,
            record.optimized_source if record.improved else None,
            backends=backends,
            min_sample_seconds=min_sample_seconds,
            samples=samples,
        )
    return BenchmarkEvaluation(
        benchmark=bench,
        record=record,
        measurements=measurements,
        transformation_class=_auto_class(bench, record),
    )


def evaluate_suite(
    store: SynthesisStore,
    cost_model: str = "measured",
    names: Iterable[str] | None = None,
    backends: Sequence[str] = ALL_BACKEND_NAMES,
    measure: bool = True,
    min_sample_seconds: float = 0.05,
    samples: int = 5,
) -> list[BenchmarkEvaluation]:
    """Evaluate benchmarks, synthesizing the store's misses on the way.

    Suite sweeps are crash-safe: every synthesis record is saved to the
    store the moment it exists (the store's save is a locked read-merge-
    write, so concurrent sweeps sharing a store file union their records),
    and SIGINT/SIGTERM stop the sweep gracefully after the current
    benchmark — a killed or interrupted sweep re-run only pays for the
    benchmarks it had not yet completed.
    """
    from repro.resilience import InterruptGuard

    benches = [get_benchmark(n) for n in names] if names else list(ALL_BENCHMARKS)
    evaluations: list[BenchmarkEvaluation] = []
    with InterruptGuard() as stop:
        for b in benches:
            if stop.requested():
                break
            evaluations.append(
                evaluate_benchmark(
                    b, store, cost_model, backends, measure, min_sample_seconds, samples
                )
            )
    return evaluations


# ---------------------------------------------------------------------------
# Fig. 4 — geometric mean speedups per framework
# ---------------------------------------------------------------------------


def fig4_speedups(evaluations: Sequence[BenchmarkEvaluation]) -> dict[str, float]:
    """Geomean speedup of STENSO-optimized programs per framework."""
    out: dict[str, float] = {}
    for backend in ALL_BACKEND_NAMES:
        out[backend] = geomean([e.speedup(backend) for e in evaluations])
    return out


# ---------------------------------------------------------------------------
# Fig. 5 — synthesis times per synthesizer variant
# ---------------------------------------------------------------------------


def fig5_synthesis_times(
    store: SynthesisStore,
    cost_model: str,
    timeout_seconds: float,
    bottom_up_budget: float,
) -> list[dict]:
    """Synthesis time per benchmark for B&B, simplification-only, bottom-up;
    a store miss synthesizes with the given budgets."""
    rows: list[dict] = []
    for bench in ALL_BENCHMARKS:
        row: dict = {"benchmark": bench.name}
        for config in ("default", "simplification_only", "bottom_up"):
            budget = bottom_up_budget if config == "bottom_up" else timeout_seconds
            record = store.get_or_run(
                bench, cost_model=cost_model, config=config, timeout_seconds=budget
            )
            row[config] = record.synthesis_seconds
            row[f"{config}_timed_out"] = bool(record.stats.get("timed_out"))
            row[f"{config}_improved"] = record.improved
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Fig. 6 — benchmarks per transformation class
# ---------------------------------------------------------------------------


def fig6_class_counts(evaluations: Sequence[BenchmarkEvaluation]) -> dict[str, int]:
    """Number of improved benchmarks per transformation class.

    Uses the suite's expected class labels (the paper's manual grouping);
    the automatic classifier is compared against these in the test suite.
    """
    counts = {cls: 0 for cls in TRANSFORMATION_CLASSES}
    for e in evaluations:
        if e.record.improved:
            counts[e.benchmark.transformation_class] += 1
    return counts


# ---------------------------------------------------------------------------
# Fig. 7 — geomean speedup per transformation class per framework
# ---------------------------------------------------------------------------


def fig7_class_speedups(
    evaluations: Sequence[BenchmarkEvaluation],
) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for cls in TRANSFORMATION_CLASSES:
        members = [e for e in evaluations if e.benchmark.transformation_class == cls]
        if not members:
            continue
        out[cls] = {
            backend: geomean([e.speedup(backend) for e in members])
            for backend in ALL_BACKEND_NAMES
        }
    return out


# ---------------------------------------------------------------------------
# Fig. 8 — detailed per-benchmark speedups
# ---------------------------------------------------------------------------


def fig8_detailed(evaluations: Sequence[BenchmarkEvaluation]) -> list[dict]:
    rows = []
    for e in evaluations:
        row = {
            "benchmark": e.name,
            "class": e.benchmark.transformation_class,
            "improved": e.record.improved,
        }
        for m in e.measurements:
            row[m.backend] = m.speedup
        rows.append(row)
    return rows
