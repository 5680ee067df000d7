"""Regenerators for every figure of the paper's evaluation (Figs. 4-8).

Each ``figN_*`` function returns plain data (dict / list of rows) plus a
``format_*`` helper that renders the same series the paper plots.  The
benchmark harness under ``benchmarks/`` drives these and prints the tables;
EXPERIMENTS.md records paper-vs-measured values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

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


#: The paper's Fig. 4 values on the AMD platform, for EXPERIMENTS.md.
FIG4_PAPER = {"numpy": 3.8, "jax": 1.9, "pytorch": 1.6}


def format_fig4(speedups: Mapping[str, float]) -> str:
    from repro.bench.plots import bar_chart

    lines = ["Fig. 4 — geomean speedup of STENSO-optimized programs (host platform)"]
    lines.append(f"{'framework':<10} {'measured':>9} {'paper (AMD)':>12}")
    for backend, value in speedups.items():
        lines.append(f"{backend:<10} {value:>8.2f}x {FIG4_PAPER.get(backend, float('nan')):>11.1f}x")
    lines.append("")
    lines.append(bar_chart(dict(speedups), reference=FIG4_PAPER))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Fig. 5 — synthesis times per synthesizer variant
# ---------------------------------------------------------------------------


def fig5_synthesis_times(
    store: SynthesisStore,
    cost_model: str = "measured",
    names: Iterable[str] | None = None,
    timeout_seconds: float = 600.0,
    include_bottom_up: bool = True,
    bottom_up_budget: float = 60.0,
) -> list[dict]:
    """Synthesis time per benchmark for B&B, simplification-only, bottom-up."""
    rows: list[dict] = []
    benches = [get_benchmark(n) for n in names] if names else list(ALL_BENCHMARKS)
    configs = ["default", "simplification_only"] + (
        ["bottom_up"] if include_bottom_up else []
    )
    for bench in benches:
        row: dict = {"benchmark": bench.name}
        for config in configs:
            budget = bottom_up_budget if config == "bottom_up" else timeout_seconds
            record = store.get_or_run(
                bench, cost_model=cost_model, config=config, timeout_seconds=budget
            )
            row[config] = record.synthesis_seconds
            row[f"{config}_timed_out"] = bool(record.stats.get("timed_out"))
            row[f"{config}_improved"] = record.improved
        rows.append(row)
    return rows


def format_fig5(rows: Sequence[dict]) -> str:
    lines = ["Fig. 5 — synthesis times (seconds; * = timed out / budget hit)"]
    header = f"{'benchmark':<15} {'B&B':>8} {'simp-only':>10} {'bottom-up':>10}"
    lines.append(header)
    for row in rows:
        def cell(key):
            value = row.get(key)
            if value is None:
                return "-".rjust(8)
            mark = "*" if row.get(f"{key}_timed_out") else " "
            return f"{value:7.1f}{mark}"

        lines.append(
            f"{row['benchmark']:<15} {cell('default'):>8} {cell('simplification_only'):>10} "
            f"{cell('bottom_up'):>10}"
        )
    from repro.bench.plots import log_bar_chart

    series = {row["benchmark"]: row.get("default", 0.0) for row in rows}
    markers = {
        row["benchmark"]: " *" if row.get("default_timed_out") else ""
        for row in rows
    }
    lines.append("")
    lines.append(
        log_bar_chart(series, title="B&B synthesis time (log scale)", markers=markers)
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Fig. 6 — benchmarks per transformation class
# ---------------------------------------------------------------------------

#: The paper's stated counts (Section VII-C names two explicitly).
FIG6_PAPER = {"Algebraic Simplification": 9, "Strength Reduction": 8}


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


def format_fig6(counts: Mapping[str, int]) -> str:
    from repro.bench.plots import bar_chart

    lines = ["Fig. 6 — number of benchmarks per transformation class"]
    for cls, count in sorted(counts.items(), key=lambda kv: -kv[1]):
        paper = FIG6_PAPER.get(cls)
        suffix = f" (paper: {paper})" if paper is not None else ""
        lines.append(f"{cls:<26} {count:>3}{suffix}")
    lines.append("")
    ordered = dict(sorted(counts.items(), key=lambda kv: -kv[1]))
    lines.append(bar_chart({k: float(v) for k, v in ordered.items()}, unit="", width=30))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Fig. 7 — geomean speedup per transformation class per framework
# ---------------------------------------------------------------------------

#: Paper values quoted in Section VII-C (AMD platform).
FIG7_PAPER = {
    ("Vectorization", "numpy"): 10.7,
    ("Vectorization", "jax"): 2.9,
    ("Vectorization", "pytorch"): 4.4,
    ("Identity Replacement", "numpy"): 6.1,
    ("Identity Replacement", "jax"): 3.5,
    ("Identity Replacement", "pytorch"): 2.1,
}


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


def format_fig7(speedups: Mapping[str, Mapping[str, float]]) -> str:
    from repro.bench.plots import grouped_bar_chart

    lines = ["Fig. 7 — geomean speedup per transformation class"]
    lines.append(f"{'class':<26} " + " ".join(f"{b:>9}" for b in ALL_BACKEND_NAMES))
    for cls, per_backend in speedups.items():
        cells = " ".join(f"{per_backend[b]:>8.2f}x" for b in ALL_BACKEND_NAMES)
        lines.append(f"{cls:<26} {cells}")
    lines.append("")
    lines.append(grouped_bar_chart({k: dict(v) for k, v in speedups.items()}))
    return "\n".join(lines)


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


def format_fig8(rows: Sequence[dict]) -> str:
    lines = ["Fig. 8 — per-benchmark speedups"]
    lines.append(
        f"{'benchmark':<15} {'class':<26} " + " ".join(f"{b:>9}" for b in ALL_BACKEND_NAMES)
    )
    for row in sorted(rows, key=lambda r: (r["class"], r["benchmark"])):
        cells = " ".join(
            f"{row.get(b, float('nan')):>8.2f}x" for b in ALL_BACKEND_NAMES
        )
        lines.append(f"{row['benchmark']:<15} {row['class']:<26} {cells}")
    return "\n".join(lines)
