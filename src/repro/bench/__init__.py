"""Benchmark suite (Tables I & II) and evaluation harness (Figs. 4-8)."""

from repro.bench.classify import class_counts, classify, op_counts
from repro.bench.figures import (
    BenchmarkEvaluation,
    evaluate_benchmark,
    evaluate_suite,
    fig4_speedups,
    fig5_synthesis_times,
    fig6_class_counts,
    fig7_class_speedups,
    fig8_detailed,
)
from repro.bench.runner import Measurement, geomean, measure_pair, time_callable
from repro.bench.store import CONFIGS, SynthesisRecord, SynthesisStore
from repro.bench.suite import (
    ALL_BENCHMARKS,
    GITHUB_BENCHMARKS,
    SYNTHETIC_BENCHMARKS,
    TRANSFORMATION_CLASSES,
    Benchmark,
    benchmark_names,
    get_benchmark,
)

__all__ = [
    "ALL_BENCHMARKS",
    "Benchmark",
    "BenchmarkEvaluation",
    "CONFIGS",
    "GITHUB_BENCHMARKS",
    "Measurement",
    "SYNTHETIC_BENCHMARKS",
    "SynthesisRecord",
    "SynthesisStore",
    "TRANSFORMATION_CLASSES",
    "benchmark_names",
    "class_counts",
    "classify",
    "evaluate_benchmark",
    "evaluate_suite",
    "fig4_speedups",
    "fig5_synthesis_times",
    "fig6_class_counts",
    "fig7_class_speedups",
    "fig8_detailed",
    "geomean",
    "get_benchmark",
    "measure_pair",
    "op_counts",
    "time_callable",
]
