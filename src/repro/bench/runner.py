"""Timing harness: original vs STENSO-optimized programs on each backend.

Measurement protocol: adaptive calibration picks a loop count so one sample
lasts at least ``min_sample_seconds``, then the best of ``samples`` samples
is reported (minimum is the standard estimator for single-threaded CPU
micro-benchmarks; noise is strictly additive).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.backends import ALL_BACKEND_NAMES, Backend, make_backend
from repro.bench.suite import Benchmark
from repro.errors import BenchmarkError
from repro.ir.evaluator import random_inputs
from repro.ir.parser import Program, parse


def time_callable(
    fn: Callable[[], object],
    min_sample_seconds: float = 0.05,
    samples: int = 5,
    max_loops: int = 1_000_000,
) -> float:
    """Best-of-N seconds per call of ``fn`` with adaptive loop calibration."""
    fn()  # warm-up
    loops = 1
    while loops < max_loops:
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= min_sample_seconds:
            break
        loops *= 2
    best = elapsed / loops
    for _ in range(samples - 1):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed / loops)
    return best


@dataclass(frozen=True)
class Measurement:
    """Original-vs-optimized timing on one backend."""

    benchmark: str
    backend: str
    original_seconds: float
    optimized_seconds: float
    improved: bool

    @property
    def speedup(self) -> float:
        if self.optimized_seconds <= 0:
            return 1.0
        return self.original_seconds / self.optimized_seconds


def _timing_program(bench: Benchmark, source: str) -> Program:
    return parse(
        source if "{" not in source else bench.source_for(bench.timing_shapes),
        bench.types_for(bench.timing_shapes),
        name=bench.name,
    )


def verify_optimized_at_timing_shapes(bench: Benchmark, optimized_source: str) -> bool:
    """Check the synthesized program still agrees at the timing shapes, with
    :func:`repro.verify.verify_equivalence`'s numeric trials — so a program
    only valid on the random positive domain never gets timed as "improved"."""
    from repro.verify import verify_equivalence

    original = bench.parse_timing()
    try:
        optimized = _timing_program(bench, optimized_source)
    except Exception:
        return False
    return verify_equivalence(
        original, optimized.node, symbolic=False, shape_transport=False
    ).passed


def measure_pair(
    bench: Benchmark,
    optimized_source: str | None,
    backends: Sequence[str] = ALL_BACKEND_NAMES,
    min_sample_seconds: float = 0.05,
    samples: int = 5,
    seed: int = 7,
) -> list[Measurement]:
    """Time original and optimized implementations on each backend.

    ``optimized_source`` of None (or one failing timing-shape verification)
    yields speedup-1.0 measurements with the original timed on both sides,
    mirroring how an unimproved benchmark contributes to the paper's
    geometric means.
    """
    original = bench.parse_timing()
    env = random_inputs(original.input_types, rng=np.random.default_rng(seed))
    args = [env[n] for n in original.input_names]

    improved = optimized_source is not None and verify_optimized_at_timing_shapes(
        bench, optimized_source
    )
    optimized = _timing_program(bench, optimized_source) if improved else original

    out: list[Measurement] = []
    for backend_name in backends:
        backend = make_backend(backend_name)
        orig_fn = backend.prepare(original)
        orig_args = [env[n] for n in original.input_names]
        t_orig = time_callable(
            lambda: orig_fn(*orig_args), min_sample_seconds, samples
        )
        if improved:
            opt_fn = backend.prepare(optimized)
            opt_args = [env[n] for n in optimized.input_names]
            t_opt = time_callable(
                lambda: opt_fn(*opt_args), min_sample_seconds, samples
            )
        else:
            t_opt = t_orig
        out.append(
            Measurement(
                benchmark=bench.name,
                backend=backend_name,
                original_seconds=t_orig,
                optimized_seconds=t_opt,
                improved=improved,
            )
        )
    return out


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (the paper's aggregate for speedups)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return 1.0
    if np.any(arr <= 0):
        raise BenchmarkError("geomean requires positive values")
    return float(np.exp(np.mean(np.log(arr))))
