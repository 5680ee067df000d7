"""Tests over the benchmark suite definitions (Tables I & II)."""

import numpy as np
import pytest

from repro.bench import (
    ALL_BENCHMARKS,
    GITHUB_BENCHMARKS,
    SYNTHETIC_BENCHMARKS,
    TRANSFORMATION_CLASSES,
    benchmark_names,
    get_benchmark,
)
from repro.errors import BenchmarkError
from repro.ir import evaluate, random_inputs


class TestCounts:
    def test_table_sizes_match_paper(self):
        assert len(GITHUB_BENCHMARKS) == 21
        assert len(SYNTHETIC_BENCHMARKS) == 12
        assert len(ALL_BENCHMARKS) == 33

    def test_names_unique(self):
        names = benchmark_names()
        assert len(names) == len(set(names))

    def test_class_distribution(self):
        """Fig. 6 ground truth: the paper names these two counts."""
        counts = {cls: 0 for cls in TRANSFORMATION_CLASSES}
        for b in ALL_BENCHMARKS:
            counts[b.transformation_class] += 1
        assert counts["Algebraic Simplification"] == 9
        assert counts["Strength Reduction"] == 8
        assert sum(counts.values()) == 33

    def test_suite_filter(self):
        assert len(benchmark_names("github")) == 21
        assert len(benchmark_names("synthetic")) == 12

    def test_get_benchmark(self):
        assert get_benchmark("diag_dot").domain == "Astrophysics"
        with pytest.raises(BenchmarkError):
            get_benchmark("nope")


@pytest.mark.parametrize("bench", ALL_BENCHMARKS, ids=lambda b: b.name)
class TestEveryBenchmark:
    def test_parses_at_both_shape_sets(self, bench):
        synth = bench.parse_synth()
        timing = bench.parse_timing()
        assert synth.node.type.dtype == timing.node.type.dtype
        assert synth.node.type.rank == timing.node.type.rank

    # The timing-shape run keeps the test's unparametrized name.
    @pytest.mark.parametrize(
        "synth", [pytest.param(False, id=pytest.HIDDEN_PARAM), pytest.param(True, id="synth")]
    )
    def test_evaluates_against_raw_source(self, bench, synth):
        program = bench.parse_synth() if synth else bench.parse_timing()
        shapes = bench.synth_shapes if synth else bench.timing_shapes
        env = random_inputs(program.input_types, rng=np.random.default_rng(23))
        expected = eval(  # noqa: S307 - benchmark-controlled source
            bench.source_for(shapes), {"np": np, **env}
        )
        got = evaluate(program.node, env)
        assert np.allclose(np.asarray(got, float), np.asarray(expected, float))

    def test_dim_map_consistent(self, bench):
        mapping = bench.dim_map  # raises BenchmarkError on conflicts
        for synth_dim, timing_dim in mapping.items():
            assert synth_dim != timing_dim
            assert timing_dim >= 1

    def test_synth_shapes_are_small(self, bench):
        # SymPy tractability bound: the output spec stays comfortably small.
        program = bench.parse_synth()
        assert program.node.type.size <= 64
