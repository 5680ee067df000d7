"""Cross-module integration tests: full pipeline on selected benchmarks.

These are the fast representatives of each transformation class; the full
33-benchmark sweep is ``scripts/generate_experiments.py``.
Every case runs parse -> symexec -> enumerate -> search -> verify and checks
the synthesized program end to end on real arrays at the timing shapes.
"""

import numpy as np
import pytest

from repro.backends import make_backend
from repro.bench import get_benchmark
from repro.bench.runner import verify_optimized_at_timing_shapes
from repro.cost import FlopsCostModel, make_cost_model
from repro.ir import evaluate, random_inputs
from repro.synth import SynthesisConfig, superoptimize_program

FAST = SynthesisConfig(timeout_seconds=120)

#: (benchmark, fragment that must appear in the optimized source).
EXPECTED = [
    ("log_exp_1", "(A + B)"),
    ("log_exp_2", "(A / B)"),
    ("dot_trans_2", "return A"),
    ("sum_sum", "np.sum(A)"),
    ("synth_2", "- A"),
    ("synth_3", "np.sqrt((A + B))"),
    ("synth_6", "4"),
    ("synth_7", "(A * A)"),
    ("mat_vec_prod", "np.dot(A, x)"),
    ("inner_prod", "np.dot(a, b)"),
]


@pytest.mark.parametrize("name, fragment", EXPECTED, ids=[n for n, _ in EXPECTED])
def test_expected_rewrite(name, fragment):
    bench = get_benchmark(name)
    model = make_cost_model("flops", dim_map=bench.dim_map)
    result = superoptimize_program(bench.parse_synth(), cost_model=model, config=FAST)
    assert result.improved, name
    assert fragment in result.optimized_source
    assert verify_optimized_at_timing_shapes(bench, result.optimized_source)


def test_diag_dot_complexity_reduction():
    """The flagship rewrite: cubic diag(dot) becomes a quadratic form."""
    bench = get_benchmark("diag_dot")
    model = make_cost_model("flops", dim_map=bench.dim_map)
    result = superoptimize_program(bench.parse_synth(), cost_model=model, config=FAST)
    assert result.improved
    # dim-mapped FLOPs: 2*384*512*384 for the original vs ~3 * 384*512.
    assert result.speedup_estimate > 50
    assert "np.dot" not in result.optimized_source


def test_optimized_agrees_on_all_backends():
    bench = get_benchmark("trace_dot")
    model = make_cost_model("flops", dim_map=bench.dim_map)
    result = superoptimize_program(bench.parse_synth(), cost_model=model, config=FAST)
    assert result.improved

    from repro.ir.parser import parse

    timing_types = bench.types_for(bench.timing_shapes)
    original = bench.parse_timing()
    optimized = parse(result.optimized_source, timing_types, name=bench.name)
    env = random_inputs(timing_types, rng=np.random.default_rng(31))
    want = np.asarray(evaluate(original.node, env), dtype=float)
    for backend_name in ("numpy", "jax", "pytorch"):
        got = np.asarray(make_backend(backend_name).run(optimized, env), dtype=float)
        assert np.allclose(got, want), backend_name


def test_simplification_only_matches_quality():
    """Section VII-B: branch-and-bound does not degrade solution quality."""
    bench = get_benchmark("log_exp_2")
    model = make_cost_model("flops", dim_map=bench.dim_map)
    full = superoptimize_program(bench.parse_synth(), cost_model=model, config=FAST)
    ablated = superoptimize_program(
        bench.parse_synth(),
        cost_model=model,
        config=FAST.replace(use_branch_and_bound=False),
    )
    assert full.improved and ablated.improved
    assert full.optimized_cost == pytest.approx(ablated.optimized_cost)


def test_global_complexity_mode_runs():
    """The paper's literal |var| metric is available as an ablation."""
    bench = get_benchmark("synth_3")
    model = make_cost_model("flops", dim_map=bench.dim_map)
    result = superoptimize_program(
        bench.parse_synth(),
        cost_model=model,
        config=FAST.replace(complexity_mode="global"),
    )
    assert result.improved
