"""The goal-directed last level (DESIGN.md decision 33): what it skips never
changes the champion of Φ's class, the one stub the root's MATCH reads.

The refuter row ``goal-cut`` of ``tests/refuters.py`` checks the whole
pipeline on every suite kernel; these are the edges it does not reach.
"""

import numpy as np

from repro.bench.suite import get_benchmark
from repro.cost import FlopsCostModel, make_cost_model
from repro.cost.base import CostModel
from repro.ir.nodes import Call, Const, Input
from repro.ir.parser import Program
from repro.ir.types import float_tensor
from repro.obs.metrics import PROCESS_COUNTERS
from repro.pipeline import KernelSpec, ModuleOptimizer
from repro.symexec.canonical import canonical
from repro.symexec.engine import symbolic_execute
from repro.synth import DEFAULT_CONFIG, PersistentCache, SynthesisConfig, build_library
from repro.synth.cache import library_key
from repro.synth.enumerator import StubEnumerator, goal_key
from tests.refuters import SEARCH_KERNELS


class ScalarSurcharge(CostModel):
    """Every op costs 1, a contraction 2, and 4 % more with a scalar operand."""

    name = "scalar-surcharge"

    def op_cost(self, op, arg_types, out_type, attrs):
        base = 2.0 if op in ("dot", "tensordot") else 1.0
        return base + 0.04 * any(t.is_scalar for t in arg_types)


def _spec(program):
    return symbolic_execute(program.node).map(canonical)


def _enumerated(program, config, model, goal=None) -> StubEnumerator:
    enumerator = StubEnumerator(program, config, cost_model=model, goal=goal)
    enumerator.enumerate()
    return enumerator


def _kernel(name):
    bench = get_benchmark(name)
    return bench.parse_synth(), make_cost_model("flops", dim_map=bench.dim_map)


def _nodes(library):
    return [e.node for e in library.stubs]


def test_a_champion_replaced_inside_the_band_is_the_same_with_the_goal():
    # Φ = A + 2, first admitted as A plus a 2x2 constant (pinned, cost 1),
    # then replaced by the shape-polymorphic A + 2.0 at cost 1.04: inside the
    # band, during the last level, after the cut has started.
    a = Input("A", float_tensor(2, 2))
    program = Program("tie", Call("add", (a, Const(np.full((2, 2), 2.0)))), (a,))
    config = SynthesisConfig(max_depth=1)
    key = goal_key(_spec(program))
    assert key is not None
    full = _enumerated(program, config, ScalarSurcharge())
    cut = _enumerated(program, config, ScalarSurcharge(), goal=key)
    champion = full._by_val[key].entry.node
    assert champion == Call("add", (a, Const(2.0)))
    assert full._cost(champion) > full._cost(program.node)  # the bound rose
    assert cut.goal_cut > 0 and full.goal_cut == 0
    assert cut._by_val[key].entry.node == champion


def test_skipped_candidates_reaching_max_stubs_rebuild_without_the_goal():
    program, model = _kernel("log_exp_1")
    config = SynthesisConfig(max_stubs=500)
    cut = _enumerated(program, config, model, goal=goal_key(_spec(program)))
    assert cut.stub_count + cut.goal_cut >= config.max_stubs  # so the cap may differ
    before = PROCESS_COUNTERS.get("enum.goal_cut", 0)
    rebuilt = build_library(program, config, model, goal=_spec(program))
    assert PROCESS_COUNTERS.get("enum.goal_cut", 0) == before
    goalless = build_library(program, config, model)
    assert rebuilt.stub_count == config.max_stubs
    assert _nodes(rebuilt) == _nodes(goalless)


def test_goal_cut_acts_on_log_exp_1_and_on_no_search_kernel():
    bench = get_benchmark("log_exp_1")
    spec = KernelSpec(bench.name, bench.source, bench.synth_shapes)
    outcome = ModuleOptimizer(cost_model=FlopsCostModel()).search(spec)
    assert outcome.improved
    assert outcome.metrics["counters"]["enum.goal_cut"] > 0
    for name in SEARCH_KERNELS:
        program, model = _kernel(name)
        enumerator = _enumerated(program, DEFAULT_CONFIG, model, goal=goal_key(_spec(program)))
        assert enumerator.goal_cut == 0, name


def test_a_goalless_build_never_restores_a_cut_library(tmp_path):
    program, model = _kernel("log_exp_1")
    cache = PersistentCache(tmp_path)
    assert library_key("fp", program, cut=True) != library_key("fp", program)
    cut = build_library(program, DEFAULT_CONFIG, model, cache=cache, fingerprint="fp", goal=_spec(program))
    full = build_library(program, DEFAULT_CONFIG, model, cache=cache, fingerprint="fp")
    assert not full.from_cache
    assert _nodes(full) == _nodes(build_library(program, DEFAULT_CONFIG, model))
    assert cut.stub_count < full.stub_count
    cache.save()
    reloaded = PersistentCache(tmp_path)
    warm_cut = build_library(
        program, DEFAULT_CONFIG, model, cache=reloaded, fingerprint="fp", goal=_spec(program)
    )
    warm_full = build_library(program, DEFAULT_CONFIG, model, cache=reloaded, fingerprint="fp")
    assert warm_cut.from_cache and _nodes(warm_cut) == _nodes(cut)
    assert warm_full.from_cache and _nodes(warm_full) == _nodes(full)
