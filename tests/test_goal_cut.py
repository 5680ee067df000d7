"""The goal-directed last level (DESIGN.md decision 33): what it skips or
drops never changes the champion of Φ's class, the one stub the root's MATCH
reads, and where Φ's class is never reached the library is the goal-less one.

The refuter rows ``goal-cut`` and ``goal-float-refuter`` of
``tests/refuters.py`` check the whole pipeline on every suite kernel; these
are the edges they do not reach.
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
from repro.synth import library as library_module
from repro.synth.cache import library_key
from repro.synth.enumerator import StubEnumerator, goal_key
from repro.synth.library import Library
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


def _library(enumerator):
    """Stub nodes, batteries and sketch sources, in order."""
    stubs = [c.entry for c in enumerator._classes]
    batteries = [None if e.res is None else e.res.tobytes() for e in stubs]
    return [e.node for e in stubs], batteries, enumerator.sketch_sources


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
    champion = full._by_val[key.key].entry.node
    assert champion == Call("add", (a, Const(2.0)))
    assert full._cost(champion) > full._cost(program.node)  # the bound rose
    assert cut.goal_cut > 0 and full.goal_cut == 0
    assert cut._by_val[key.key].entry.node == champion


def test_skipped_candidates_reaching_max_stubs_rebuild_without_the_goal():
    program, model = _kernel("log_exp_1")
    config = SynthesisConfig(max_stubs=500)
    cut = _enumerated(program, config, model, goal=goal_key(_spec(program)))
    assert cut.stub_count + cut.goal_cut >= config.max_stubs  # so the cap may differ
    before = PROCESS_COUNTERS.get("enum.goal_cut", 0)
    rebuilt = build_library(program, config, model, goal=_spec(program))
    assert PROCESS_COUNTERS.get("enum.goal_cut", 0) == before
    goalless = build_library(program, config, model)
    # The library leaves out the float constants the cap counts: read it
    # off the goal-less enumerator, whose library the rebuild is.
    assert _enumerated(program, config, model).stub_count == config.max_stubs
    assert _nodes(rebuilt) == _nodes(goalless)


def test_goal_cut_acts_on_log_exp_1_and_on_no_search_kernel():
    bench = get_benchmark("log_exp_1")
    spec = KernelSpec(bench.name, bench.source, bench.synth_shapes)
    outcome = ModuleOptimizer(cost_model=FlopsCostModel()).search(spec)
    assert outcome.improved
    assert outcome.metrics["counters"]["enum.goal_cut"] > 0
    # No search kernel reaches Φ's class: every last-level candidate was
    # deferred and is replayed in its own order, so the library is the
    # goal-less one, node for node.
    for name in SEARCH_KERNELS:
        program, model = _kernel(name)
        enumerator = _enumerated(program, DEFAULT_CONFIG, model, goal=goal_key(_spec(program)))
        assert enumerator.goal_cut == 0 and enumerator.goal_champion is None, name
        assert _library(enumerator) == _library(_enumerated(program, DEFAULT_CONFIG, model)), name


def test_the_goal_cuts_where_phi_arrives_late_or_has_no_battery():
    # trace_dot's Φ class arrives in the last level's unary phase; max_stack's
    # and synth_3's Φ have no battery, so MATCH finds them by canonical key.
    for name, weak in (("trace_dot", False), ("max_stack", True), ("synth_3", True)):
        program, model = _kernel(name)
        spec = _spec(program)
        assert goal_key(spec).weak is weak, name
        before = PROCESS_COUNTERS.get("enum.goal_cut", 0)
        library = build_library(program, DEFAULT_CONFIG, model, goal=spec)
        assert PROCESS_COUNTERS.get("enum.goal_cut", 0) > before, name  # not built again
        goalless = build_library(program, DEFAULT_CONFIG, model)
        assert library.stub_count < goalless.stub_count, name
        if weak:
            key = goal_key(spec).key
            assert library.match_weak(spec, key).node == goalless.match_weak(spec, key).node, name


def test_a_member_without_a_finite_float_value_is_admitted():
    # Φ = A**1000; sqrt(A**2000) reaches it in the last level, but A**2000
    # overflows at the float point: the refuter has no opinion.
    a = Input("A", float_tensor(3, 3))
    power = Call("power", (a, Const(500.0)))
    program = Program("p", Call("multiply", (power, power)), (a,))
    config = SynthesisConfig(extra_constants=(2000.0,))
    key = goal_key(_spec(program))
    cut = _enumerated(program, config, None, goal=key)
    member = Call("sqrt", (Call("power", (a, Const(2000.0))),))
    assert not np.isfinite(cut._float(member)).all() and np.isfinite(cut._float(program.node)).all()
    assert not cut._refutes_goal(member)
    assert cut.goal_cut > 0 and cut.goal_champion.node == member
    assert _enumerated(program, config, None)._by_val[key.key].entry.node == member


def test_deferred_candidates_reaching_max_stubs_rebuild_without_the_goal():
    program, model = _kernel("synth_11")  # 4 terminals, 25 + 271 stubs; Φ never reached
    config = SynthesisConfig(max_stubs=150)
    cut = _enumerated(program, config, model, goal=goal_key(_spec(program)))
    assert cut.goal_champion is None and cut.goal_cut > 0  # the deferred, counted at the cap
    assert cut.stub_count + cut.goal_cut >= config.max_stubs
    before = PROCESS_COUNTERS.get("enum.goal_cut", 0)
    rebuilt = build_library(program, config, model, goal=_spec(program))
    assert PROCESS_COUNTERS.get("enum.goal_cut", 0) == before
    goalless = build_library(program, config, model)
    # The library leaves out the float constants the cap counts: read it
    # off the goal-less enumerator, whose library the rebuild is.
    assert _enumerated(program, config, model).stub_count == config.max_stubs
    assert _nodes(rebuilt) == _nodes(goalless) and rebuilt.sketch_sources == goalless.sketch_sources


def test_a_weak_goal_match_does_not_read_is_built_again(monkeypatch):
    program, model = _kernel("max_stack")
    spec = _spec(program)
    goals = []

    class Recording(StubEnumerator):
        def __init__(self, *args, goal=None, **kwargs):
            goals.append(goal)
            super().__init__(*args, goal=goal, **kwargs)

    real_match_weak = Library.match_weak

    def another_entry(self, spec, key):
        entry = real_match_weak(self, spec, key)
        return next(e for e in self.stubs if e is not entry)

    monkeypatch.setattr(library_module, "StubEnumerator", Recording)
    monkeypatch.setattr(Library, "match_weak", another_entry)
    before = PROCESS_COUNTERS.get("enum.goal_cut", 0)
    rebuilt = build_library(program, DEFAULT_CONFIG, model, goal=spec)
    assert goals == [goal_key(spec), None]
    assert PROCESS_COUNTERS.get("enum.goal_cut", 0) == before
    monkeypatch.undo()
    goalless = build_library(program, DEFAULT_CONFIG, model)
    assert _nodes(rebuilt) == _nodes(goalless) and rebuilt.sketch_sources == goalless.sketch_sources


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
