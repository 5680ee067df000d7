"""The sketch library is derived on demand, at the first SOLVE.

The contract: a search that ends at the base-case MATCH derives no sketch at
all; a search that reaches SOLVE derives them exactly once and sees the very
list — same roots, same order, same costs — the build-time loop used to
produce; and none of it shows in a module's ``summary()``.
"""

import pytest

from repro.bench import get_benchmark
from repro.cost import make_cost_model
from repro.ir.nodes import Call
from repro.obs.trace import Tracer, install_tracer
from repro.pipeline import KernelSpec, ModuleOptimizer
from repro.synth import PersistentCache, superoptimize_program
from repro.synth import library as library_mod
from repro.synth.library import build_library
from repro.synth.sketch import sketches_from_stub
from tests.test_library_cache import CONFIG, _program


@pytest.fixture
def derivations(monkeypatch):
    """Source nodes ``sketches_from_stub`` was called on, in call order."""
    calls = []
    real = library_mod.sketches_from_stub

    def counting(stub, **kwargs):
        calls.append(stub)
        return real(stub, **kwargs)

    monkeypatch.setattr(library_mod, "sketches_from_stub", counting)
    return calls


@pytest.mark.parametrize("name", ["log_exp_1", "elem_square"])
def test_match_only_kernel_derives_no_sketch(name, derivations):
    result = superoptimize_program(get_benchmark(name).parse_synth(), config=CONFIG)
    assert result.stats.solver_calls == 0 and result.stats.base_case_matches == 1
    assert derivations == []
    assert result.stats.sketch_count == 0 and result.stats.time_sketches == 0.0
    assert "sketches 0.00s" in result.stats.profile_summary()


def test_solving_kernel_derives_once(derivations):
    result = superoptimize_program(get_benchmark("synth_11").parse_synth(), config=CONFIG)
    assert result.stats.solver_calls > 1  # many SOLVEs, one derivation
    assert len(derivations) == len(set(derivations)) > 0
    assert result.stats.sketch_count > 0 and result.stats.time_sketches > 0.0
    assert result.stats.as_dict()["time_sketches"] == result.stats.time_sketches


def test_derivation_is_traced_once():
    tracer = install_tracer(Tracer())
    try:
        result = superoptimize_program(get_benchmark("synth_11").parse_synth(), config=CONFIG)
    finally:
        install_tracer(None)
    derive = [e for e in tracer.events() if e["name"] == "derive-sketches"]
    assert len(derive) == 1 and derive[0]["cat"] == "enum"
    assert derive[0]["args"]["sketches"] == result.stats.sketch_count
    assert derive[0]["args"]["sources"] > 0
    assert derive[0]["dur"] == result.stats.time_sketches
    # Spans reach the trace in the order they end (the worker-merge contract).
    ended = [e["ts"] + e["dur"] for e in tracer.events() if e["type"] == "span"]
    assert ended == sorted(ended)


def _eager_sketches(library, cost_model, config):
    """The loop ``_assemble_library`` ran at build time before the deferral."""
    sketches, seen_roots = [], set()
    for source in library.sketch_sources:
        if not isinstance(source, Call):
            continue
        for sk in sketches_from_stub(source, multi_hole=config.multi_hole_sketches):
            if sk.root in seen_roots:
                continue
            seen_roots.add(sk.root)
            sketches.append(sk.with_cost(cost_model.program_cost(sk.root)))
    sketches.sort(key=lambda s: (s.cost, s.root.num_nodes))
    return sketches


def _listing(sketches):
    return [(s.root, s.cost, s.hole_paths) for s in sketches]


@pytest.mark.parametrize("name", ["matmul", "exp_log", "diag_dot", "synth_11", "where_less"])
def test_demand_derived_sketches_equal_the_eager_list(name, tmp_path):
    program = _program(name)
    cache = PersistentCache(tmp_path)
    cold = build_library(program, CONFIG, make_cost_model("flops"), cache=cache, fingerprint="fp")
    cache.save()
    warm = build_library(
        program, CONFIG, make_cost_model("flops"),
        cache=PersistentCache(tmp_path), fingerprint="fp",
    )
    assert warm.from_cache and not cold.from_cache
    for library in (cold, warm):
        assert library.sketch_count == 0
        # A fresh model prices the oracle: nothing is shared with the library.
        expected = _eager_sketches(library, make_cost_model("flops"), CONFIG)
        assert _listing(library.sketches) == _listing(expected)
        assert library.sketch_count == len(expected) > 0
        by_type = {}
        for sk in expected:
            by_type.setdefault(sk.root.type, []).append(sk)
        assert {t: _listing(v) for t, v in library.sketches_by_type.items()} == {
            t: _listing(v) for t, v in by_type.items()
        }
        assert library.sketches is library.sketches  # derived once, then cached


def test_module_summary_identical_sequential_parallel_and_warm(tmp_path):
    module = [  # two kernels that end at MATCH, two that reach SOLVE
        KernelSpec("log_exp", "np.exp(np.log(A + B))", {"A": (2, 2), "B": (2, 2)}),
        KernelSpec("square", "np.power(A, 2)", {"A": (2, 3)}),
        KernelSpec("fifth", "A * A * A * A * A", {"A": (2, 3)}),
        KernelSpec("diag_dot", "np.diag(np.dot(A, B))", {"A": (2, 2), "B": (2, 2)}),
    ]
    seq = ModuleOptimizer(config=CONFIG, cache=tmp_path).optimize_module(module)
    par = ModuleOptimizer(config=CONFIG).optimize_module(module, parallel=2)
    warm_opt = ModuleOptimizer(config=CONFIG, cache=tmp_path)
    warm = warm_opt.optimize_module(module)
    assert warm_opt.cache.stats.library_hits > 0
    assert par.summary() == seq.summary()
    assert warm.summary() == seq.summary()
    sources = [o.optimized_source for o in seq.outcomes]
    assert [o.optimized_source for o in par.outcomes] == sources
    assert [o.optimized_source for o in warm.outcomes] == sources
