"""Parallel batch driver and persistent cross-run caches.

The regression contract: ``optimize_module(parallel=2)`` (the wave scheduler)
must produce the same outcomes (names, ``via`` labels, costs, sources) and
mined rules as the sequential loop of :class:`ModuleOptimizer` on the same
module, and a warm persistent cache must answer every solver query without
invoking the solver.
"""

from repro.ir.parser import parse
from repro.ir.types import float_tensor
from repro.pipeline import KernelSpec, ModuleOptimizer, batch_key
from repro.symexec.engine import symbolic_execute
from repro.synth import PersistentCache, SynthesisConfig, superoptimize_source
from tests.cachefile import read_section

FAST = SynthesisConfig(timeout_seconds=90)

MODULE = [
    KernelSpec("exp_log", "np.exp(np.log(A + B))", {"A": (3, 3), "B": (3, 3)}),
    KernelSpec("exp_log_wide", "np.exp(np.log(P + Q))", {"P": (4, 4), "Q": (4, 4)}),
    KernelSpec("matmul", "np.dot(A, B)", {"A": (3, 3), "B": (3, 3)}),
]


def _signature(result):
    return sorted(
        (o.name, o.via, o.improved, o.original_cost, o.optimized_cost, o.optimized_source)
        for o in result.outcomes
    )


def test_parallel_matches_sequential():
    seq = ModuleOptimizer(config=FAST).optimize_module(MODULE)
    par = ModuleOptimizer(config=FAST).optimize_module(MODULE, parallel=2)
    assert _signature(par) == _signature(seq)
    assert sorted(str(r) for r in par.rules) == sorted(str(r) for r in seq.rules)
    # The duplicated improved pattern resolves through the merged rule cache,
    # the matmul through synthesis — same split as the sequential pipeline.
    assert {o.via for o in par.outcomes} == {"synthesis", "rule-cache", "unchanged"}


def test_optimize_module_parallel_entry_point():
    result = ModuleOptimizer(config=FAST).optimize_module(MODULE[:2], parallel=2)
    assert [o.improved for o in result.outcomes] == [True, True]


def test_warm_cache_makes_zero_solver_calls(tmp_path):
    # The paper's flagship kernel: decomposes through sketches, so the search
    # makes hundreds of solver queries (unlike stub-matched programs).
    kernel = ("np.diag(np.dot(A, B))", {"A": (3, 3), "B": (3, 3)})
    cache = PersistentCache(tmp_path)
    first = superoptimize_source(kernel[0], kernel[1], config=FAST, cache=cache)
    cache.save()
    assert first.stats.solver_calls > 0  # this program exercises the solver

    warm = PersistentCache(tmp_path)
    second = superoptimize_source(kernel[0], kernel[1], config=FAST, cache=warm)
    assert second.stats.solver_calls == 0
    assert second.stats.solver_cache_hits > 0
    assert second.stats.library_cache_hit
    assert second.improved == first.improved
    assert second.optimized_source == first.optimized_source
    # Solver accounting is cache-state-invariant: the warm run answers the
    # same queries (calls + cache hits + floor prunes) and credits the same
    # successful solves (restored hits count into solver_hits too).
    def queries(stats):
        return stats.solver_calls + stats.solver_cache_hits + stats.solver_floor_pruned

    assert first.stats.solver_floor_pruned > 0
    assert second.stats.solver_floor_pruned == 0
    assert queries(second.stats) == queries(first.stats)
    assert second.stats.solver_hits == first.stats.solver_hits
    warm_counters = second.stats.metrics_snapshot()["counters"]
    assert warm_counters.get("solver.hits", 0) == second.stats.solver_hits


def test_timed_out_kernel_does_not_perturb_the_others():
    # One kernel of the batch hangs (injected fault at the worker site, so it
    # burns no CPU) and is killed at its hard deadline; the surviving kernels
    # must still match a sequential run exactly — same via labels, sources,
    # and merged rule cache.
    from repro.resilience import FaultPlan, ResiliencePolicy

    hang = KernelSpec(
        "k_hang", "np.diag(np.dot(A, B))", {"A": (2, 2), "B": (2, 2)}
    )
    # Small shapes keep the survivors far inside the cooperative deadline so
    # the only failure in the batch is the injected hang.
    small_module = [
        KernelSpec("exp_log", "np.exp(np.log(A + B))", {"A": (2, 2), "B": (2, 2)}),
        KernelSpec("exp_log_wide", "np.exp(np.log(P + Q))", {"P": (2, 2), "Q": (2, 2)}),
        KernelSpec("matmul", "np.dot(C, D)", {"C": (2, 2), "D": (2, 2)}),
    ]
    config = FAST.replace(fault_plan=FaultPlan.parse("worker[k_hang]:hang=120"))
    par = ModuleOptimizer(config=config).optimize_module(
        [hang] + small_module,
        parallel=2,
        timeout_s=12,
        policy=ResiliencePolicy(
            hard_kill_factor=1.0, kill_grace_s=0.5, max_retries=0
        ),
    )

    seq = ModuleOptimizer(config=FAST).optimize_module(small_module)
    by = {o.name: o for o in par.outcomes}
    assert by["k_hang"].status == "timeout"
    survivors = type(par)(outcomes=[o for o in par.outcomes if o.name != "k_hang"],
                          rules=par.rules)
    assert _signature(survivors) == _signature(seq)
    assert sorted(str(r) for r in par.rules) == sorted(str(r) for r in seq.rules)
    assert all(o.status == "ok" for o in survivors.outcomes)


def test_batch_key_normalizes_names_and_shrinkable_shapes():
    a = KernelSpec("a", "np.exp(np.log(A + B))", {"A": (3, 3), "B": (3, 3)})
    b = KernelSpec("b", "np.exp(np.log(P + Q))", {"P": (4, 4), "Q": (4, 4)})
    c = KernelSpec("c", "np.dot(A, B)", {"A": (3, 3), "B": (3, 3)})
    assert batch_key(a, FAST) == batch_key(b, FAST)
    assert batch_key(a, FAST) != batch_key(c, FAST)


def test_batch_key_separates_programs_sharing_a_spec():
    # np.power(A, 6) / np.power(A, 4) executes to the same symbolic tensor as
    # np.power(A, 2); an "unimproved" verdict on the latter says nothing
    # about the former, so the dedup key must tell them apart — and the
    # parallel driver must then agree with the sequential pipeline whichever
    # comes first.
    square = KernelSpec("elem_square", "np.power(A, 2)", {"A": (2, 3)})
    ratio = KernelSpec("synth_7", "np.power(A, 6) / np.power(A, 4)", {"A": (2, 3)})
    assert batch_key(square, FAST) != batch_key(ratio, FAST)
    for module in ([square, ratio], [ratio, square]):
        seq = ModuleOptimizer(config=FAST).optimize_module(module)
        par = ModuleOptimizer(config=FAST).optimize_module(module, parallel=2)
        assert _signature(par) == _signature(seq)
        by = {o.name: o for o in par.outcomes}
        assert by["synth_7"].improved and not by["elem_square"].improved


def test_symbolic_tensor_cache_roundtrip():
    # The solver section is read back by evaluating srepr strings in SymPy's
    # namespace; sympify (the slow reader it replaced) is the reference.
    import numpy as np
    import sympy as sp

    from repro.ir.types import DType
    from repro.symexec.symtensor import SymTensor
    from repro.synth.cache import dump_tensor, load_tensor

    program = parse("A * B + A", {"A": float_tensor(2, 2), "B": float_tensor(2, 2)})
    x = sp.Symbol("A_0_1", positive=True)
    y = sp.Symbol("A?", real=True)
    data = np.empty((2, 3), dtype=object)
    data.reshape(-1)[:] = [
        sp.Float("1.5") * x,
        sp.Rational(3, 7) + x**-2,
        sp.Max(x, y, 0),
        sp.Piecewise((x, x < y), (y / 3, True)),
        sp.sqrt(x * y) - sp.Integer(4),
        sp.exp(sp.log(x + y)),
    ]
    for tensor in (symbolic_execute(program.node), SymTensor(data, DType.FLOAT)):
        payload = dump_tensor(tensor)
        loaded = load_tensor(payload)
        assert loaded.shape == tensor.shape
        assert loaded.dtype == tensor.dtype
        for got, text, original in zip(
            loaded.entries(), payload["entries"], tensor.entries()
        ):
            reference = sp.sympify(text)
            assert got == reference == original
            assert sp.srepr(got) == sp.srepr(reference) == text
            assert got.free_symbols == original.free_symbols  # assumptions kept
    # Not an srepr string at all: the sympify fallback still reads it.
    plain = load_tensor({"shape": [], "dtype": "float", "entries": ["2*x + 1"]})
    assert list(plain.entries()) == [sp.sympify("2*x + 1")]


def test_cache_delta_merge(tmp_path):
    """A writer's delta is what its save appends; the parent merges it by
    reading on from where it stopped, and does not write it a second time."""
    parent = PersistentCache(tmp_path)
    assert parent.cost_get("k1") is None  # the section is loaded, and empty
    writer = PersistentCache(tmp_path)
    writer.cost_put("k1", 3.0)
    writer.save()
    assert read_section(tmp_path, "costs")[1] == [{"k": "k1", "v": 3.0}]

    parent.cost_put("k2", 4.0)
    parent.refresh()
    assert parent.cost_get("k1") == 3.0
    parent.save()
    assert [r["k"] for r in read_section(tmp_path, "costs")[1]] == ["k1", "k2"]
    fresh = PersistentCache(tmp_path)
    assert (fresh.cost_get("k1"), fresh.cost_get("k2")) == (3.0, 4.0)
