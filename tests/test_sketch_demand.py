"""Sketches are derived on demand, cheapest first, as SOLVE reads them.

The contract: a search that ends at the base-case MATCH derives no sketch at
all; a search that reaches SOLVE expands each sketch source at most once and
reads, pool by pool, the very list the eager derivation made — same roots,
same order, same costs, same hole paths — whatever the library's cache
state; and none of it shows in a module's ``summary()``.
"""

from itertools import islice

import pytest

from repro.bench import get_benchmark
from repro.bench.store import CONFIGS, run_synthesis
from repro.cost import FlopsCostModel, make_cost_model
from repro.ir.nodes import Call
from repro.ir.types import TensorType
from repro.obs.trace import Tracer, install_tracer
from repro.pipeline import KernelSpec, ModuleOptimizer
from repro.synth import PersistentCache, superoptimize_program
from repro.synth import library as library_mod
from repro.synth.library import build_library
from repro.synth.search import MAX_CANDIDATES_PER_NODE, SearchContext
from repro.synth.sketch import Hole, Sketch, is_hole, sketches_from_stub
from tests.refuters import SEARCH_KERNELS
from tests.test_library_cache import CONFIG, _program, drained


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


def test_derivation_is_traced_once(derivations):
    tracer = install_tracer(Tracer())
    try:
        result = superoptimize_program(get_benchmark("synth_11").parse_synth(), config=CONFIG)
    finally:
        install_tracer(None)
    derive = [e for e in tracer.events() if e["name"] == "derive-sketches"]
    assert derive and all(e["cat"] == "enum" for e in derive)
    # Every expansion is in exactly one span, and the spans add up to the stats.
    assert sum(e["args"]["sources"] for e in derive) == len(derivations) > 0
    assert sum(e["args"]["sketches"] for e in derive) == result.stats.sketch_count
    assert sum(e["dur"] for e in derive) == result.stats.time_sketches
    # Spans reach the trace in the order they end (the worker-merge contract).
    ended = [e["ts"] + e["dur"] for e in tracer.events() if e["type"] == "span"]
    assert ended == sorted(ended)


def _eager_sketches(library, cost_model):
    """Every sketch of the library, cheapest first: the eager derivation."""
    sketches, seen_roots = [], set()
    for source in library.sketch_sources:
        if not isinstance(source, Call):
            continue
        for sk in sketches_from_stub(source):
            if sk.root in seen_roots:
                continue
            seen_roots.add(sk.root)
            sketches.append(sk.with_cost(cost_model.program_cost(sk.root)))
    sketches.sort(key=lambda s: (s.cost, s.root.num_nodes))
    return sketches


def _retype(sketch, spec_type, cost_model):
    """The eager widening: a direct-argument hole of an elementwise root to ``spec_type``."""
    from repro.ir.ops import get_op

    root = sketch.root
    if len(sketch.hole_path) != 1 or not get_op(root.op).elementwise:
        return None
    hole = Hole(TensorType(sketch.hole.type.dtype, spec_type.shape))
    args = list(root.args)
    args[sketch.hole_path[0]] = hole
    try:
        widened = Call(root.op, tuple(args), **dict(root.attrs))
    except Exception:
        return None
    if widened.type != spec_type:
        return None
    return Sketch(widened, hole, sketch.hole_path, cost_model.program_cost(widened))


def _eager_pool(everything, spec_type, names, cost_model):
    """The pool before it was lazy: the type's sketches, then the widened ones,
    filtered by input names, stable-sorted by cost then size, cut at the cap;
    and whether the cap cut it."""
    base = [sk for sk in everything if sk.root.type == spec_type]
    seen = {sk.root for sk in base}
    retyped = []
    for sk in everything:
        widened = _retype(sk, spec_type, cost_model) if sk.root.type != spec_type else None
        if widened is not None and widened.root not in seen:
            seen.add(widened.root)
            retyped.append(widened)

    def reads(root):
        return frozenset(i.name for i in root.inputs() if not is_hole(i))

    pool = [sk for sk in base + retyped if not names or reads(sk.root) <= names]
    pool.sort(key=lambda s: (s.cost, s.root.num_nodes))
    return pool[:MAX_CANDIDATES_PER_NODE], len(pool) > MAX_CANDIDATES_PER_NODE


def _listing(sketches):
    return [(s.root, s.cost, s.hole_path) for s in sketches]


def _distinct(library):
    """Each source type's sketches as the library derives them, repeated roots dropped."""
    out = {}
    for type, sketches in drained(library).items():
        seen = set()
        out[type] = [sk for sk in sketches if not (sk.root in seen or seen.add(sk.root))]
    return out


@pytest.mark.parametrize("name", ["matmul", "exp_log", "diag_dot", "synth_11", "where_less"])
def test_demand_derived_sketches_equal_the_eager_list(name, tmp_path, derivations):
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
        derivations.clear()
        # A fresh model prices the oracle: nothing is shared with the library.
        expected = _eager_sketches(library, make_cost_model("flops"))
        by_type = {}
        for sk in expected:
            by_type.setdefault(sk.root.type, []).append(sk)
        distinct = _distinct(library)
        assert {t: _listing(v) for t, v in distinct.items()} == {
            t: _listing(v) for t, v in by_type.items()
        }
        # Drained, every source was expanded exactly once.
        sources = [s for s in library.sketch_sources if isinstance(s, Call)]
        assert sorted(derivations, key=repr) == sorted(sources, key=repr)
        assert library.sketch_count == sum(len(sketches_from_stub(s)) for s in sources)
        assert _distinct(library) == distinct  # read back: nothing derived twice
        assert len(derivations) == len(sources)


class _ConstPricedFlops(FlopsCostModel):
    """FLOPs plus one unit and the magnitude of each constant operand: a hole
    at a constant makes its parent cheaper, so ``Const``-hole sketches move."""

    name = "flops-const-priced"

    def op_cost(self, op, arg_types, out_type, attrs):
        extra = sum(1.0 + abs(v) for _, v in attrs.get("__const_args", ()))
        return super().op_cost(op, arg_types, out_type, attrs) + extra


def _model(kind, bench):
    return (FlopsCostModel if kind == "flops" else _ConstPricedFlops)(dim_map=bench.dim_map)


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["flops", "const-priced"])
def test_lazy_pools_equal_the_eager_oracle(kind, monkeypatch):
    """Every pool the DFS asks for, drained, is the eager pool element for element."""
    pools, libraries = {}, []
    real = SearchContext.sketch_pool

    def recording(self, spec):
        pool = real(self, spec)
        pools[TensorType(spec.dtype, spec.shape), spec.input_names()] = pool
        libraries.append(self.library)
        return pool

    monkeypatch.setattr(SearchContext, "sketch_pool", recording)
    cheaper_than_source = 0
    for kernel in SEARCH_KERNELS:
        bench = get_benchmark(kernel)
        model = _model(kind, bench)  # the oracle's: nothing shared with the search
        pools.clear()
        libraries.clear()
        config = CONFIGS["default"].replace(timeout_seconds=60)
        superoptimize_program(bench.parse_synth(), cost_model=_model(kind, bench), config=config)
        library = libraries[0]
        assert all(lib is library for lib in libraries)  # one search
        everything = _eager_sketches(library, model)
        for (spec_type, names), pool in pools.items():
            expected, cut = _eager_pool(everything, spec_type, names, model)
            read = islice(pool, MAX_CANDIDATES_PER_NODE)
            assert _listing(read) == _listing(expected), (kernel, spec_type, names)
            assert pool.reaches(MAX_CANDIDATES_PER_NODE) == cut, (kernel, spec_type, names)
        cheaper_than_source += sum(
            model.program_cost(sk.root) < model.program_cost(source)
            for source in library.sketch_sources if isinstance(source, Call)
            for sk in sketches_from_stub(source)
        )
    # Only a model that prices constant operands makes a constant's hole cheaper.
    assert (cheaper_than_source > 0) == (kind == "const-priced")


def test_pool_cap_ends_only_synth_5():
    """``search.prune.cap``: a node read its whole pool and the cap had cut it."""
    counts = {
        kernel: run_synthesis(get_benchmark(kernel), "flops").stats["metrics"]["counters"].get(
            "search.prune.cap", 0
        )
        for kernel in SEARCH_KERNELS
    }
    assert counts == {kernel: int(kernel == "synth_5") for kernel in SEARCH_KERNELS}


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
