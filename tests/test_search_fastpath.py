"""The DFS asks SymPy last: each reordering against the order it replaced.

Four oracles, one per shortcut.  (a) PRUNE-before-prove against
prove-before-PRUNE; (b) residue-decided density against asking ``is_zero`` of
every entry; (c) the lazy cheapest-first MATCH scan against list-then-sort;
(d) the three-valued solver section against cache state — cold, warm and
``parallel=2`` print one summary, and nothing unverified reaches the disk.
"""

import json

import numpy as np
import pytest
import sympy as sp
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import prescreen
from repro.ir.types import DType
from repro.pipeline import KernelSpec, ModuleOptimizer
from repro.symexec.canonical import equivalent
from repro.symexec.residues import residue_key, tensor_residues
from repro.symexec.symtensor import SymTensor, element_symbol
from repro.synth import SynthesisConfig, search
from repro.synth.cache import CACHE_VERSION
from repro.synth.solver import SketchSolver
from tests.cachefile import read_section
from tests.test_prune_floor import SQUARE, _run

CONFIG = SynthesisConfig(timeout_seconds=120)


# -- (a) PRUNE before prove ------------------------------------------------------


def _prove_then_prune(real):
    """``solve_all`` in the order Algorithm 2 prints: verify every hit, then
    PRUNE — on the normalized hole spec only, so no floor before ``cancel``."""

    def solve_all(self, sketch, spec, keep=None, keep_raw=None):
        hole_spec = real(self, sketch, spec)
        if hole_spec is None or keep is None:
            return hole_spec
        return keep(hole_spec) or hole_spec

    return solve_all


@pytest.mark.parametrize(
    "kernel",
    ["synth_11", "synth_12", "synth_1", "diag_dot_2x2",
     pytest.param("synth_5", marks=pytest.mark.slow)],
)
def test_pruning_before_proving_changes_no_outcome(kernel, monkeypatch):
    proofs = []
    real_holds = SketchSolver._decomposition_holds

    def counting_holds(self, sketch, hole_spec, spec):
        proofs.append(sketch)
        return real_holds(self, sketch, hole_spec, spec)

    monkeypatch.setattr(SketchSolver, "_decomposition_holds", counting_holds)
    fast = _run(kernel)
    fast_proofs = len(proofs)

    monkeypatch.setattr(SketchSolver, "solve_all", _prove_then_prune(SketchSolver.solve_all))
    oracle = _run(kernel)

    assert fast.optimized_source == oracle.optimized_source
    assert (fast.optimized_cost, fast.improved) == (oracle.optimized_cost, oracle.improved)
    for count in ("nodes_expanded", "pruned_bound", "base_case_matches", "memo_hits",
                  "solver_calls"):
        assert getattr(fast.stats, count) == getattr(oracle.stats, count), count
    # One proof per sketch the search recursed into, and none besides.
    recursed = fast.stats.metrics.snapshot()["counters"]["solver.verified"]
    assert fast_proofs == recursed
    assert fast_proofs < len(proofs) - fast_proofs  # the oracle proved the pruned ones too
    assert fast.stats.solver_hits - fast.stats.pruned_simplification == recursed


# -- (b) density by residues -----------------------------------------------------

_A, _B = (element_symbol(n, (0, 0)) for n in "AB")
_C = element_symbol("C", (0,), boolean=True)

#: Entries the battery proves non-zero, leaves open (identically zero at every
#: point, or at the battery points only by construction), or cannot tokenize.
_ENTRIES = (
    sp.S.Zero,
    sp.Integer(3),
    _A,
    _A * _B - _B * _A,  # collapses to the literal 0
    (_A + _B) ** 2 - _A**2 - 2 * _A * _B - _B**2,  # zero, but is_zero cannot tell
    _A / _B - _A / _B,
    _A / _B,
    sp.sqrt(_A),  # no battery: the whole tensor falls back
    sp.sqrt(_A) - sp.sqrt(_A),
    sp.Piecewise((_A, _C), (sp.S.Zero, True)),  # a ``where`` mask
    sp.Piecewise((sp.S.Zero, _C), (sp.S.Zero, True)),
)


def _reference_density(tensor):
    def is_zero(e):
        try:
            return bool(e.is_zero)
        except (AttributeError, TypeError):
            return False

    return sum(0 if is_zero(e) else 1 for e in tensor.entries()) / tensor.size


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(st.sampled_from(_ENTRIES), min_size=1, max_size=9),
    st.booleans(),
)
def test_density_by_residues_equals_asking_every_entry(entries, triu):
    data = np.array(entries, dtype=object)
    if len(entries) in (4, 9):
        side = int(len(entries) ** 0.5)
        data = data.reshape(side, side)
        if triu:
            data[np.tril_indices(side, -1)] = sp.S.Zero
    tensor = SymTensor(data, DType.FLOAT)
    assert tensor.density() == _reference_density(tensor)


def test_density_of_boolean_tensors_asks_sympy():
    tensor = SymTensor(np.array([_C, sp.true, sp.false], dtype=object), DType.BOOL)
    assert tensor_residues(tensor) is None
    assert tensor.density() == _reference_density(tensor)


# -- (c) lazy MATCH scan ---------------------------------------------------------


def _eager_match(spec, key, ctx):
    """MATCH as it was: materialize every same-signature stub, filter, sort, cut."""
    res = tensor_residues(spec)
    entry = None
    if res is not None:
        entry = ctx.library.stubs_by_val.get(residue_key(spec.shape, spec.dtype, res))
    if entry is None:
        entry = ctx.library.weak_by_key.get(key)
    if entry is not None:
        return entry
    names = spec.input_names()
    candidates = [
        e
        for e in ctx.library.stubs_with_signature(spec.shape, spec.dtype)
        if e.tensor.input_names() == names
    ]
    candidates.sort(key=lambda e: ctx.cost_model.program_cost(e.node))
    for e in candidates[:24]:
        if res is not None and e.res is not None:
            if e.res.shape != res.shape or not (e.res == res).all():
                continue
        if prescreen.tensors_disjoint(e.tensor, spec):
            continue
        if equivalent(e.tensor, spec):
            return e
    return None


def test_lazy_match_scan_returns_what_the_eager_scan_returned(monkeypatch):
    real = search._match_base_case
    visited = []

    def checked(spec, key, ctx):
        got = real(spec, key, ctx)
        visited.append(got)
        assert got is _eager_match(spec, key, ctx)
        return got

    monkeypatch.setattr(search, "_match_base_case", checked)
    result = _run("diag_dot_2x2")
    assert result.improved
    assert any(e is None for e in visited) and any(e is not None for e in visited)


# -- (d) the three-valued solver section ------------------------------------------

MODULE = [
    KernelSpec("diag_dot", "np.diag(np.dot(A, B))", SQUARE),
    KernelSpec("synth_11", "A * A * A * A * A", {"A": (2, 3)}),
    KernelSpec("synth_12", "A + A + A + A + A", {"A": (2, 3)}),
]


def _solver_entries(path):
    """The solver section as a fresh process folds it."""
    from repro.synth.cache import PersistentCache

    assert read_section(path, "solver")[0]["version"] == CACHE_VERSION == 4
    return PersistentCache(path)._load("solver")


def test_cold_warm_and_parallel_agree_and_nothing_unverified_is_stored(tmp_path):
    seq, par = tmp_path / "seq", tmp_path / "par"
    cold = ModuleOptimizer(config=CONFIG, cache=seq).optimize_module(MODULE)
    warm_opt = ModuleOptimizer(config=CONFIG, cache=seq)
    warm = warm_opt.optimize_module(MODULE)
    pooled = ModuleOptimizer(config=CONFIG, cache=par).optimize_module(MODULE, parallel=2)

    assert "simplification" in cold.summary()
    assert warm.summary() == cold.summary() == pooled.summary()
    assert warm_opt.cache.stats.solver_misses == 0
    counters = [r.metrics_rollup()["counters"] for r in (cold, warm, pooled)]
    for name in ("search.prune.simplification", "solver.hits", "solver.verified"):
        assert counters[0][name] == counters[1][name] == counters[2][name] > 0, name
    # The floor runs after a cache miss only: the warm run floors nothing,
    # and the summary's query total counts floor prunes as queries.
    assert counters[0]["solver.floor_pruned"] > 0
    assert "solver.calls" not in counters[1] and "solver.floor_pruned" not in counters[1]

    for path in (seq, par):
        kinds = {"unsolvable": 0, "pruned": 0, "verified": 0}
        for entry in _solver_entries(path).values():
            if entry == {"solved": False}:
                kinds["unsolvable"] += 1
            elif set(entry) == {"pruned"}:
                assert isinstance(entry["pruned"], float)
                kinds["pruned"] += 1
            else:
                assert set(entry) == {"solved", "tensors"} and entry["solved"] is True
                kinds["verified"] += 1
        assert all(kinds.values()), kinds
        # A query asked twice in one run is stored once.
        assert kinds["verified"] <= counters[0]["solver.verified"]
        assert kinds["pruned"] <= counters[0]["search.prune.simplification"]


def test_v2_cache_directory_is_ignored_and_replaced(tmp_path):
    stale = {"solved": True, "tensors": [{"shape": [], "dtype": "float", "entries": ["Integer(1)"]}]}
    for section in ("solver", "library"):
        (tmp_path / f"{section}.json").write_text(
            json.dumps({"version": 2, "entries": {"stale-key": stale}})
        )
    opt = ModuleOptimizer(config=CONFIG, cache=tmp_path)
    opt.optimize_module(MODULE[1:])
    assert opt.cache.stats.solver_hits == 0 and opt.cache.stats.library_hits == 0
    assert "stale-key" not in _solver_entries(tmp_path)
    assert read_section(tmp_path, "library")[0]["version"] == CACHE_VERSION


def test_pruned_entry_answers_only_an_asker_it_would_prune_again(tmp_path):
    from repro.synth.cache import MISS, PersistentCache
    from repro.synth.solver import Pruned

    cache = PersistentCache(tmp_path)
    cache.solver_put("k", Pruned(1.5))
    assert cache.solver_get("k", 1.5) == Pruned(1.5)
    assert cache.solver_get("k", 1.0) == Pruned(1.5)
    assert cache.solver_get("k", 2.0) is MISS  # 1.5 < 2.0 would simplify: unknown
    cache.solver_put("k", None)  # re-solved past the marker: the stronger fact stays
    assert cache.solver_get("k", 2.0) is None
    cache.solver_put("k", Pruned(9.0))
    assert cache.solver_get("k", 2.0) is None


_PRUNED = {"pruned": 1.5}
_VERIFIED = {"solved": True, "tensors": [{"shape": [], "dtype": "float", "entries": ["Integer(1)"]}]}
_UNSOLVABLE = {"solved": False}


@pytest.mark.parametrize("answer", [_VERIFIED, _UNSOLVABLE], ids=["verified", "unsolvable"])
@pytest.mark.parametrize("point", ["merge_delta", "absorb", "save"])
def test_a_solver_answer_supersedes_a_pruned_marker_never_the_reverse(tmp_path, point, answer):
    """Two copies of one key now only ever meet in the section file.  The ids
    keep the names of the three places they used to meet: ``merge_delta`` —
    we hold ours unsaved when a worker's copy arrives (``refresh``);
    ``absorb`` — ours is already durable when a peer's arrives behind it;
    ``save`` — ours is appended behind a concurrent run's, unseen."""
    from repro.synth.cache import PersistentCache

    def meet(ours, theirs):
        """The solver entry for one key after our copy met theirs at ``point``."""
        path = tmp_path / f"{point}-{'pruned' in ours}"
        other = PersistentCache(path)
        other._load("solver")  # a peer that loaded before ours was anywhere
        cache = PersistentCache(path)
        cache._put("solver", "k", ours)
        if point == "absorb":
            cache.save()
        other._put("solver", "k", theirs)
        other.save()
        if point != "save":
            cache.refresh()
            live = cache._get("solver", "k")
        cache.save()
        assert len(read_section(path, "solver")[1]) == 2  # one line per finder
        folded = _solver_entries(path)["k"]
        if point != "save":
            assert live == folded
        cache.refresh()  # folding our own lines again changes nothing
        assert cache._get("solver", "k") == folded
        return folded

    assert meet(_PRUNED, answer) == answer
    assert meet(answer, _PRUNED) == answer
