"""The persistent cache's library section: restore by replayed admission.

The contract: a library rebuilt from a saved-and-reloaded cache is the cold
library — same stubs in the same order with byte-equal residue batteries (or
equal canonical keys for battery-weak stubs), same sketches in the same
order — while only terminals and stubs the compositional evaluator has no
opinion on are symbolically executed; and anything wrong with the stored
node table costs a cold enumerate, never a different answer.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.cost import make_cost_model
from repro.ir.nodes import Call, Const
from repro.ir.parser import parse
from repro.ir.types import DType, float_tensor
from repro.pipeline import KernelSpec, ModuleOptimizer
from repro.synth import PersistentCache, SynthesisConfig
from repro.synth import library as library_mod
from repro.synth.cache import dump_library, load_library, synthesis_fingerprint
from repro.synth.config import DEFAULT_CONFIG
from repro.synth.library import build_library
from tests.cachefile import read_section, rewrite_section

CONFIG = SynthesisConfig(timeout_seconds=90)

#: name -> (source, input shapes).  Rational fragment, solver-reaching,
#: sqrt (battery-weak route) and predicate (boolean stubs) kernels.
KERNELS = {
    "matmul": ("np.dot(A, B)", {"A": (2, 2), "B": (2, 2)}),
    "exp_log": ("np.exp(np.log(A + B))", {"A": (2, 2), "B": (2, 2)}),
    "diag_dot": ("np.diag(np.dot(A, B))", {"A": (2, 2), "B": (2, 2)}),
    "synth_11": ("A * A * A * A * A", {"A": (2, 3)}),
    "synth_3": ("(A + B) / np.sqrt(A + B)", {"A": (2, 2), "B": (2, 2)}),
    "where_less": ("np.where(A < B, A, B)", {"A": (2,), "B": (2,)}),
}


def _program(name):
    source, shapes = KERNELS[name]
    return parse(source, {k: float_tensor(*s) for k, s in shapes.items()}, name=name)


def _cold_then_warm(name, tmp_path, tamper=None):
    """Cold build into a cache, save, reload from disk, build again."""
    program, model = _program(name), make_cost_model("flops")
    cache = PersistentCache(tmp_path)
    cold = build_library(program, CONFIG, model, cache=cache, fingerprint="fp")
    cache.save()
    if tamper is not None:
        rewrite_section(tmp_path, "library", tamper)
    reloaded = PersistentCache(tmp_path)
    warm = build_library(program, CONFIG, model, cache=reloaded, fingerprint="fp")
    return cold, warm


def _assert_same_library(cold, warm):
    assert [e.node for e in warm.stubs] == [e.node for e in cold.stubs]
    for c, w in zip(cold.stubs, warm.stubs):
        assert (w.res is None) == (c.res is None), c.node
        if c.res is not None:
            assert w.res.dtype == c.res.dtype and w.res.shape == c.res.shape
            assert w.res.tobytes() == c.res.tobytes(), c.node
        else:
            assert w.key == c.key, c.node
    assert warm.sketch_sources == cold.sketch_sources
    assert [(s.root, s.cost) for s in warm.sketches] == [
        (s.root, s.cost) for s in cold.sketches
    ]
    assert list(warm.stubs_by_val) == list(cold.stubs_by_val)
    assert list(warm.weak_by_key) == list(cold.weak_by_key)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_restored_library_equals_cold(name, tmp_path):
    cold, warm = _cold_then_warm(name, tmp_path)
    assert not cold.from_cache and warm.from_cache
    _assert_same_library(cold, warm)


def test_weak_and_boolean_kernels_exercise_the_key_route(tmp_path):
    for name in ("synth_3", "where_less"):
        cold, _ = _cold_then_warm(name, tmp_path / name)
        assert any(e.res is None for e in cold.stubs), name
        assert any(e.res is not None for e in cold.stubs), name


def test_restore_executes_only_terminals_and_weak_stubs(tmp_path, monkeypatch):
    program, model = _program("diag_dot"), make_cost_model("flops")
    cache = PersistentCache(tmp_path)
    cold = build_library(program, CONFIG, model, cache=cache, fingerprint="fp")
    cache.save()

    executed = []
    real = library_mod.symbolic_execute

    def counting(node, cache=None):
        executed.append(node)
        return real(node, cache=cache)

    monkeypatch.setattr(library_mod, "symbolic_execute", counting)
    warm = build_library(
        program, CONFIG, model, cache=PersistentCache(tmp_path), fingerprint="fp"
    )
    assert warm.from_cache
    compound = [n for n in executed if isinstance(n, Call)]
    assert len(set(executed)) == len(executed)
    # Every compound node the restore executed is one composition has no
    # opinion on; every other stub was priced from its arguments' batteries
    # and stays lazy, exactly as the cold enumerator leaves it.
    assert all(_no_opinion(n) for n in compound), [n for n in compound if not _no_opinion(n)]
    composed = [e for e in warm.stubs if isinstance(e.node, Call) and not _no_opinion(e.node)]
    assert len(composed) > len(compound)
    assert all(e.res is not None and e._tensor is None for e in composed)
    assert not set(compound) & {e.node for e in composed}


def _no_opinion(node):
    """Does ``node`` contain something ``residues.compose`` will not price?"""
    return any(
        (isinstance(n, Call) and (n.op == "sqrt" or n.type.dtype is DType.BOOL))
        or (isinstance(n, Const) and not np.all(n.value == np.round(n.value)))
        for n in node.walk()
    )


def _dangling(raw):
    for entry in raw["entries"].values():
        row = next(r for r in entry["nodes"] if r[1])
        row[1][0] = len(entry["nodes"]) + 7


def _negative(raw):
    for entry in raw["entries"].values():
        row = next(r for r in entry["nodes"] if r[1])
        row[1][0] = -1


def _unknown_op(raw):
    for entry in raw["entries"].values():
        next(r for r in entry["nodes"] if r[1])[0] = "no_such_op"


def _bad_attr(raw):
    for entry in raw["entries"].values():
        next(r for r in entry["nodes"] if r[0] == "sum")[2] = {"axis": "x"}


def _unknown_input(raw):
    for entry in raw["entries"].values():
        next(r for r in entry["nodes"] if r[0] == "$input")[2] = {"name": "Z"}


def _v1_format(raw):
    raw["version"] = 1
    for key in raw["entries"]:
        raw["entries"][key] = {"stubs": ["A", "B"], "sources": ["np.add(A, B)"]}


def _v1_payload_under_v2(raw):
    for key in raw["entries"]:
        raw["entries"][key] = {"stubs": ["A", "B"], "sources": ["np.add(A, B)"]}


@pytest.mark.parametrize(
    "tamper",
    [_dangling, _negative, _unknown_op, _bad_attr, _unknown_input, _v1_format,
     _v1_payload_under_v2],
    ids=lambda f: f.__name__.strip("_"),
)
def test_malformed_library_falls_back_to_cold_enumerate(tamper, tmp_path):
    cold, warm = _cold_then_warm("matmul", tmp_path, tamper=tamper)
    assert not warm.from_cache
    _assert_same_library(cold, warm)


def test_undecodable_entry_is_a_miss_and_is_replaced_on_save(tmp_path):
    program, model = _program("matmul"), make_cost_model("flops")
    _cold_then_warm("matmul", tmp_path, tamper=_unknown_op)  # its warm cache is never saved

    repairing = PersistentCache(tmp_path)
    rebuilt = build_library(program, CONFIG, model, cache=repairing, fingerprint="fp")
    assert not rebuilt.from_cache
    assert (repairing.stats.library_hits, repairing.stats.library_misses) == (0, 1)
    # The replacement is ours, and says which entry it replaces: a tombstone
    # for the key, then the re-enumerated entry under the same key.
    before = len(read_section(tmp_path, "library")[1])
    repairing.save()
    tombstone, replacement = read_section(tmp_path, "library")[1][before:]
    assert tombstone == {"k": replacement["k"], "drop": True} and "v" in replacement
    assert not (tmp_path / "solver.json").exists()  # nothing else was ours

    fresh = PersistentCache(tmp_path)  # another process, after the repair
    warm = build_library(program, CONFIG, model, cache=fresh, fingerprint="fp")
    assert warm.from_cache
    assert (fresh.stats.library_hits, fresh.stats.library_misses) == (1, 0)
    size = (tmp_path / "library.json").stat().st_size
    fresh.save()  # a hit is not ours to write again
    assert (tmp_path / "library.json").stat().st_size == size
    _assert_same_library(rebuilt, warm)


def test_pool_parent_drops_the_undecodable_entry_its_worker_replaced(tmp_path):
    """Every process of a pool run may hold the same bad copy as the worker
    that hit it; first-writer-wins must not keep it over that worker's
    re-enumeration — the tombstone goes through the file like the entry."""
    module = [KernelSpec(name, *KERNELS[name]) for name in ("matmul", "exp_log")]
    ModuleOptimizer(config=CONFIG, cache=tmp_path).optimize_module(module)
    rewrite_section(tmp_path, "library", _unknown_op)

    ModuleOptimizer(config=CONFIG, cache=tmp_path).optimize_module(module, parallel=2)

    fresh, model = PersistentCache(tmp_path), make_cost_model("flops")
    for name in ("matmul", "exp_log"):
        warm = build_library(
            _program(name), CONFIG, model, cache=fresh,
            fingerprint=synthesis_fingerprint(CONFIG, model),
        )
        assert warm.from_cache, name


def test_default_fingerprint_is_pinned():
    """Caches, journals, request logs and stores written so far stay valid.

    Moved with ``CACHE_VERSION`` 4, when four never-set fields left the
    config (21 -> 17), again when the two solver knobs became the
    always-on generic fallback and ``solver.MAX_UNKNOWNS`` (17 -> 15), and
    again when ``verify_numeric_trials`` left it (15 -> 14): the trial
    count is fixed inside ``repro.verify``, the one verifier.  Moved again
    when three fields only tests set left it (14 -> 11): two-hole sketch
    derivation was deleted, and the stub-size and recursion-depth limits
    became the module constants ``enumerator.MAX_STUB_ENTRIES`` and
    ``search.MAX_RECURSION_DEPTH`` with their old default values."""
    assert len(dataclasses.fields(DEFAULT_CONFIG)) == 11
    assert synthesis_fingerprint(DEFAULT_CONFIG, make_cost_model("flops")) == "c7059e36d5bd2994"


def test_node_table_roundtrip_is_structural():
    program = parse(
        "np.sum(np.transpose(A) * 2.5, axis=0) + np.full((2, 2), 3.0)",
        {"A": float_tensor(2, 2)},
    )
    nodes = list(program.node.walk())
    payload = json.loads(json.dumps(dump_library(nodes[:3], nodes)))
    stubs, sources = load_library(payload, program.input_types)
    assert stubs == nodes[:3] and sources == nodes
    assert [n.type for n in sources] == [n.type for n in nodes]
    # One row per distinct subtree, arguments first.
    assert len(payload["nodes"]) == len(set(nodes))
    for i, (_op, args, _attrs) in enumerate(payload["nodes"]):
        assert all(a < i for a in args)


def test_library_payload_survives_delta_and_absorb(tmp_path):
    """A worker's delta is what its ``save`` appends; a live peer absorbs it
    with ``refresh``, and what it absorbed is not the peer's own to append."""
    program, model = _program("exp_log"), make_cost_model("flops")
    peer = PersistentCache(tmp_path)
    assert peer.library_get("warm-up") is None  # loaded before the worker wrote
    worker = PersistentCache(tmp_path)
    cold = build_library(program, CONFIG, model, cache=worker, fingerprint="fp")
    worker.save()
    assert [p.name for p in tmp_path.glob("*.json")] == ["library.json"]
    size = (tmp_path / "library.json").stat().st_size
    peer.refresh()
    warm = build_library(program, CONFIG, model, cache=peer, fingerprint="fp")
    assert warm.from_cache
    _assert_same_library(cold, warm)
    peer.save()
    assert (tmp_path / "library.json").stat().st_size == size


def test_module_summary_identical_cold_and_warm(tmp_path):
    module = [
        KernelSpec("exp_log", "np.exp(np.log(A + B))", {"A": (3, 3), "B": (3, 3)}),
        KernelSpec("diag_dot", "np.diag(np.dot(A, B))", {"A": (2, 2), "B": (2, 2)}),
        KernelSpec("synth_3", "(A + B) / np.sqrt(A + B)", {"A": (2, 2), "B": (2, 2)}),
    ]
    cold = ModuleOptimizer(config=CONFIG, cache=tmp_path).optimize_module(module)
    warm_opt = ModuleOptimizer(config=CONFIG, cache=tmp_path)
    warm = warm_opt.optimize_module(module)
    assert warm.summary() == cold.summary()
    assert [o.optimized_source for o in warm.outcomes] == [
        o.optimized_source for o in cold.outcomes
    ]
    stats = warm_opt.cache.stats
    assert stats.library_hits == 3 and stats.library_misses == 0
    assert stats.solver_misses == 0
