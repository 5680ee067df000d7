"""Sketch library construction (the left side of Fig. 2).

A :class:`Library` holds the enumerated stubs — indexed by residue battery
(and, for battery-weak stubs, by value bucket on the first weak MATCH probe)
for the base-case MATCH of Algorithm 2 — and the sketches derived from them,
indexed by output type for fast filtering in SOLVE.  The sketches are
derived and priced by the active cost model when SOLVE first asks for them:
a search that ends at the base-case MATCH never reads one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

from repro.cost.base import CostModel
from repro.ir.nodes import Call, Node
from repro.ir.parser import Program
from repro.ir.types import DType, TensorType
from repro.obs.trace import get_tracer
from repro.symexec.engine import symbolic_execute
from repro.symexec.residues import BatteryTable, residue_key, tensor_residues, weak_bucket
from repro.symexec.symtensor import SymTensor
from repro.synth.cache import dump_library, library_key, load_library
from repro.synth.config import SynthesisConfig
from repro.synth.enumerator import StubEntry, StubEnumerator
from repro.synth.sketch import Hole, Sketch, sketches_from_stub


@dataclass
class Library:
    """Stub and sketch library for one synthesis problem."""

    stubs: list[StubEntry]
    stubs_by_sig: dict[tuple, list[StubEntry]]
    #: What the first SOLVE derives :attr:`sketches` from.
    sketch_sources: list[Node]
    multi_hole: bool
    cost_model: CostModel
    from_cache: bool = False
    #: Residue-battery index: residue_key -> stub (the value tier of MATCH).
    stubs_by_val: dict[tuple, StubEntry] = field(default_factory=dict)
    #: Seconds the sketch derivation took; 0.0 while none has been derived.
    derive_seconds: float = 0.0

    def stubs_with_signature(self, shape: tuple[int, ...], dtype: DType) -> list[StubEntry]:
        """Stubs sharing shape/dtype — candidates for slow-path matching."""
        return self.stubs_by_sig.get((shape, dtype), [])

    @cached_property
    def weak_by_bucket(self) -> dict[tuple | None, list[StubEntry]]:
        """Battery-weak stubs by value bucket, built on the first weak probe.

        No canonical key is computed to build it: a restored library keys a
        weak stub only when a spec lands in its bucket.
        """
        buckets: dict[tuple | None, list[StubEntry]] = {}
        for entry in self.stubs:
            if entry.res is None:
                buckets.setdefault(weak_bucket(entry.tensor), []).append(entry)
        return buckets

    @cached_property
    def weak_by_key(self) -> dict[tuple, StubEntry]:
        """Exact-key view of the battery-weak stubs; reading it keys them all.

        MATCH goes through :meth:`match_weak`, which reads it only for a
        spec that has no bucket.
        """
        return {entry.key: entry for entry in self.stubs if entry.res is None}

    def match_weak(self, spec: SymTensor, key: tuple) -> StubEntry | None:
        """The battery-weak stub whose canonical key is ``key``, if any.

        The spec's bucket only narrows where to look: a hit is always an
        equal canonical key (compared entry by entry), never an equal bucket.
        """
        bucket = weak_bucket(spec)
        if bucket is None:
            return self.weak_by_key.get(key)
        for entry in self.weak_by_bucket.get(bucket, ()):
            if entry.has_key(key):
                return entry
        return None

    @cached_property
    def sketches(self) -> list[Sketch]:
        """Every sketch, cheapest first — derived and priced on the first read."""
        start = time.monotonic()
        sketches: list[Sketch] = []
        seen_roots: set[Node] = set()
        for source in self.sketch_sources:
            if not isinstance(source, Call):
                continue  # terminals produce no sketches
            for sk in sketches_from_stub(source, multi_hole=self.multi_hole):
                if sk.root in seen_roots:
                    continue
                seen_roots.add(sk.root)
                sketches.append(sk.with_cost(self.cost_model.program_cost(sk.root)))
        sketches.sort(key=lambda s: (s.cost, s.root.num_nodes))
        self.derive_seconds = time.monotonic() - start
        tracer = get_tracer()
        if tracer.enabled:
            tracer.complete(
                "derive-sketches", "enum", start=start, duration=self.derive_seconds,
                sources=len(self.sketch_sources), sketches=len(sketches),
            )
        return sketches

    @cached_property
    def sketches_by_type(self) -> dict[TensorType, list[Sketch]]:
        by_type: dict[TensorType, list[Sketch]] = {}
        for sk in self.sketches:
            by_type.setdefault(sk.root.type, []).append(sk)
        return by_type

    def sketches_for(self, type: TensorType) -> list[Sketch]:
        return self.sketches_by_type.get(type, [])

    @property
    def stub_count(self) -> int:
        return len(self.stubs)

    @property
    def sketch_count(self) -> int:
        """Sketches derived so far: 0 until a SOLVE has asked for them."""
        return len(self.__dict__.get("sketches", ()))  # where cached_property keeps it


def build_library(
    program: Program,
    config: SynthesisConfig,
    cost_model: CostModel,
    cache=None,
    fingerprint: str = "",
    budget=None,
) -> Library:
    """Enumerate stubs for ``program``; sketches follow at the first SOLVE.

    With a :class:`~repro.synth.cache.PersistentCache`, the admitted stubs
    and sketch sources are stored per program signature as a node table: a
    warm run skips candidate generation and observational deduplication
    entirely and only re-derives the admitted stubs' identities (see
    :func:`_restore_stubs`).  A :class:`~repro.resilience.Budget` bounds
    enumeration: on expiry the partial library is returned (and not cached —
    it is sound but smaller than a full enumeration would produce).
    """
    cache_key = None
    if cache is not None:
        cache_key = library_key(fingerprint, program)
        payload = cache.library_get(cache_key)
        if payload is not None:
            library = _library_from_payload(payload, program, config, cost_model)
            if library is not None:
                return library
            cache.library_reject(cache_key)  # undecodable: a miss, to be replaced
    enumerator = StubEnumerator(program, config, cost_model=cost_model, budget=budget)
    stubs = enumerator.enumerate()
    library = _assemble_library(stubs, enumerator.sketch_sources, config, cost_model)
    if budget is not None and budget.expired():
        return library  # partial: do not poison the persistent cache with it
    if cache is not None and cache_key is not None:
        cache.library_put(
            cache_key,
            dump_library([e.node for e in stubs], enumerator.sketch_sources),
        )
    return library


def _library_from_payload(
    payload: dict, program: Program, config: SynthesisConfig, cost_model: CostModel
) -> Library | None:
    """Rebuild a library from a cached node table (None on any failure)."""
    try:
        nodes, sources = load_library(payload, program.input_types)
        stubs = _restore_stubs(nodes)
    except Exception:  # noqa: BLE001 — the cache is an accelerator: re-enumerate
        return None
    library = _assemble_library(stubs, sources, config, cost_model)
    library.from_cache = True
    return library


def _restore_stubs(nodes: list[Node]) -> list[StubEntry]:
    """Stub entries for cached stub ``nodes``, identities derived afresh.

    Replays what the cold enumerator did for exactly these nodes, bottom-up:
    a call whose arguments are all residue-safe gets its battery by
    composition and keeps its symbolic tensor lazy; terminals and everything
    :meth:`BatteryTable.compose` has no opinion on (irrational values,
    booleans, non-integer constants) are symbolically executed and take
    ``tensor_residues`` or, battery-weak, keep that tensor and leave their
    canonical key for whoever first asks.  Nothing but IR structure is
    trusted from disk.
    """
    shared: dict[Node, SymTensor] = {}
    batteries = BatteryTable()
    done: dict[Node, tuple] = {}

    def derive(node: Node) -> tuple:
        """``(battery | None, executed tensor | None)`` of ``node``."""
        out = done.get(node)
        if out is None:
            res = tensor = None
            if isinstance(node, Call):
                for arg in node.args:
                    derive(arg)
                res = batteries.compose(node)
            if res is None:
                tensor = symbolic_execute(node, cache=shared)
                res = tensor_residues(tensor)
            if res is not None:
                batteries.register(node, res)
            out = done[node] = (res, tensor)
        return out

    stubs = []
    for node in nodes:
        res, tensor = derive(node)
        stubs.append(StubEntry(node, tensor, res=res, exec_cache=shared))
    return stubs


def _assemble_library(
    stubs: list[StubEntry],
    sketch_sources: list[Node],
    config: SynthesisConfig,
    cost_model: CostModel,
) -> Library:
    stubs_by_sig: dict[tuple, list[StubEntry]] = {}
    stubs_by_val: dict[tuple, StubEntry] = {}
    for entry in stubs:
        # Signature from the IR type, not the tensor: residue-admitted stubs
        # keep their symbolic tensors lazy through assembly.
        sig = (entry.node.type.shape, entry.node.type.dtype)
        stubs_by_sig.setdefault(sig, []).append(entry)
        if entry.res is not None:
            stubs_by_val[residue_key(sig[0], sig[1], entry.res)] = entry

    return Library(
        stubs=stubs,
        stubs_by_sig=stubs_by_sig,
        sketch_sources=sketch_sources,
        multi_hole=config.multi_hole_sketches,
        cost_model=cost_model,
        stubs_by_val=stubs_by_val,
    )


def retype_sketch(sketch: Sketch, spec_type: TensorType, cost_model: CostModel) -> Sketch | None:
    """Rebuild an elementwise-rooted sketch so its hole matches ``spec_type``.

    ``add(??, y)`` derived from ``add(x, y)`` has a hole typed like ``x``;
    against a larger (broadcast-compatible) spec the hole must widen — e.g.
    vec_lerp's spec is (n, m) while ``x`` is (m,).  Only sketches whose hole
    is a direct child of an elementwise root are retyped.
    """
    from repro.ir.ops import get_op

    root = sketch.root
    if sketch.num_holes != 1 or not isinstance(root, Call) or len(sketch.hole_path) != 1:
        return None
    if not get_op(root.op).elementwise:
        return None
    new_hole = Hole(0, TensorType(sketch.hole.type.dtype, spec_type.shape))
    args = list(root.args)
    args[sketch.hole_path[0]] = new_hole
    try:
        new_root = Call(root.op, tuple(args), **dict(root.attrs))
    except Exception:
        return None
    if new_root.type != spec_type:
        return None
    return Sketch(
        new_root, (new_hole,), sketch.hole_paths, cost_model.program_cost(new_root)
    )
