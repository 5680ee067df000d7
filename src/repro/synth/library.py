"""Sketch library construction (the left side of Fig. 2).

A :class:`Library` holds what the search reads: the enumerated stubs but the
float constants — indexed by residue battery (and, for battery-weak stubs, by
value bucket on the first weak MATCH probe) for the base-case MATCH of
Algorithm 2 — and the call sources the sketches are derived from.  The
sketches of a type are derived and priced by the active cost model as SOLVE
reads them, cheapest first: a search that ends at the base-case MATCH
derives none, and one that stops at the bound derives little past it.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator

from repro.cost.base import CostModel
from repro.errors import TypeInferenceError
from repro.ir.nodes import Call, Const, Node
from repro.ir.ops import get_op
from repro.ir.parser import Program
from repro.ir.types import DType, TensorType
from repro.obs.metrics import bump
from repro.obs.trace import get_tracer
from repro.symexec.engine import symbolic_execute
from repro.symexec.residues import BatteryTable, residue_key, tensor_residues, weak_bucket
from repro.symexec.symtensor import SymTensor
from repro.synth.cache import dump_library, library_key, load_library
from repro.synth.config import SynthesisConfig
from repro.synth.enumerator import StubEntry, StubEnumerator, goal_key
from repro.synth.sketch import Sketch, hole_of, hole_sites, is_site, replace_at, sketches_from_stub


class Growing:
    """A list filled from ``source`` as far as it is read.  Every iteration
    keeps its own cursor, so a DFS node may read the pool an ancestor is
    still reading."""

    def __init__(self, source: Iterable) -> None:
        self.items: list = []
        self._source = iter(source)

    def __iter__(self) -> Iterator:
        i = 0
        while self.reaches(i):
            yield self.items[i]
            i += 1

    def reaches(self, i: int) -> bool:
        """Whether item ``i`` exists, read from the source if need be."""
        self.items.extend(islice(self._source, max(0, i + 1 - len(self.items))))
        return i < len(self.items)


def _fits(shape: tuple[int, ...], into: tuple[int, ...]) -> bool:
    """Whether ``shape`` broadcasts into ``into`` without widening it."""
    return len(shape) <= len(into) and all(d in (1, e) for d, e in zip(shape[::-1], into[::-1]))


def rank(sketch: Sketch) -> tuple[float, int]:
    """The order SOLVE tries sketches in: cheapest, then smallest, first."""
    return sketch.cost, sketch.root.num_nodes


@dataclass
class Library:
    """Stub and sketch library for one synthesis problem."""

    stubs: list[StubEntry]
    stubs_by_sig: dict[tuple, list[StubEntry]]
    #: The calls :meth:`sketches_of` derives sketches from, in enumeration order.
    sketch_sources: list[Call]
    cost_model: CostModel
    from_cache: bool = False
    #: Residue-battery index: residue_key -> stub (the value tier of MATCH).
    stubs_by_val: dict[tuple, StubEntry] = field(default_factory=dict, repr=False)
    #: Sketches derived so far and the seconds it took: 0 until a SOLVE reads one.
    sketch_count: int = 0
    derive_seconds: float = 0.0
    _streams: dict = field(default_factory=dict, repr=False)
    _retyped: dict = field(default_factory=dict, repr=False)

    def value_stub(self, key: tuple) -> StubEntry | None:
        """The stub whose residue key is ``key``, if any (MATCH's value tier)."""
        return self.stubs_by_val.get(key)

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
    def _sources_by_type(self) -> dict[TensorType, list[tuple[int, Call]]]:
        """The call sources with their indices, by type: their sketches' type."""
        by_type: dict[TensorType, list[tuple[int, Call]]] = {}
        for index, source in enumerate(self.sketch_sources):
            by_type.setdefault(source.type, []).append((index, source))
        return by_type

    def sketches_of(self, type: TensorType) -> Growing:
        """The sketches rooted at ``type`` by :func:`rank`, ties in source then
        path order, derived as read; a repeated root is the reader's to drop."""
        if type not in self._streams:
            self._streams[type] = Growing(self._derive(type))
        return self._streams[type]

    def _derive(self, type: TensorType) -> Iterator[Sketch]:
        """Merge the sources of ``type`` by the cheapest sketch each may have
        (:meth:`_floor`), expanding one only when that floor reaches the front."""
        price = self.cost_model.program_cost
        start = time.monotonic()  # the floors count toward the first expansion
        sources = self._sources_by_type.get(type, ())
        heap = [(self._floor(src), src.num_nodes, i, (), src) for i, src in sources]
        heapq.heapify(heap)
        while heap:
            _, size, index, _, item = heapq.heappop(heap)
            if isinstance(item, Sketch):
                yield item
            else:
                sketches = sketches_from_stub(item)
                for sk in sketches:
                    cost = price(sk.root)
                    heapq.heappush(heap, (cost, size, index, sk.hole_path, sk.with_cost(cost)))
                self._record(start, 1, len(sketches))
            start = time.monotonic()

    def _floor(self, source: Call) -> float:
        """The cost of ``source``'s cheapest sketch.  A hole is an ``Input`` of
        its site's type, so only one at a scalar constant may reprice an op
        (a measured model times constant operands): only those are priced."""
        price = self.cost_model.program_cost
        sites = hole_sites(source)
        consts = [replace_at(source, p, hole_of(n.type)) for p, n in sites if isinstance(n, Const)]
        return min([price(source), *map(price, consts)])

    def retyped(self, type: TensorType) -> list[Sketch]:
        """Sketches of other types whose hole, a direct argument of an
        elementwise root, widens to ``type`` (vec_lerp's (n, m) spec needs
        ``add(??, y)`` of ``add(x, y)`` with x (m,)), by :func:`rank`, ties in
        the order of the sketch widened."""
        if type in self._retyped:
            return self._retyped[type]
        start, price, ranked = time.monotonic(), self.cost_model.program_cost, []
        for other, group in self._sources_by_type.items():
            if other == type or other.dtype != type.dtype:
                continue  # the root's dtype follows its op and argument dtypes
            for index, source in group:
                if not get_op(source.op).elementwise:
                    continue
                # Widening one argument to ``type`` leaves every other as it is.
                fits = [_fits(a.type.shape, type.shape) for a in source.args]
                for k, arg in enumerate(source.args):
                    if not is_site(arg) or not all(fits[:k] + fits[k + 1 :]):
                        continue
                    hole = hole_of(TensorType(arg.type.dtype, type.shape))
                    args = source.args[:k] + (hole,) + source.args[k + 1 :]
                    try:
                        root = Call.with_args(source, args)
                    except TypeInferenceError:
                        continue
                    if root.type == type:
                        sk = Sketch(root, hole, (k,), price(root))
                        origin = price(replace_at(source, (k,), hole_of(arg.type)))
                        ranked.append((*rank(sk), origin, index, k, sk))
        ranked.sort(key=lambda r: r[:5])
        self._retyped[type] = [r[-1] for r in ranked]
        self._record(start, 0, len(ranked))
        return self._retyped[type]

    def _record(self, start: float, sources: int, sketches: int) -> None:
        seconds = time.monotonic() - start
        self.derive_seconds += seconds
        self.sketch_count += sketches
        if (tracer := get_tracer()).enabled:
            counts = {"sources": sources, "sketches": sketches}
            tracer.complete("derive-sketches", "enum", start=start, duration=seconds, **counts)

    @property
    def stub_count(self) -> int:
        return len(self.stubs)


def build_library(
    program: Program,
    config: SynthesisConfig,
    cost_model: CostModel,
    cache=None,
    fingerprint: str = "",
    budget=None,
    goal: SymTensor | None = None,
) -> Library:
    """Enumerate stubs for ``program``; sketches follow as SOLVE reads them.

    ``goal`` is the search's spec Φ: if Φ's class is reached, the last level
    keeps only its members (:mod:`repro.synth.enumerator`), so the library is
    only good for a search of Φ itself and is cached under a key of its own.
    A model whose estimates are timing runs prices only what battles, so it
    gets no goal.  The library is enumerated again without the goal where
    what the level dropped could have filled ``max_stubs``, and where a weak
    Φ's MATCH (:meth:`Library.match_weak`) would not read its class.

    With a :class:`~repro.synth.cache.PersistentCache`, what the library
    holds is stored per program signature as a node table: a warm run skips
    candidate generation and observational deduplication entirely and only
    re-derives the admitted stubs' identities (see :func:`_restore_stubs`).  A :class:`~repro.resilience.Budget` bounds
    enumeration: on expiry the partial library is returned (and not cached —
    it is sound but smaller than a full enumeration would produce).
    """
    key = None if cost_model.expensive_estimates else goal_key(goal)
    cache_key = None
    if cache is not None:
        cache_key = library_key(fingerprint, program, cut=key is not None)
        payload = cache.library_get(cache_key)
        if payload is not None:
            library = _library_from_payload(payload, program, cost_model)
            if library is not None:
                return library
            cache.library_reject(cache_key)  # undecodable: a miss, to be replaced
    enumerator = StubEnumerator(program, config, cost_model=cost_model, budget=budget, goal=key)
    library = _assemble_library(enumerator.enumerate(), enumerator.sketch_sources, cost_model)
    if budget is not None and budget.expired():
        return library  # partial: do not poison the persistent cache with it
    if enumerator.goal_cut and (
        enumerator.stub_count + enumerator.goal_cut >= config.max_stubs
        or (key.weak and library.match_weak(goal, key.key) is not enumerator.goal_champion)
    ):
        enumerator = StubEnumerator(program, config, cost_model=cost_model, budget=budget)
        library = _assemble_library(enumerator.enumerate(), enumerator.sketch_sources, cost_model)
        if budget is not None and budget.expired():
            return library
    if enumerator.goal_cut:
        bump("enum.goal_cut", enumerator.goal_cut)
    if cache is not None and cache_key is not None:
        cache.library_put(
            cache_key,
            dump_library([e.node for e in library.stubs], library.sketch_sources),
        )
    return library


def _library_from_payload(payload: dict, program: Program, cost_model: CostModel) -> Library | None:
    """Rebuild a library from a cached node table (None on any failure).

    A table may list float constants as stubs (one written before the
    library dropped them): they are left out before anything is derived.
    """
    try:
        nodes, sources = load_library(payload, program.input_types)
        stubs = _restore_stubs([n for n in nodes if _searchable(n)])
    except Exception:  # noqa: BLE001 — the cache is an accelerator: re-enumerate
        return None
    library = _assemble_library(stubs, sources, cost_model)
    library.from_cache = True
    return library


def _searchable(node: Node) -> bool:
    """Whether MATCH may return stub ``node``.  A float constant it never
    does: a spec that reads no input is built as a constant before MATCH
    runs, and every other spec reads an input a constant does not."""
    return not (isinstance(node, Const) and node.type.dtype is DType.FLOAT)


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

    stubs: list[StubEntry] = []
    for node in nodes:
        res, tensor = derive(node)
        stubs.append(StubEntry(node, tensor, res=res, exec_cache=shared))
    return stubs


def _assemble_library(
    stubs: list[StubEntry], sketch_sources: list[Node], cost_model: CostModel
) -> Library:
    """The library of what the search reads: the stubs but the float
    constants (:func:`_searchable`) and the call sources, which are all
    that sketches are derived from."""
    stubs = [e for e in stubs if _searchable(e.node)]
    stubs_by_sig: dict[tuple, list[StubEntry]] = {}
    for entry in stubs:
        # Signature from the IR type, not the tensor: residue-admitted stubs
        # keep their symbolic tensors lazy through assembly.
        sig = (entry.node.type.shape, entry.node.type.dtype)
        stubs_by_sig.setdefault(sig, []).append(entry)

    return Library(
        stubs=stubs,
        stubs_by_sig=stubs_by_sig,
        sketch_sources=[s for s in sketch_sources if isinstance(s, Call)],
        cost_model=cost_model,
        stubs_by_val={
            residue_key(e.node.type.shape, e.node.type.dtype, e.res): e
            for e in stubs
            if e.res is not None
        },
    )
