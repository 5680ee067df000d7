"""Persistent cross-run caches for the synthesis pipeline.

Section VII-E argues the synthesis cost amortizes because results "can be
cached and reused indefinitely".  This module makes that concrete: a
:class:`PersistentCache` stores, on disk under ``results/cache/``,

* **solver outcomes** — every SOLVE answer, keyed by the sketch's structural
  signature and the spec's canonical key: unsolvable, pruned (a lower bound
  of the hole complexity only: the complexity itself, or PRUNE's floor when
  nothing was derived — a hole spec nobody verified is never written), or
  the verified hole spec.  A warm cache turns the search's dominant SymPy
  cost into dictionary lookups;
* **stub libraries** — the admitted stubs and sketch sources per program
  signature, as one hash-consed node table (:func:`dump_library`).  Only IR
  structure is stored: residue batteries and canonical keys are recomputed on
  load by replaying admission (see :func:`repro.synth.library.build_library`);
* **program costs** — ``cost_model.program_cost`` results per expression, for
  cost models whose estimates are expensive (measured timings); analytic
  models recompute faster than a key can be built.

Every entry is namespaced by a *fingerprint* of the synthesis configuration
and the cost model, so changing any search knob (except the pure resource
limit ``timeout_seconds``) or the cost model invalidates the cache without
explicit bookkeeping.

**On disk** each section is one :class:`repro.journal.DurableLog`
(``solver.json`` / ``library.json`` / ``costs.json``): a header line
``{"type": "cache-<section>", "version": CACHE_VERSION}``, then one
``{"k": key, "v": value}`` record per entry.  A section's content is its
lines folded in file order through :func:`_merge_entry`; a ``{"k": key,
"drop": true}`` tombstone clears the key for the record behind it.  A file
that does not start with this version's header is an empty section, replaced
by the first save — nothing is migrated.

**The file is the only channel between processes.**
:meth:`PersistentCache.save` appends the records this process added, under a
cross-process :class:`~repro.resilience.FileLock`, and never re-reads or
rewrites the file; :meth:`PersistentCache.refresh` reads on from this
process's per-section offset.  Every reader folds the same lines in the same
order, so concurrent runs sharing a directory and the workers of a
:class:`~repro.serve.pool.WorkerPool` (refresh before a task, save after it)
end with the union of what anyone found without a merge step.  A key is
written once per process that found it on its own; nothing is compacted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from repro.errors import JournalError
from repro.ir.nodes import Call, Const, Input, Node
from repro.ir.printer import to_expression
from repro.ir.types import DType, TensorType
from repro.journal import DurableLog
from repro.resilience import FileLock, inject
from repro.synth.solver import Pruned

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cost.base import CostModel
    from repro.symexec.symtensor import SymTensor
    from repro.synth.config import SynthesisConfig
    from repro.synth.sketch import Sketch

#: Bump when the on-disk format or any key scheme changes.
CACHE_VERSION = 4

_SECTIONS = ("solver", "library", "costs")

#: Sentinel distinguishing "cached None" from "not cached".
MISS = object()


def default_cache_dir() -> Path:
    """``$STENSO_CACHE`` or ``<repo>/results/cache``."""
    env = os.environ.get("STENSO_CACHE")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / "results" / "cache"


# ---------------------------------------------------------------------------
# Fingerprints and keys
# ---------------------------------------------------------------------------


#: Config fields that cannot change synthesis *outcomes*, only resource use
#: (or, for ``fault_plan``, deliberately break runs for testing).
_NON_SEMANTIC_FIELDS = (
    "timeout_seconds",
    "max_solver_calls",
    "fault_plan",
)


def cost_model_fingerprint(cost_model: "CostModel") -> str:
    """Identity of a cost model for cache keying."""
    mapper = getattr(cost_model, "mapper", None)
    parts = [
        getattr(cost_model, "name", cost_model.__class__.__name__),
        repr(getattr(cost_model, "decision_margin", 0.0)),
    ]
    if mapper is not None:
        parts.append(repr(sorted(mapper.dim_map.items())))
        parts.append(repr((mapper.scale, mapper.cap)))
    # Models may expose extra identity (e.g. a profiling-table revision).
    extra = getattr(cost_model, "cache_fingerprint", None)
    if extra is not None:
        parts.append(str(extra() if callable(extra) else extra))
    return "|".join(parts)


def synthesis_fingerprint(config: "SynthesisConfig", cost_model: "CostModel") -> str:
    """Short digest identifying (config, cost model) for cache namespacing."""
    fields = {
        k: v
        for k, v in dataclasses.asdict(config).items()
        if k not in _NON_SEMANTIC_FIELDS
    }
    payload = repr(sorted(fields.items())) + "||" + cost_model_fingerprint(cost_model)
    return hashlib.sha1(payload.encode()).hexdigest()[:16]


def _input_signature(node: "Node") -> str:
    return ";".join(
        f"{i.name}:{i.type.dtype.value}{i.type.shape}" for i in node.inputs()
    )


def spec_signature(key: tuple) -> str:
    """Stable string form of a ``canonical_key`` tuple (already srepr-based)."""
    shape, dtype, entries = key
    return f"{shape}|{dtype.value}|" + "\x1f".join(entries)


def sketch_signature(sketch: "Sketch") -> str:
    """Structural identity of a sketch: expression, input types, hole type
    and path (written as a one-element tuple, so existing keys stay valid)."""
    hole = sketch.hole.type
    return (
        f"{to_expression(sketch.root)}|{_input_signature(sketch.root)}"
        f"|{hole.dtype.value}{hole.shape}|{(sketch.hole_path,)}"
    )


def solver_key(fingerprint: str, sketch: "Sketch", spec_key: tuple) -> str:
    return f"{fingerprint}##{sketch_signature(sketch)}##{spec_signature(spec_key)}"


def library_key(fingerprint: str, program, cut: bool = False) -> str:
    """Program signature: expression + ordered input types + fingerprint; a
    library cut to the program's own spec (``cut``) is marked apart."""
    ordered = ";".join(
        f"{n}:{t.dtype.value}{t.shape}" for n, t in program.input_types.items()
    )
    mark = "##goal-cut" if cut else ""
    return f"{fingerprint}##{to_expression(program.node)}##{ordered}{mark}"


def cost_key(fingerprint: str, node: "Node") -> str:
    return f"{fingerprint}##{to_expression(node)}##{_input_signature(node)}"


# ---------------------------------------------------------------------------
# SymTensor serialization (srepr round-trip)
# ---------------------------------------------------------------------------


def dump_tensor(tensor: "SymTensor") -> dict:
    from repro.symexec.canonical import cached_srepr

    return {
        "shape": list(tensor.shape),
        "dtype": tensor.dtype.value,
        "entries": [cached_srepr(e) for e in tensor.entries()],
    }


@lru_cache(maxsize=1)
def _srepr_namespace() -> dict:
    import sympy as sp

    return {**vars(sp), "__builtins__": {}}


@lru_cache(maxsize=1 << 16)
def _load_srepr(text: str):
    """The expression an ``srepr`` string denotes.

    ``srepr`` output is constructor calls over SymPy's own names, so it is
    evaluated directly in SymPy's namespace; anything that does not evaluate
    that way takes ``sympify`` (tokenizer + transformations), which accepts
    a superset.
    """
    try:
        return eval(text, _srepr_namespace())  # noqa: S307 — our own cache file
    except Exception:  # noqa: BLE001 — sympify decides what is unreadable
        import sympy as sp

        return sp.sympify(text)


def load_tensor(payload: Mapping) -> "SymTensor":
    from repro.symexec.symtensor import SymTensor

    shape = tuple(payload["shape"])
    entries = [_load_srepr(s) for s in payload["entries"]]
    if shape:
        data = np.empty(shape, dtype=object)
        data.reshape(-1)[:] = entries
    else:
        data = np.array(entries[0], dtype=object)
    return SymTensor(data, DType(payload["dtype"]))


def dump_solution(solution: "SymTensor | Pruned | None") -> dict:
    """One of ``{"solved": false}``, ``{"pruned": bound}``, or the verified
    hole spec as a one-element ``tensors`` list (so existing entries stay
    readable)."""
    if solution is None:
        return {"solved": False}
    if isinstance(solution, Pruned):
        return {"pruned": solution.complexity}
    return {"solved": True, "tensors": [dump_tensor(solution)]}


def load_solution(payload: Mapping) -> "SymTensor | Pruned | None":
    if "pruned" in payload:
        return Pruned(float(payload["pruned"]))
    if not payload.get("solved"):
        return None
    (tensor,) = payload["tensors"]
    return load_tensor(tensor)


# ---------------------------------------------------------------------------
# Library serialization (hash-consed node table)
# ---------------------------------------------------------------------------

#: Row ops of the two terminal kinds (no grammar op starts with ``$``).
_INPUT_ROW = "$input"
_CONST_ROW = "$const"


def dump_library(stubs: "Iterable[Node]", sources: "Iterable[Node]") -> dict:
    """Stub and sketch-source trees as one table of ``[op, arg ids, attrs]``.

    Every distinct subtree gets one row, after the rows of its arguments, so
    the table decodes in a single forward pass and the massive sharing
    between stubs and sketch sources is stored once.
    """
    ids: dict[Node, int] = {}
    rows: list[list] = []

    def intern(node: "Node") -> int:
        i = ids.get(node)
        if i is None:
            if isinstance(node, Call):
                row = [node.op, [intern(a) for a in node.args], dict(node.attrs)]
            elif isinstance(node, Input):
                row = [_INPUT_ROW, [], {"name": node.name}]
            else:
                row = [
                    _CONST_ROW,
                    [],
                    {
                        "dtype": node.type.dtype.value,
                        "shape": list(node.type.shape),
                        "value": node.value.tolist(),
                    },
                ]
            i = ids[node] = len(rows)
            rows.append(row)
        return i

    return {
        "nodes": rows,
        "stubs": [intern(n) for n in stubs],
        "sources": [intern(n) for n in sources],
    }


def load_library(
    payload: Mapping, input_types: Mapping[str, TensorType]
) -> "tuple[list[Node], list[Node]]":
    """Inverse of :func:`dump_library`: ``(stub nodes, source nodes)``.

    Raises on any malformed table (forward or negative arg id, unknown op or
    input, ill-typed attrs — ``Call`` re-runs type inference on every row);
    the caller treats that as a cache miss.
    """
    nodes: list[Node] = []
    for op, arg_ids, attrs in payload["nodes"]:
        if op == _INPUT_ROW:
            node: Node = Input(attrs["name"], input_types[attrs["name"]])
        elif op == _CONST_ROW:
            ctype = TensorType(DType(attrs["dtype"]), tuple(attrs["shape"]))
            value = np.asarray(
                attrs["value"], dtype=bool if ctype.dtype is DType.BOOL else float
            )
            node = Const(value.reshape(ctype.shape), ctype)
        else:
            here = len(nodes)
            if not all(0 <= i < here for i in arg_ids):
                raise ValueError(f"node {here}: argument id out of range")
            node = Call(op, [nodes[i] for i in arg_ids], **attrs)
        nodes.append(node)
    return (
        [nodes[i] for i in payload["stubs"]],
        [nodes[i] for i in payload["sources"]],
    )


# ---------------------------------------------------------------------------
# The cache
# ---------------------------------------------------------------------------


@dataclass
class CacheStats:
    """Hit/miss counters per cache section (drives the profiler output)."""

    solver_hits: int = 0
    solver_misses: int = 0
    library_hits: int = 0
    library_misses: int = 0
    cost_hits: int = 0
    cost_misses: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def _is_pruned(value) -> bool:
    return isinstance(value, dict) and "pruned" in value


def _merge_entry(store: dict, key: str, value) -> bool:
    """The one merge rule, wherever two copies of a key meet; True if taken.

    Entries are content-addressed facts, so the copy already in ``store``
    stays — except a solver section's pruned marker, which only records that
    one asker turned the decomposition down: a verified or unsolvable answer
    for the same key supersedes it, never the reverse.
    """
    if key in store:
        supersedes = _is_pruned(store[key]) and not _is_pruned(value)
        if not supersedes:
            return False
    store[key] = value
    return True


class PersistentCache:
    """Versioned store of synthesis intermediates, one append-only log per
    section (see the module docstring for the format).  Sections load lazily
    on first access; :meth:`save` appends this process's new records,
    :meth:`refresh` folds in what other processes appended since.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path else default_cache_dir()
        self.stats = CacheStats()
        self._sections: dict[str, dict] = {}
        #: Per section: how far into the file the fold has got.
        self._offsets: dict[str, int] = {}
        #: Per section: this process's records not yet appended, in order.
        self._pending: dict[str, list[dict]] = {}
        #: Sections whose file is not a version-4 log: replaced by the next save.
        self._foreign: set[str] = set()

    # -- storage ---------------------------------------------------------------

    def _log(self, section: str) -> DurableLog:
        # No fsync: a record lost to a power cut is recomputed, a torn one is
        # dropped by its checksum — the cache is an accelerator.
        return DurableLog(
            self.path / f"{section}.json",
            {"type": f"cache-{section}", "version": CACHE_VERSION},
            fsync=False,
        )

    def _read_file(self, section: str) -> dict:
        """Fold what the section's file holds past our offset into memory:
        the first record of a key stays, a solved answer supersedes a pruned
        marker, a tombstone drops the key.  Tolerant, never an error — the
        cache is an accelerator, and a file without this version's header is
        an empty section."""
        store = self._sections.setdefault(section, {})
        offset = self._offsets.get(section, 0)
        log = self._log(section)
        try:
            records, end, _dropped = log.read(offset)
        except JournalError:  # unreadable for the OS: as good as absent
            return store
        if offset == 0 and end > 0:
            if not records or not log.bound(records[0]):
                self._foreign.add(section)
                return store
            records = records[1:]
        if inject("cache-read", key=section) == "corrupt":
            records = records[: len(records) // 2]  # the rest read back torn
        self._offsets[section] = end
        for record in records:
            key = record.get("k")
            if record.get("drop"):
                store.pop(key, None)
            elif key is not None and "v" in record:
                _merge_entry(store, key, record["v"])
        return store

    def _load(self, section: str) -> dict:
        entries = self._sections.get(section)
        if entries is None:
            entries = self._read_file(section)
        return entries

    def save(self) -> None:
        """Append this process's new records to their section logs — no
        re-read, no merge: runs sharing the directory end with the *union* of
        their entries because every reader folds the same lines in the same
        order.  A key costs one line per process that found it on its own."""
        if not any(self._pending.values()):
            return
        self.path.mkdir(parents=True, exist_ok=True)
        with FileLock(self.path / ".cache.lock"):
            for section, records in self._pending.items():
                if not records:
                    continue
                log = self._log(section)
                if section in self._foreign:
                    # Still foreign, or has a peer replaced it since we looked?
                    first, _end, _dropped = log.read()
                    if not first or not log.bound(first[0]):
                        log.path.unlink(missing_ok=True)
                    self._foreign.discard(section)
                log.append(records)
                records.clear()

    def refresh(self) -> None:
        """Fold in what other processes appended to the loaded sections since
        our offsets (one ``stat`` per section when nothing changed)."""
        for section in list(self._sections):
            try:
                size = os.stat(self._log(section).path).st_size
            except OSError:
                continue
            offset = self._offsets.get(section, 0)
            if size < offset:  # replaced under us: fold it from the start
                self._offsets[section] = 0
            if size != offset and section not in self._foreign:
                self._read_file(section)

    def _get(self, section: str, key: str):
        return self._load(section).get(key, MISS)

    def _put(self, section: str, key: str, value) -> None:
        if _merge_entry(self._load(section), key, value):
            self._pending.setdefault(section, []).append({"k": key, "v": value})

    # -- typed accessors -------------------------------------------------------

    def solver_get(self, key: str, score: float = float("inf")):
        """Cached ``solve_all`` outcome: MISS, None, a :class:`Pruned`, or the
        verified hole spec.

        A pruned entry stores a lower bound of the hole complexity (the
        complexity, or PRUNE's floor) and answers only an asker it would prune
        again — one whose ``score`` that bound reaches; to anyone else it
        says nothing about the decomposition, which is a miss.
        """
        hit = self._get("solver", key)
        out = MISS
        if hit is not MISS:
            try:
                out = load_solution(hit)
            except Exception:
                pass  # unreadable entry: treat as a miss
            if isinstance(out, Pruned) and out.complexity < score:
                out = MISS
        if out is MISS:
            self.stats.solver_misses += 1
        else:
            self.stats.solver_hits += 1
        return out

    def solver_put(self, key: str, solution) -> None:
        try:
            payload = dump_solution(solution)
        except Exception:
            return  # unserializable expression: skip caching this entry
        self._put("solver", key, payload)

    def library_get(self, key: str) -> dict | None:
        hit = self._get("library", key)
        if hit is MISS:
            self.stats.library_misses += 1
            return None
        self.stats.library_hits += 1
        return hit

    def library_reject(self, key: str) -> None:
        """Forget an entry :meth:`library_get` returned that would not decode:
        a miss after all.  The tombstone makes the re-enumeration's
        :meth:`library_put` a first write again, here and in every process
        that folds the file."""
        self._load("library").pop(key, None)
        self._pending.setdefault("library", []).append({"k": key, "drop": True})
        self.stats.library_hits -= 1
        self.stats.library_misses += 1

    def library_put(self, key: str, payload: dict) -> None:
        self._put("library", key, payload)

    def cost_get(self, key: str) -> float | None:
        hit = self._get("costs", key)
        if hit is MISS:
            self.stats.cost_misses += 1
            return None
        self.stats.cost_hits += 1
        return float(hit)

    def cost_put(self, key: str, value: float) -> None:
        self._put("costs", key, float(value))


def as_cache(cache: "PersistentCache | str | Path | None") -> PersistentCache | None:
    """Normalize a cache argument: None, a directory path, or a cache."""
    if cache is None or isinstance(cache, PersistentCache):
        return cache
    return PersistentCache(cache)
