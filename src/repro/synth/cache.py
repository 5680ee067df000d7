"""Persistent cross-run caches for the synthesis pipeline.

Section VII-E argues the synthesis cost amortizes because results "can be
cached and reused indefinitely".  This module makes that concrete: a
:class:`PersistentCache` stores, on disk under ``results/cache/``,

* **solver outcomes** — every ``SketchSolver.solve_all`` result, keyed by the
  sketch's structural signature and the spec's canonical key: unsolvable,
  pruned (the mean hole complexity only — hole specs nobody verified are
  never written), or the verified hole specs.  A warm cache turns the
  search's dominant SymPy cost into dictionary lookups;
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
explicit bookkeeping.  Files carry a format version and are discarded
wholesale on mismatch.

Worker processes of :class:`repro.parallel.ParallelModuleOptimizer` each load
the cache read-mostly and return a *delta* (new entries added during their
run) which the parent merges and saves once.

*Concurrent runs* (two independent processes sharing one cache directory)
are safe too: :meth:`PersistentCache.save` holds a cross-process
:class:`~repro.resilience.FileLock` across a read-merge-write — on-disk
entries written by other processes since our load are merged back in before
the section file is replaced, so the final file is the union of both runs'
entries rather than last-writer-wins.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from repro.ir.nodes import Call, Const, Input, Node
from repro.ir.printer import to_expression
from repro.ir.types import DType, TensorType
from repro.resilience import FileLock, inject
from repro.synth.solver import Pruned

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cost.base import CostModel
    from repro.symexec.symtensor import SymTensor
    from repro.synth.config import SynthesisConfig
    from repro.synth.sketch import Sketch

#: Bump when the on-disk format or any key scheme changes.
CACHE_VERSION = 3

_SECTIONS = ("solver", "library", "costs")

#: Delta-only pseudo-section: library keys the sender found undecodable and
#: re-enumerated, so a receiver drops its own copy before the replacement.
_REJECTED = "library_rejected"

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
    """Structural identity of a sketch: expression, input types, hole types."""
    holes = ";".join(f"{h.type.dtype.value}{h.type.shape}" for h in sketch.holes)
    return (
        f"{to_expression(sketch.root)}|{_input_signature(sketch.root)}"
        f"|{holes}|{sketch.hole_paths}"
    )


def solver_key(fingerprint: str, sketch: "Sketch", spec_key: tuple) -> str:
    return f"{fingerprint}##{sketch_signature(sketch)}##{spec_signature(spec_key)}"


def library_key(fingerprint: str, program) -> str:
    """Program signature: expression + ordered input types + fingerprint."""
    ordered = ";".join(
        f"{n}:{t.dtype.value}{t.shape}" for n, t in program.input_types.items()
    )
    return f"{fingerprint}##{to_expression(program.node)}##{ordered}"


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


def dump_solution(solution: "tuple[SymTensor, ...] | Pruned | None") -> dict:
    """One of ``{"solved": false}``, ``{"pruned": mean}``, verified tensors."""
    if solution is None:
        return {"solved": False}
    if isinstance(solution, Pruned):
        return {"pruned": solution.mean_complexity}
    return {"solved": True, "tensors": [dump_tensor(t) for t in solution]}


def load_solution(payload: Mapping) -> "tuple[SymTensor, ...] | Pruned | None":
    if "pruned" in payload:
        return Pruned(float(payload["pruned"]))
    if not payload.get("solved"):
        return None
    return tuple(load_tensor(t) for t in payload["tensors"])


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


def _empty_delta() -> dict[str, dict]:
    return {s: {} for s in _SECTIONS + (_REJECTED,)}


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
    """JSON-backed, versioned store of synthesis intermediates.

    One directory holds one file per section (``solver.json``,
    ``library.json``, ``costs.json``).  Sections load lazily on first access;
    :meth:`save` writes dirty sections atomically (tempfile + rename).
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path else default_cache_dir()
        self.stats = CacheStats()
        self._sections: dict[str, dict] = {}
        self._dirty: set[str] = set()
        self._delta: dict[str, dict] = _empty_delta()

    # -- storage ---------------------------------------------------------------

    def _file(self, section: str) -> Path:
        return self.path / f"{section}.json"

    def _read_file(self, section: str) -> dict:
        """Read one section straight from disk (tolerant, never an error).

        Another process may have been killed mid-write before the
        atomic-save era, or the disk may hand back garbage: any unreadable /
        structurally wrong file is an empty cache — the cache is an
        accelerator, not a dependency.
        """
        entries: dict = {}
        file = self._file(section)
        if file.exists():
            try:
                text = file.read_text()
                if inject("cache-read", key=section) == "corrupt":
                    text = text[: len(text) // 2]  # simulate a torn write
                raw = json.loads(text)
                if raw.get("version") == CACHE_VERSION:
                    entries = raw.get("entries", {})
                if not isinstance(entries, dict):
                    entries = {}
            except Exception:
                entries = {}
        return entries

    def _load(self, section: str) -> dict:
        entries = self._sections.get(section)
        if entries is None:
            entries = self._read_file(section)
            self._sections[section] = entries
        return entries

    def save(self) -> None:
        """Persist dirty sections: locked, read-merge-write, atomic replace.

        The read-merge-write under the directory lock is what makes two
        concurrent runs sharing this cache directory end with the *union* of
        their entries: entries another process saved after our load are
        merged back in rather than overwritten (:func:`_merge_entry`: our own
        entry stays on a key conflict, except a pruned marker of ours that the
        other process has meanwhile solved past).
        """
        if not self._dirty:
            return
        self.path.mkdir(parents=True, exist_ok=True)
        with FileLock(self.path / ".cache.lock"):
            for section in sorted(self._dirty):
                merged = self._sections[section]
                for key, value in self._read_file(section).items():
                    _merge_entry(merged, key, value)
                payload = {"version": CACHE_VERSION, "entries": merged}
                fd, tmp = tempfile.mkstemp(
                    dir=self.path, prefix=f".{section}-", suffix=".tmp"
                )
                try:
                    with os.fdopen(fd, "w") as fh:
                        json.dump(payload, fh)
                    os.replace(tmp, self._file(section))
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
        self._dirty.clear()

    def delta(self) -> dict[str, dict]:
        """Entries added by this process since load (for worker merge-back)."""
        return {s: dict(d) for s, d in self._delta.items() if d}

    def take_delta(self) -> dict[str, dict]:
        """Like :meth:`delta`, but resets the delta tracker afterwards.

        Long-lived pool workers (:mod:`repro.serve.pool`) ship one delta per
        task; taking it keeps each shipment incremental instead of resending
        the worker's whole history with every result.
        """
        out = self.delta()
        self._delta = _empty_delta()
        return out

    def absorb(self, delta: Mapping[str, Mapping]) -> None:
        """Merge entries from elsewhere *without* claiming them as our own.

        Unlike :meth:`merge_delta`, absorbed entries are neither added to this
        process's delta nor marked dirty: they are already durable (or owned)
        somewhere else.  Pool workers use this to ingest the parent's shared
        delta log, so every worker sees its peers' discoveries without the
        entries bouncing back over the result pipe.
        """
        self._drop_rejected(delta)
        for section, entries in (delta or {}).items():
            if section not in _SECTIONS:
                continue
            store = self._load(section)
            for key, value in entries.items():
                _merge_entry(store, key, value)

    def merge_delta(self, delta: Mapping[str, Mapping]) -> None:
        """Merge a worker's delta into this cache as our own new entries
        (:func:`_merge_entry` decides key conflicts).  A library entry the
        worker found undecodable goes first, so its replacement is a first
        write again."""
        self._drop_rejected(delta)
        for section, entries in (delta or {}).items():
            if section not in _SECTIONS:
                continue
            for key, value in entries.items():
                self._put(section, key, value)

    def _drop_rejected(self, delta: Mapping[str, Mapping] | None) -> None:
        for key in (delta or {}).get(_REJECTED, ()):
            self._load("library").pop(key, None)

    def _get(self, section: str, key: str):
        entries = self._load(section)
        if key in entries:
            return entries[key]
        return MISS

    def _put(self, section: str, key: str, value) -> None:
        if _merge_entry(self._load(section), key, value):
            self._delta[section][key] = value
            self._dirty.add(section)

    # -- typed accessors -------------------------------------------------------

    def solver_get(self, key: str, score: float = float("inf")):
        """Cached ``solve_all`` outcome: MISS, None, a :class:`Pruned`, or a
        tuple of verified tensors.

        A pruned entry answers only an asker it would prune again — one whose
        ``score`` its stored mean reaches; to anyone else it says nothing
        about the decomposition, which is a miss.
        """
        hit = self._get("solver", key)
        out = MISS
        if hit is not MISS:
            try:
                out = load_solution(hit)
            except Exception:
                pass  # unreadable entry: treat as a miss
            if isinstance(out, Pruned) and out.mean_complexity < score:
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
        a miss after all.  The re-enumeration's :meth:`library_put` is then a
        first write again, and our own entries win the merge in :meth:`save`."""
        self._load("library").pop(key, None)
        self._delta[_REJECTED][key] = True  # lets a pool parent drop its copy too
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
