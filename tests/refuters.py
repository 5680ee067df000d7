"""The refute-only layers, one row each, and the one way to run a kernel cold.

A refute-only layer may refute, prune or short-cut; it may never decide an
answer.  A row names every binding through which the pipeline reaches its
layer (for a configuration knob, the field of the configuration the suite
runs use) and the *no-opinion* value of each: the computation the layer
stands in for.  With a row off, :func:`run` must report on each of the row's
kernels what it reports with every layer on: the library (stub nodes,
batteries, sketch sources), the program and its costs, and every counter of
:data:`COUNTERS` but those the row ``moves``.  Each ``acted`` counter is
non-zero over the row's kernels with the layer on and zero with it off; a
``checked.*`` one is counted by ``tests/test_refuters.py``'s layer-on checks.
A library row runs only enumeration with its layer off.  A row leaves out
only kernels where its ``acted`` counters read zero with every layer on (the
test checks it; ``TIME_CAPPED`` aside): there its layer never answered but
as its no-opinion value would.  Each row below: no-opinion value; kernels;
moves; acted.

* ``classwise-execution``: the entrywise rule; all; ``symexec.*``,
  ``equiv.order_*``; ``symexec.classwise``.
* ``lattice-normal-form``: the evaluated ``sp.Max`` / ``sp.Min``;
  ``max_stack``, the one kernel that calls it; nothing; ``checked.lattice``.
* ``representative-weak-bucket``: every entry at its own order points; all;
  ``equiv.weak_*``, ``equiv.intern_*``; ``checked.bucket``.
* ``representative-undefined-check``: every entry checked; all; nothing;
  ``checked.undefined``.
* ``branch-and-bound``: ``use_branch_and_bound=False``; the search kernels
  but ``diag_dot`` and ``sum_diag_dot``, which hit the time cap without it;
  ``search.*``, ``solver.*``, ``symexec.*``, ``equiv.intern_*``,
  ``equiv.residue_batteries``; ``search.prune.bound``.
* ``dfs-memo``: ``memoize=False``; search; ``search.memo_hits``,
  ``search.base_case_matches``, ``equiv.fingerprint_hits``;
  ``search.memo_hits``.
* ``prune-floor``: ``prune_floor`` returns None, every query is derived;
  search; the solver's query counters, ``search.prune.simplification``,
  ``equiv.intern_*``; ``solver.floor_pruned``.
* ``exact-floor-before-cancel``: it never prunes, every derived hole spec is
  normalized; search; ``solver.pruned_before_cancel``, ``solver.cancel_*``,
  ``equiv.residue_batteries``; ``solver.pruned_before_cancel``.
* ``solve-memos``: ``solver._cancel`` is ``sp.cancel``, ``_factored``
  recomputes, MATCH's ``same_inputs`` executes every stub; search;
  ``solver.cancel_*``, ``search.match_input_refuted``, ``symexec.*``;
  ``solver.cancel_exact``, ``solver.cancel_fallback``,
  ``search.match_input_refuted``.
* ``match-prescreen``: ``prescreen.tensors_disjoint`` never proves; the
  search kernels where it proves (``diag_dot``, ``sum_diag_dot``,
  ``synth_1``, ``synth_12``); ``analysis.prescreen_pruned``,
  ``equiv.intern_*``, ``equiv.radical_*``; ``analysis.prescreen_pruned``.
* ``eager-weak-keys`` (library): ``_admit_weak`` keys every weak candidate
  on arrival, one dict; all; ``equiv.fingerprint_weak``, ``equiv.weak_*``,
  ``equiv.order_*``; ``equiv.weak_refuted``.
* ``candidate-fact-memos`` (library): each inverse, op cost, fact bit,
  ``less`` witness and proof and ``where`` ``Piecewise`` derived afresh, no
  index-class representative, execution entry by entry, weak keys compared
  whole; all; ``equiv.order_*``, ``symexec.*``; ``symexec.classwise``,
  ``equiv.order_by_class``.
* ``order-tier`` (library): ``residues.less`` is ``sp.Lt``; ``max_stack``,
  the one kernel that calls it; ``equiv.order_*``; ``equiv.order_asked``
  and ``equiv.order_refuted``, which count every call.
* ``all-off``: every row's targets at once; the kernels every row runs or
  never acts on (``synth_1``, ``synth_5``, ``synth_11``, ``synth_12``,
  ``vec_lerp``); the union of the rows' ``moves``; every row's ``acted`` is
  zero.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from functools import lru_cache

import pytest
import sympy as sp

from repro.analysis import prescreen
from repro.bench.store import CONFIGS, run_synthesis
from repro.bench.suite import get_benchmark
from repro.cost.base import CostModel
from repro.ir.nodes import Call, Const, Input
from repro.obs.metrics import PROCESS_COUNTERS
from repro.symexec import INTERN_TABLE, canonical_key, engine, residues, symtensor
from repro.symexec.residues import BatteryTable, _inv_battery
from repro.synth import enumerator, search, solver
from repro.synth.enumerator import _HAS_INPUT, _PINNED, StubEntry, StubEnumerator, _StubClass
from repro.synth.search import SearchContext

#: The module; ``repro.symexec.canonical`` is also the function it exports.
canonical = importlib.import_module("repro.symexec.canonical")

#: The suite kernels whose search goes past the base-case MATCH, and the
#: paper's Fig. 5 worst case.
SEARCH_KERNELS = ("diag_dot", "sum_diag_dot", "synth_1", "synth_5", "synth_11", "synth_12", "vec_lerp")

#: The counters a run reports and a row is compared on.
COUNTERS = ("search.", "solver.", "equiv.", "analysis.", "symexec.")


# -- the no-opinion values -----------------------------------------------------------


def _per_entry_values(tensor) -> tuple[tuple, tuple]:
    """The weak bucket before representatives: each entry at its own points,
    which already tell a tensor from its transpose, and no class indices."""
    memos: list[dict] = [{} for _ in range(residues.W_POINTS)]
    values = tuple(
        residues._rounded(residues._value(e, i, memos[i]))
        for e in tensor.entries()
        for i in range(residues.W_POINTS)
    )
    return values, ()


def _every_entry_undefined(tensor) -> bool:
    return any(enumerator._has_undefined(e) for e in tensor.entries())


def _keyed_on_arrival(self, node, tensor, raw):
    """``_admit_weak`` before the bucket: one ``canonical_key`` per candidate, one dict."""
    by_key = self.__dict__.setdefault("_by_key", {})
    key = canonical_key(tensor)
    self.sketch_sources.append(node)
    cls = by_key.get(key)
    if cls is not None:
        self._battle(cls, node, tensor)
        self._by_raw[raw] = cls
        return None
    entry = StubEntry(node, tensor, key=key)
    cls = by_key[key] = self._by_raw[raw] = _StubClass(entry)
    self._classes.append(cls)
    return entry


def walked_facts(node) -> int:
    """A candidate's const-tree and shape-pinned bits by the tree walks they replaced."""
    walked = list(node.walk())
    facts = _HAS_INPUT if any(isinstance(n, Input) for n in walked) else 0
    if any(
        (isinstance(n, Call) and n.attr("shape") is not None)
        or (isinstance(n, Const) and not n.is_scalar)
        for n in walked
    ):
        facts |= _PINNED
    return facts


def _eager_same_key(tensor, other) -> bool:
    """Whole keys, every entry canonicalised: the comparison before it stopped early."""
    return canonical_key(tensor) == (other if isinstance(other, tuple) else canonical_key(other))


def _keeps_nothing(function):
    """``function``'s memo replaced by a cache that keeps nothing."""
    return lru_cache(maxsize=0)(function.__wrapped__)


def _every_stub_executed(self, stubs, names):
    """MATCH's scan before the input filter: every stub executed."""
    return (e for e in stubs if e.tensor.input_names() == names)


# -- the rows ------------------------------------------------------------------------


@dataclass(frozen=True)
class Refuter:
    """One layer: ``targets`` are ``(module, attribute, no-opinion value)``;
    ``kernels`` None is every suite kernel; ``moves`` are counter prefixes."""

    name: str
    targets: tuple
    kernels: tuple[str, ...] | None = None
    moves: tuple[str, ...] = ()
    acted: tuple[str, ...] = ()
    library: bool = False

    def off(self, patch) -> None:
        """Switch the layer off through ``patch`` (a ``pytest.MonkeyPatch``)."""
        for module, attribute, value in self.targets:
            patch.setattr(module, attribute, value)


CLASSWISE = ((engine, "_classwise", lambda *args: None),)
#: Without the bound these run into the time cap.
TIME_CAPPED = ("diag_dot", "sum_diag_dot")
UNBOUNDED = tuple(k for k in SEARCH_KERNELS if k not in TIME_CAPPED)
_BEFORE_CANCEL = ("solver.pruned_before_cancel", "solver.cancel_")

_ROWS = (
    Refuter("classwise-execution", CLASSWISE, None, ("symexec.", "equiv.order_"), ("symexec.classwise",)),
    Refuter("lattice-normal-form", ((canonical, "_lattice", lambda cls, x, y: cls(x, y)),), ("max_stack",),
            acted=("checked.lattice",)),
    Refuter(
        "representative-weak-bucket", ((residues, "_bucket_values", _per_entry_values),), None,
        ("equiv.weak_", "equiv.intern_"), ("checked.bucket",),
    ),
    Refuter(
        "representative-undefined-check", ((enumerator, "_undefined", _every_entry_undefined),),
        acted=("checked.undefined",),
    ),
    Refuter(
        "branch-and-bound", ((CONFIGS["default"], "use_branch_and_bound", False),), UNBOUNDED,
        ("search.", "solver.", "symexec.", "equiv.intern_", "equiv.residue_batteries"),
        ("search.prune.bound",),
    ),
    Refuter(
        "dfs-memo", ((CONFIGS["default"], "memoize", False),), SEARCH_KERNELS,
        ("search.memo_hits", "search.base_case_matches", "equiv.fingerprint_hits"), ("search.memo_hits",),
    ),
    Refuter(
        "prune-floor", ((search, "prune_floor", lambda *args: None),), SEARCH_KERNELS,
        ("solver.calls", "solver.hits", "solver.floor_pruned", "search.prune.simplification", "equiv.intern_")
        + _BEFORE_CANCEL,
        ("solver.floor_pruned",),
    ),
    Refuter(
        "exact-floor-before-cancel", ((search, "exact_floor", lambda *args: float("-inf")),), SEARCH_KERNELS,
        _BEFORE_CANCEL + ("equiv.residue_batteries",), ("solver.pruned_before_cancel",),
    ),
    Refuter(
        "solve-memos",
        (
            (solver, "_cancel", sp.cancel),
            (solver, "_factored", solver._factored.__wrapped__),
            (SearchContext, "same_inputs", _every_stub_executed),
        ),
        SEARCH_KERNELS, ("solver.cancel_", "search.match_input_refuted", "symexec."),
        ("solver.cancel_exact", "solver.cancel_fallback", "search.match_input_refuted"),
    ),
    Refuter(
        "match-prescreen", ((prescreen, "tensors_disjoint", lambda *args: False),),
        ("diag_dot", "sum_diag_dot", "synth_1", "synth_12"),
        ("analysis.prescreen_pruned", "equiv.intern_", "equiv.radical_"), ("analysis.prescreen_pruned",),
    ),
    Refuter(
        "eager-weak-keys", ((StubEnumerator, "_admit_weak", _keyed_on_arrival),), None,
        ("equiv.fingerprint_weak", "equiv.weak_", "equiv.order_"), ("equiv.weak_refuted",), library=True,
    ),
    Refuter(
        "candidate-fact-memos",
        (
            (BatteryTable, "_inverse", lambda self, node: _inv_battery(self.get(node))),
            (CostModel, "call_cost", CostModel._price),
            (StubEnumerator, "_facts", lambda self, node: walked_facts(node)),
            (residues, "_witnessed", _keeps_nothing(residues._witnessed)),
            (residues, "_proved", _keeps_nothing(residues._proved)),
            (residues, "_split", _keeps_nothing(residues._split)),
            (engine, "_piecewise", _keeps_nothing(engine._piecewise)),
            (residues, "representative", lambda exprs: None),  # every entry asks SymPy itself
            (enumerator, "same_canonical_key", _eager_same_key),
        ) + CLASSWISE,  # and is executed by itself
        None, ("equiv.order_", "symexec."), ("symexec.classwise", "equiv.order_by_class"), library=True,
    ),
    Refuter("order-tier", ((residues, "less", sp.Lt),), ("max_stack",), ("equiv.order_",),
            ("equiv.order_asked", "equiv.order_refuted"), library=True),
)
REFUTERS = {row.name: row for row in _ROWS}
REFUTERS["all-off"] = Refuter(
    "all-off",
    tuple(t for row in _ROWS for t in row.targets),
    UNBOUNDED,
    tuple(m for row in _ROWS for m in row.moves),
    tuple(a for row in _ROWS for a in row.acted),
)


# -- a cold run ----------------------------------------------------------------------

#: SOLVE's memos, held here: a row that replaces them does not stop their clearing.
_SOLVE_MEMOS = (solver._cancel, solver._keeps_log, solver._factored)


def cold() -> None:
    """Forget every process memo a row can change, so that a run derives all it reports."""
    INTERN_TABLE.clear()
    symtensor._FROM_VALUE_MEMO.clear()
    residues.clear_less_memo()
    for memo in _SOLVE_MEMOS:  # solver.cancel_* count misses
        memo.cache_clear()


@dataclass
class Run:
    """What a cold run reports: the enumeration's stub nodes, batteries and sketch
    sources (``library``) and counters; the program and both costs (None:
    enumeration only); the run's counters."""

    enumerator: StubEnumerator
    library: tuple
    enumerated: dict
    program: tuple | None
    counters: dict


class _Enumerated(BaseException):
    """Ends an enumeration-only run where the search would begin (no
    ``except Exception`` on the way may swallow it)."""


def run(kernel: str, enumeration_only: bool = False) -> Run:
    """Synthesize a suite kernel cold under the default configuration and FLOPs;
    enumeration only stops once the library is built, after the same work."""
    cold()
    found: list = []
    real_enumerate = StubEnumerator.enumerate

    def recording_enumerate(self):
        before = dict(PROCESS_COUNTERS)
        stubs = real_enumerate(self)
        batteries = [None if e.res is None else e.res.tobytes() for e in stubs]
        library = [e.node for e in stubs], batteries, list(self.sketch_sources)
        moved = {k: v - before.get(k, 0) for k, v in PROCESS_COUNTERS.items() if v != before.get(k, 0)}
        found.append(Run(self, library, _reported(moved), None, {}))
        if enumeration_only:
            raise _Enumerated
        return stubs

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StubEnumerator, "enumerate", recording_enumerate)
        try:
            record = run_synthesis(get_benchmark(kernel), "flops", "default")
        except _Enumerated:
            record = None
    (out,) = found
    if record is None:
        out.counters = out.enumerated
    else:
        out.program = (record.optimized_source, record.original_cost, record.optimized_cost)
        out.counters = _reported(record.stats["metrics"]["counters"])
    return out


def _reported(counters: dict) -> dict:
    return {k: v for k, v in counters.items() if k.startswith(COUNTERS)}


def unmoved(row: Refuter, counters: dict) -> dict:
    """The counters ``row`` may not change."""
    return {k: v for k, v in _reported(counters).items() if not k.startswith(row.moves)}


def run_off(row: Refuter, kernel: str, on: Run) -> Run:
    """``kernel`` run cold with ``row`` off, asserted to report what ``on`` did."""
    with pytest.MonkeyPatch.context() as patch:
        row.off(patch)
        off = run(kernel, enumeration_only=row.library)
    assert off.library == on.library and off.program in (None, on.program), (row.name, kernel)
    want = on.enumerated if off.program is None else on.counters
    assert unmoved(row, off.counters) == unmoved(row, want), (row.name, kernel)
    return off
