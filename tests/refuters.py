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
A library row runs only enumeration, on and off, and builds the whole library
as a caller without a goal does; a row that cuts the library is compared on
everything but the library.  A row leaves out
only kernels where its ``acted`` counters read zero with every layer on (the
test checks it; ``TIME_CAPPED`` aside): there its layer never answered but
as its no-opinion value would.  Each row below: no-opinion value; kernels;
moves; acted.

* ``classwise-execution``: the entrywise rule; all; ``symexec.*``,
  ``equiv.order_*``; ``symexec.classwise``.
* ``lattice-normal-form``: the evaluated ``sp.Max`` / ``sp.Min``;
  ``max_stack``, the one kernel that calls it; nothing; ``checked.lattice``.
* ``representative-weak-bucket``: every entry at its own order points; all;
  ``equiv.weak_*``, ``equiv.intern_*``; ``checked.bucket``.  Where the last
  level admits only Φ's class, the buckets also decide which of its few
  canonical keys are computed, and a relational entry's asks the order
  tier: there it moves ``equiv.order_*`` too, which one more run per kernel
  without the goal, against the whole library, holds unmoved.
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
* ``goal-cut`` (cuts the library): no goal passed to ``build_library``, the
  last level enumerated whole; all; ``equiv.*``, ``symexec.*``,
  ``enum.goal_cut``; ``enum.goal_cut``.  The stubs it leaves out are ones
  the search never reads, so its library is not compared; the program, its
  costs and every ``search.*`` / ``solver.*`` counter are.
* ``goal-float-refuter``: ``_refutes_goal`` says "maybe Φ" for every
  candidate, so every last-level candidate of Φ's type without a composed
  battery takes the exact path; all; ``symexec.*``,
  ``equiv.residue_batteries``, ``equiv.intern_*``, ``enum.goal_refuted``;
  ``enum.goal_refuted``.  Its cut libraries are compared node for node.
* ``all-off``: every row's targets at once; the kernels every row runs or
  never acts on (``synth_1``, ``synth_5``, ``synth_11``, ``synth_12``,
  ``vec_lerp``); the union of the rows' ``moves`` but those of the rows
  that act only with a goal, whose last level keeps no cut on a search
  kernel, only their ``acted``; every row's ``acted`` is zero.
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
from repro.synth import enumerator, library, search, solver
from repro.synth.enumerator import _HAS_INPUT, _PINNED, StubEntry, StubEnumerator, _StubClass
from repro.synth.search import SearchContext

#: The modules; ``repro.symexec.canonical`` is also the function it exports.
canonical = importlib.import_module("repro.symexec.canonical")
superoptimizer = importlib.import_module("repro.synth.superoptimizer")

#: The suite kernels whose search goes past the base-case MATCH, and the
#: paper's Fig. 5 worst case.
SEARCH_KERNELS = ("diag_dot", "sum_diag_dot", "synth_1", "synth_5", "synth_11", "synth_12", "vec_lerp")

#: The counters a run reports and a row is compared on.
COUNTERS = ("search.", "solver.", "equiv.", "analysis.", "symexec.", "enum.goal_")


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


def _goalless_build(*args, goal=None, **kwargs):
    """``build_library`` as a caller without a goal calls it."""
    return library.build_library(*args, **kwargs)


def _every_stub_executed(self, stubs, names):
    """MATCH's scan before the input filter: every stub executed."""
    return (e for e in stubs if e.tensor.input_names() == names)


# -- the rows ------------------------------------------------------------------------


@dataclass(frozen=True)
class Refuter:
    """One layer: ``targets`` are ``(module, attribute, no-opinion value)``;
    ``kernels`` None is every suite kernel; ``moves`` are counter prefixes;
    ``cuts_library``: the layer leaves out stubs the search never reads;
    ``goal``: the layer acts only where the enumeration has a goal;
    ``goal_moves``: counter prefixes it moves only where the enumeration has
    a goal, held unmoved on a run without one."""

    name: str
    targets: tuple
    kernels: tuple[str, ...] | None = None
    moves: tuple[str, ...] = ()
    acted: tuple[str, ...] = ()
    library: bool = False
    cuts_library: bool = False
    goal: bool = False
    goal_moves: tuple[str, ...] = ()

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
        ("equiv.weak_", "equiv.intern_"), ("checked.bucket",), goal_moves=("equiv.order_",),
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
    Refuter("goal-cut", ((superoptimizer, "build_library", _goalless_build),), None,
            ("equiv.", "symexec.", "enum.goal_"), ("enum.goal_cut",), cuts_library=True),
    Refuter("goal-float-refuter", ((StubEnumerator, "_refutes_goal", lambda self, node: False),), None,
            ("symexec.", "equiv.residue_batteries", "equiv.intern_", "enum.goal_refuted"), ("enum.goal_refuted",),
            goal=True),
)
REFUTERS = {row.name: row for row in _ROWS}
REFUTERS["all-off"] = Refuter(
    "all-off",
    tuple(t for row in _ROWS for t in row.targets),
    UNBOUNDED,
    tuple(m for row in _ROWS for m in (row.acted if row.cuts_library or row.goal else row.moves)),
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
    enumeration only builds the whole library, with no goal to cut it to, and
    stops once it is built."""
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
        if enumeration_only:
            patch.setattr(superoptimizer, "build_library", _goalless_build)
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


def unmoved(moves: tuple[str, ...], counters: dict) -> dict:
    """The counters outside the prefixes ``moves``."""
    return {k: v for k, v in _reported(counters).items() if not k.startswith(moves)}


def run_off(row: Refuter, kernel: str, on: Run, goalless: bool = False) -> Run:
    """``kernel`` run cold with ``row`` off, asserted to report what ``on`` did;
    ``goalless``: enumeration only, without the goal, as a library row runs."""
    goalless = goalless or row.library
    with pytest.MonkeyPatch.context() as patch:
        row.off(patch)
        off = run(kernel, enumeration_only=goalless)
    assert row.cuts_library or off.library == on.library, (row.name, kernel)
    assert off.program in (None, on.program), (row.name, kernel)
    want = on.enumerated if off.program is None else on.counters
    moves = row.moves if goalless else row.moves + row.goal_moves
    assert unmoved(moves, off.counters) == unmoved(moves, want), (row.name, kernel)
    return off
