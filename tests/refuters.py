"""The refute-only layers, one row each: what to patch, and what says nothing.

A refute-only layer may refute, prune or short-cut; it may never decide an
answer.  Each row names a layer, every binding through which the pipeline
reaches it (its patch targets; for a configuration knob, the field of the
configuration the suite runs use), and the *no-opinion* value of each: the
computation the layer stands in for.  With a row switched off the pipeline
must give the same libraries, programs and costs on the row's kernels, and
the same search counters except those the row names as moving —
``tests/test_refuters.py`` checks that.

The layers of DESIGN.md decision 26, over every suite kernel, moving no
counter:

* class-wise execution — no opinion: the entrywise rule;
* the lattice normal form — no opinion: the evaluated ``sp.Max`` / ``sp.Min``;
* the representative-valued weak bucket — no opinion: every entry evaluated
  at its own order points;
* the undefined check on the representative — no opinion: every entry checked.

The search's pruning layers, over the search kernels, each with the counter
that shows it acted while on:

* branch-and-bound — no opinion: ``use_branch_and_bound=False``.  Without
  the bound ``diag_dot`` and ``sum_diag_dot`` run into the time cap, so the
  row leaves them out;
* the DFS memo — no opinion: ``memoize=False``.  The memo keeps only a
  node's constant and base-case MATCH answers, which no bound decides, and
  a second path to the same spec reuses them;
* PRUNE's floor — no opinion: ``prune_floor`` returns None, and every query
  is derived;
* the exact floor before ``cancel`` — no opinion: it never prunes, and every
  derived hole spec is normalized before PRUNE.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

from repro.bench.store import CONFIGS
from repro.symexec import engine, residues
from repro.synth import enumerator, search

#: The module; ``repro.symexec.canonical`` is also the function it exports.
canonical = importlib.import_module("repro.symexec.canonical")


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


#: The suite kernels whose search goes past the base-case MATCH, and vec_lerp.
SEARCH_KERNELS = ("diag_dot", "sum_diag_dot", "synth_1", "synth_5", "synth_11", "synth_12", "vec_lerp")


@dataclass(frozen=True)
class Refuter:
    """One layer: ``targets`` are ``(module, attribute, no-opinion value)``.

    ``kernels`` are the suite kernels the row runs on (None: all of them);
    ``moves`` are the prefixes of the ``search.*`` / ``solver.*`` counters
    the row may change; ``acted`` is a counter that is non-zero over the
    row's kernels with the layer on, and zero with it off.
    """

    name: str
    targets: tuple
    kernels: tuple[str, ...] | None = None
    moves: tuple[str, ...] = ()
    acted: str | None = None

    def off(self, patch) -> None:
        """Switch the layer off through ``patch`` (a ``pytest.MonkeyPatch``)."""
        for module, attribute, value in self.targets:
            patch.setattr(module, attribute, value)


REFUTERS = {row.name: row for row in (
    Refuter("classwise-execution", ((engine, "_classwise", lambda *args: None),)),
    Refuter("lattice-normal-form", ((canonical, "_lattice", lambda cls, x, y: cls(x, y)),)),
    Refuter("representative-weak-bucket", ((residues, "_bucket_values", _per_entry_values),)),
    Refuter("representative-undefined-check", ((enumerator, "_undefined", _every_entry_undefined),)),
    Refuter(
        "branch-and-bound",
        ((CONFIGS["default"], "use_branch_and_bound", False),),
        kernels=tuple(k for k in SEARCH_KERNELS if k not in ("diag_dot", "sum_diag_dot")),
        moves=("search.", "solver."),
        acted="search.prune.bound",
    ),
    Refuter(
        "dfs-memo",
        ((CONFIGS["default"], "memoize", False),),
        kernels=SEARCH_KERNELS,
        moves=("search.memo_hits", "search.base_case_matches"),
        acted="search.memo_hits",
    ),
    Refuter(
        "prune-floor",
        ((search, "prune_floor", lambda *args: None),),
        kernels=SEARCH_KERNELS,
        moves=("solver.calls", "solver.hits", "solver.floor_pruned", "solver.pruned_before_cancel",
               "solver.cancel_", "search.prune.simplification"),
        acted="solver.floor_pruned",
    ),
    Refuter(
        "exact-floor-before-cancel",
        ((search, "exact_floor", lambda *args: float("-inf")),),
        kernels=SEARCH_KERNELS,
        moves=("solver.pruned_before_cancel", "solver.cancel_"),
        acted="solver.pruned_before_cancel",
    ),
)}
