"""The refute-only layers, one row each: what to patch, and what says nothing.

A refute-only layer may refute, prune or short-cut; it may never decide an
answer.  Each row names a layer, every binding through which the pipeline
reaches it (its patch targets), and the *no-opinion* value of each: the
computation the layer stands in for.  With a row switched off the pipeline
must give the same libraries, programs, costs and search counters —
``tests/test_refuters.py`` checks that over the suite kernels.

Rows so far are the layers of DESIGN.md decision 26:

* class-wise execution — no opinion: the entrywise rule;
* the lattice normal form — no opinion: the evaluated ``sp.Max`` / ``sp.Min``;
* the representative-valued weak bucket — no opinion: every entry evaluated
  at its own order points;
* the undefined check on the representative — no opinion: every entry checked.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

from repro.symexec import engine, residues
from repro.synth import enumerator

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


@dataclass(frozen=True)
class Refuter:
    """One layer: ``targets`` are ``(module, attribute, no-opinion value)``."""

    name: str
    targets: tuple

    def off(self, patch) -> None:
        """Switch the layer off through ``patch`` (a ``pytest.MonkeyPatch``)."""
        for module, attribute, value in self.targets:
            patch.setattr(module, attribute, value)


REFUTERS = (
    Refuter("classwise-execution", ((engine, "_classwise", lambda *args: None),)),
    Refuter("lattice-normal-form", ((canonical, "_lattice", lambda cls, x, y: cls(x, y)),)),
    Refuter("representative-weak-bucket", ((residues, "_bucket_values", _per_entry_values),)),
    Refuter("representative-undefined-check", ((enumerator, "_undefined", _every_entry_undefined),)),
)
