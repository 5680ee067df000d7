"""Synthesis pre-screen: an abstract check that runs before symbolic work.

:func:`tensors_disjoint` is the one prune site feeding the ``analysis.*``
counters (MATCH's): per-entry interval disjointness of two symbolic tensors
over the verification box (inputs in ``[1/2, 2]``, the support of
``random_inputs``).  Disjoint entry hulls prove the tensors differ somewhere
on the box, so an ``equivalent()`` call that would return False can be
skipped.  Entries that may be undefined evaluate to TOP and therefore never
prune (see :func:`expr_interval`), and a relative margin guards against
endpoint rounding.
"""

from __future__ import annotations

from functools import lru_cache

import sympy as sp

from repro.analysis.domains import TOP, Interval
from repro.analysis.interp import expr_interval
from repro.symexec.symtensor import SymTensor

__all__ = ["tensors_disjoint", "entry_interval"]

#: Input box used by the pre-screen: the support of ``random_inputs``
#: (uniform over ``[0.5, 2)``), a sub-box of the positive verification
#: domain, so disjointness on it implies inequivalence under the system's
#: equality semantics.
PRESCREEN_BOX = Interval(0.5, 2.0)

#: Relative gap required before two entry hulls count as disjoint;
#: absorbs double-rounding in interval endpoint arithmetic.
DISJOINT_MARGIN = 1e-9


def _symbol_box(symbol: sp.Symbol) -> Interval:
    # Boolean carriers are "?"-suffixed and sampled signed: no numeric box.
    if symbol.name.endswith("?"):
        return TOP
    return PRESCREEN_BOX


@lru_cache(maxsize=16384)
def entry_interval(expr: sp.Basic) -> Interval:
    """Interval hull of one symbolic entry over the pre-screen box."""
    return expr_interval(expr, _symbol_box)


def tensors_disjoint(a: SymTensor, b: SymTensor) -> bool:
    """True when some entry pair has provably disjoint value hulls."""
    if a.shape != b.shape:
        return False
    for ea, eb in zip(a.entries(), b.entries()):
        if entry_interval(ea).disjoint(entry_interval(eb), margin=DISJOINT_MARGIN):
            return True
    return False
