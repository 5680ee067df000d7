"""Symbolic execution of IR programs on SymPy-symbol tensors.

This realizes Section IV-A of the paper.  The paper lowers the program to a
loop-level MLIR representation and executes the loops on SymPy symbols; what
it needs from that is one comprehensive expression per output element.  This
engine builds those expressions directly, interpreting each IR operation on
object ndarrays of SymPy expressions; no loop-level form is built or run.  The
reference is NumPy itself: the tests hold the evaluator to NumPy's ``eval`` of
each source, and this engine to the evaluator (DESIGN.md, decision 28).

The op registry is the rule table: NumPy runs an op's :class:`OpSpec` rule
(a contraction, a reduction, ``a + b`` …) on object arrays of SymPy
expressions unchanged.  :data:`_RULES` holds a SymPy rule only for the ops whose NumPy
rule fails there: ``sqrt`` / ``exp`` / ``log`` look the function up as a
method of each entry, ``maximum`` / ``minimum`` / ``less`` / ``where`` and
the ``max`` / ``min`` reductions force a truth value, and ``triu`` / ``tril``
fill with a Python ``0`` rather than ``sp.S.Zero``.

Each elementwise op runs once per index class (DESIGN.md, decision 26).
Unbound float inputs of non-scalar shape are index-class tensors
(:func:`~repro.symexec.symtensor.index_class`).  An op whose registry entry
is ``elementwise`` and whose arguments are each an index-class tensor of the
output shape or a scalar with no symbols runs its rule on the entry-0
arguments alone; every other entry is that representative renamed
(:func:`~repro.symexec.symtensor.from_representative`), and the result is
index-class too (``symexec.classwise``).  Everything else — broadcast or
transposed arguments, reductions, contractions, bound inputs, boolean
carriers — runs entry by entry (``symexec.entrywise``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

import numpy as np
import sympy as sp

from repro.errors import SymbolicExecutionError
from repro.ir.nodes import Call, Const, Input, Node
from repro.ir.ops import get_op
from repro.ir.types import DType, TensorType
from repro.obs.metrics import bump
from repro.symexec import residues
from repro.symexec.symtensor import SymTensor, from_representative, index_class, mark_index_class


@lru_cache(maxsize=1 << 14)
def _piecewise(cond, x, y):
    return sp.Piecewise((x, cond), (y, True))


def _symbolic_where(cond, x, y):
    """``np.where`` on one entry: the evaluated ``Piecewise``, memoised."""
    if cond is sp.true or cond is True:
        return x
    if cond is sp.false or cond is False:
        return y
    return _piecewise(cond, x, y)


def _entrywise(fn, nin: int):
    ufunc = np.frompyfunc(fn, nin, 1)
    return lambda args, attrs: ufunc(*args)


def _masked(op: str):
    """``triu`` / ``tril``: the registry rule applied to a mask, ``sp.S.Zero`` outside it."""
    mask = get_op(op).eval

    def rule(args, attrs):
        keep = mask([np.ones(args[0].shape[-2:], dtype=bool)], attrs)
        return np.where(keep, args[0], sp.S.Zero)

    return rule


def _reduction(fn):
    """``max`` / ``min``: ``fn`` of the entries along ``axis`` (of all entries if None)."""
    def rule(args, attrs):
        (a,) = args
        axis = attrs.get("axis")
        if axis is None:
            return fn(*a.reshape(-1)) if a.size > 1 else a.item()
        lanes = np.moveaxis(a, axis, -1)
        out = np.empty(lanes.shape[:-1], dtype=object)
        for idx in np.ndindex(*out.shape):
            out[idx] = fn(*lanes[idx])
        return out

    return rule


#: The SymPy rules, one per op NumPy cannot evaluate on SymPy entries; every
#: other op runs its registry rule.  ``less`` and ``where`` bind late, so a
#: patch of ``residues.less`` or ``_symbolic_where`` takes effect.
_RULES = {
    "sqrt": _entrywise(sp.sqrt, 1),
    "exp": _entrywise(sp.exp, 1),
    "log": _entrywise(sp.log, 1),
    "maximum": _entrywise(sp.Max, 2),
    "minimum": _entrywise(sp.Min, 2),
    "less": _entrywise(lambda x, y: residues.less(x, y), 2),
    "where": _entrywise(lambda c, x, y: _symbolic_where(c, x, y), 3),
    "triu": _masked("triu"),
    "tril": _masked("tril"),
    "max": _reduction(sp.Max),
    "min": _reduction(sp.Min),
}


def _rule(op: str):
    return _RULES.get(op) or get_op(op).eval


def _classwise(op: str, args: list[SymTensor], attrs: dict, out: TensorType) -> SymTensor | None:
    """``op(*args)`` built on the entry-0 arguments and renamed into every
    other entry, or ``None`` (no opinion: run the entrywise rule)."""
    shape = out.shape
    if not (shape and 0 not in shape and get_op(op).elementwise):
        return None
    heads = []
    for a in args:
        if a.shape == shape and index_class(a):
            heads.append(a.data.reshape(-1)[:1])
        elif a.shape == () and not a.item().free_symbols:
            heads.append(a.data)
        else:
            return None
    rep = np.asarray(_rule(op)(heads, attrs), dtype=object).reshape(-1)[0]
    return from_representative(rep, shape, out.dtype)


def symbolic_execute(
    node: Node,
    bindings: Mapping[str, SymTensor] | None = None,
    cache: dict[Node, SymTensor] | None = None,
) -> SymTensor:
    """Symbolically execute an IR tree.

    ``bindings`` can override the symbolic value of named inputs (used by the
    sketch solver to evaluate sketch arguments); unbound inputs get fresh
    element symbols derived from their name.  ``cache`` may be shared across
    calls *without* bindings (values are deterministic per node); the
    enumerator uses this so level-2 stubs reuse level-1 tensors.
    """
    bindings = dict(bindings or {})
    if cache is None or bindings:
        cache = {}

    def go(n: Node) -> SymTensor:
        hit = cache.get(n)
        if hit is not None:
            return hit
        if isinstance(n, Input):
            value = bindings.get(n.name)
            if value is None:
                value = SymTensor.from_input(n.name, n.type)
                if n.type.shape and n.type.dtype is DType.FLOAT:
                    mark_index_class(value)
            elif value.shape != n.type.shape:
                raise SymbolicExecutionError(
                    f"binding for {n.name!r} has shape {value.shape}, expected {n.type.shape}"
                )
        elif isinstance(n, Const):
            value = SymTensor.from_value(n.value, n.type.dtype)
        else:
            assert isinstance(n, Call)
            args, attrs = [go(a) for a in n.args], dict(n.attrs)
            value = _classwise(n.op, args, attrs, n.type)
            if value is not None:
                bump("symexec.classwise")
            else:
                bump("symexec.entrywise")
                data = _rule(n.op)([a.data for a in args], attrs)
                value = SymTensor(np.asarray(data, dtype=object), n.type.dtype)
                if value.shape != n.type.shape:
                    raise SymbolicExecutionError(
                        f"symbolic {n.op} produced shape {value.shape}, typed {n.type.shape}"
                    )
        cache[n] = value
        return value

    return go(node)
