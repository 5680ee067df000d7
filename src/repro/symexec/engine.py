"""Symbolic execution of IR programs on SymPy-symbol tensors.

This realizes Section IV-A of the paper.  Instead of lowering to a loop-level
MLIR representation (the paper's implementation route), we interpret each IR
operation directly on object ndarrays of SymPy expressions — the result is
identical: one comprehensive expression per output element.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, Mapping

import numpy as np
import sympy as sp

from repro.errors import SymbolicExecutionError
from repro.ir.nodes import Call, Const, Input, Node
from repro.ir.types import DType
from repro.obs.metrics import bump
from repro.symexec import residues
from repro.symexec.symtensor import SymTensor, representative, rename

_HANDLERS: dict[str, Callable[[list[SymTensor], dict[str, Any]], SymTensor]] = {}


def _handler(name: str):
    def deco(fn):
        _HANDLERS[name] = fn
        return fn

    return deco


def _obj(data) -> np.ndarray:
    arr = np.asarray(data, dtype=object)
    return arr


def _float(data) -> SymTensor:
    return SymTensor(_obj(data), DType.FLOAT)


# -- elementwise arithmetic ---------------------------------------------------


@_handler("add")
def _add(args, attrs):
    return _float(args[0].data + args[1].data)


@_handler("subtract")
def _subtract(args, attrs):
    return _float(args[0].data - args[1].data)


@_handler("multiply")
def _multiply(args, attrs):
    return _float(args[0].data * args[1].data)


@_handler("divide")
def _divide(args, attrs):
    return _float(args[0].data / args[1].data)


@_handler("power")
def _power(args, attrs):
    return _float(args[0].data ** args[1].data)


_sqrt_ufunc = np.frompyfunc(sp.sqrt, 1, 1)
_exp_ufunc = np.frompyfunc(sp.exp, 1, 1)
_log_ufunc = np.frompyfunc(sp.log, 1, 1)
_abs_ufunc = np.frompyfunc(sp.Abs, 1, 1)


@_handler("sqrt")
def _sqrt(args, attrs):
    return _float(_sqrt_ufunc(args[0].data))


@_handler("exp")
def _exp(args, attrs):
    return _float(_exp_ufunc(args[0].data))


@_handler("log")
def _log(args, attrs):
    return _float(_log_ufunc(args[0].data))


@_handler("abs")
def _abs(args, attrs):
    return _float(_abs_ufunc(args[0].data))


@_handler("negative")
def _negative(args, attrs):
    return _float(-args[0].data)


_max_ufunc = np.frompyfunc(sp.Max, 2, 1)
_min_ufunc = np.frompyfunc(sp.Min, 2, 1)


@_handler("maximum")
def _maximum(args, attrs):
    return _float(_max_ufunc(args[0].data, args[1].data))


@_handler("minimum")
def _minimum(args, attrs):
    return _float(_min_ufunc(args[0].data, args[1].data))


# -- comparisons / selection --------------------------------------------------


def _symbolic_less(x, y):
    return residues.less(x, y)


_less_ufunc = np.frompyfunc(_symbolic_less, 2, 1)


@_handler("less")
def _less(args, attrs):
    return SymTensor(_obj(_less_ufunc(args[0].data, args[1].data)), DType.BOOL)


@lru_cache(maxsize=1 << 14)
def _piecewise(cond, x, y):
    return sp.Piecewise((x, cond), (y, True))


def _symbolic_where(cond, x, y):
    """The evaluated ``Piecewise``, built once per index class (on the
    representative) and renamed back unevaluated: ``equiv.where_by_class``."""
    if cond is sp.true or cond is True:
        return x
    if cond is sp.false or cond is False:
        return y
    found = representative((cond, x, y))
    out = None if found is None else rename(_piecewise(*found[0]), found[1])
    if out is None:
        return _piecewise(cond, x, y)
    bump("equiv.where_by_class")
    return out


_where_ufunc = np.frompyfunc(_symbolic_where, 3, 1)


@_handler("where")
def _where(args, attrs):
    return _float(_where_ufunc(args[0].data, args[1].data, args[2].data))


# -- structural ops ------------------------------------------------------------


@_handler("full")
def _full(args, attrs):
    shape = tuple(attrs["shape"])
    fill = args[0].item()
    data = np.empty(shape, dtype=object)
    data[...] = fill
    return SymTensor(data, args[0].dtype)


def _tri_mask(args, attrs, keep_upper: bool) -> SymTensor:
    a = args[0]
    out = np.array(a.data, dtype=object, copy=True)
    rows, cols = a.shape[-2], a.shape[-1]
    for idx in np.ndindex(*a.shape):
        i, j = idx[-2], idx[-1]
        zero_it = (i > j) if keep_upper else (i < j)
        if zero_it:
            out[idx] = sp.S.Zero
    return SymTensor(out, a.dtype)


@_handler("triu")
def _triu(args, attrs):
    return _tri_mask(args, attrs, keep_upper=True)


@_handler("tril")
def _tril(args, attrs):
    return _tri_mask(args, attrs, keep_upper=False)


@_handler("sum")
def _sum(args, attrs):
    axis = attrs.get("axis")
    result = np.sum(args[0].data, axis=axis)
    return _float(sp.sympify(result) if np.ndim(result) == 0 and not isinstance(result, np.ndarray) else result)


@_handler("transpose")
def _transpose(args, attrs):
    return SymTensor(np.transpose(args[0].data, axes=attrs.get("axes")), args[0].dtype)


@_handler("reshape")
def _reshape(args, attrs):
    return SymTensor(np.reshape(args[0].data, tuple(attrs["shape"])), args[0].dtype)


@_handler("diag")
def _diag(args, attrs):
    return SymTensor(np.diag(args[0].data), args[0].dtype)


@_handler("trace")
def _trace(args, attrs):
    return _float(np.trace(args[0].data))


@_handler("stack")
def _stack(args, attrs):
    axis = attrs.get("axis", 0)
    return SymTensor(np.stack([a.data for a in args], axis=axis), args[0].dtype)


@_handler("index")
def _index(args, attrs):
    return SymTensor(np.asarray(args[0].data[attrs["i"]], dtype=object), args[0].dtype)


def _reduce_minmax(args, attrs, fn) -> SymTensor:
    a = args[0]
    axis = attrs.get("axis")
    if axis is None:
        return _float(fn(*list(a.entries())) if a.size > 1 else a.item())
    axis = axis % len(a.shape)
    moved = np.moveaxis(a.data, axis, 0)
    out = np.empty(moved.shape[1:], dtype=object)
    for idx in np.ndindex(*moved.shape[1:]):
        out[idx] = fn(*[moved[(k,) + idx] for k in range(moved.shape[0])])
    if out.shape == ():
        return _float(out.item())
    return _float(out)


@_handler("max")
def _max(args, attrs):
    return _reduce_minmax(args, attrs, sp.Max)


@_handler("min")
def _min(args, attrs):
    return _reduce_minmax(args, attrs, sp.Min)


# -- contractions ----------------------------------------------------------------


@_handler("dot")
def _dot(args, attrs):
    a, b = args
    if a.shape == () or b.shape == ():
        return _float(a.data * b.data)
    return _float(np.dot(a.data, b.data))


@_handler("tensordot")
def _tensordot(args, attrs):
    a, b = args
    axes = attrs.get("axes", 2)
    if isinstance(axes, tuple):
        axes = tuple(list(ax) if isinstance(ax, tuple) else ax for ax in axes)
    return _float(np.tensordot(a.data, b.data, axes=axes))


# -- driver ---------------------------------------------------------------------


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
            elif value.shape != n.type.shape:
                raise SymbolicExecutionError(
                    f"binding for {n.name!r} has shape {value.shape}, expected {n.type.shape}"
                )
        elif isinstance(n, Const):
            value = SymTensor.from_value(n.value, n.type.dtype)
        else:
            assert isinstance(n, Call)
            handler = _HANDLERS.get(n.op)
            if handler is None:
                raise SymbolicExecutionError(f"no symbolic handler for op {n.op!r}")
            args = [go(a) for a in n.args]
            value = handler(args, dict(n.attrs))
            if value.shape != n.type.shape:
                raise SymbolicExecutionError(
                    f"symbolic {n.op} produced shape {value.shape}, typed {n.type.shape}"
                )
        cache[n] = value
        return value

    return go(node)
