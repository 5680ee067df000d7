"""Abstract interpreter over the tensor IR and over SymPy entry expressions.

Two evaluators share the :class:`~repro.analysis.domains.Interval` domain:

* :func:`abstract_eval` walks a :class:`repro.ir.nodes.Node` tree and
  computes, per node, a sound hull over every element of the node's value
  for any concrete inputs drawn from the environment intervals, together
  with the set of definedness hazards reachable in the subtree.  One
  *relational* refinement rides on top of plain interval arithmetic:
  ``subtract(x, x)`` with structurally identical operands is exactly
  ``[0, 0]`` — which is what lets the synthesis pre-screen prove
  denominators dead before any symbolic work.

* :func:`expr_interval` walks an already symbolically-executed SymPy entry
  expression.  Any subterm that may be *undefined* on the analyzed box
  (division by a zero-containing interval, ``log`` of a non-positive one…)
  widens the whole entry to TOP, so interval disjointness is only ever
  reported for pairs of total functions — the property the base-case
  pre-screen relies on for soundness.

Unknown operations and unknown SymPy heads map to TOP plus every hazard:
the analyzer degrades to "no information" rather than guessing.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

import numpy as np
import sympy as sp

from repro.analysis.domains import (
    ALL_HAZARDS,
    NO_HAZARDS,
    TOP,
    UNIT_BOOL,
    AbstractValue,
    Hazard,
    Interval,
)
from repro.ir.nodes import Call, Const, Input, Node
from repro.ir.ops import fill, get_op
from repro.ir.types import DType

__all__ = ["abstract_eval", "expr_interval", "node_hazards"]

_INF = math.inf


def _size(shape: tuple[int, ...]) -> int:
    n = 1
    for d in shape:
        n *= d
    return n


def _hull_with_zero_if(iv: Interval, cond: bool) -> Interval:
    return iv.hull(Interval.point(0.0)) if cond else iv


# ---------------------------------------------------------------------------
# IR transfer functions
# ---------------------------------------------------------------------------
# Each transfer, the op table's ``transfer`` column (filled here), receives
# the Call node plus the abstract values of its arguments and returns (range,
# own_hazards).  Hazards of the children are unioned in by the driver.


@fill("transfer", "add")
def _t_add(node, args):
    return args[0].range + args[1].range, NO_HAZARDS


@fill("transfer", "subtract")
def _t_subtract(node, args):
    if node.args[0] == node.args[1]:
        # Relational refinement: x - x is exactly zero for every input.
        return Interval.point(0.0), NO_HAZARDS
    return args[0].range - args[1].range, NO_HAZARDS


@fill("transfer", "multiply")
def _t_multiply(node, args):
    return args[0].range * args[1].range, NO_HAZARDS


@fill("transfer", "divide")
def _t_divide(node, args):
    hazards = frozenset({Hazard.DIV_ZERO}) if args[1].range.contains_zero() else NO_HAZARDS
    return args[0].range / args[1].range, hazards


@fill("transfer", "power")
def _t_power(node, args):
    base, expo = args[0].range, args[1].range
    hazards: set[Hazard] = set()
    if expo.is_point:
        c = expo.lo
        if c < 0.0 and base.contains_zero():
            hazards.add(Hazard.DIV_ZERO)
        if not float(c).is_integer() and base.may_be_negative():
            hazards.add(Hazard.POW_DOM)
        return base.pow_const(c), frozenset(hazards)
    if expo.lo < 0.0 and base.contains_zero():
        hazards.add(Hazard.DIV_ZERO)
    if base.may_be_negative():
        hazards.add(Hazard.POW_DOM)
    if base.lo > 0.0 or (base.lo == 0.0 and base.lo_open):
        return (base.log() * expo).exp(), frozenset(hazards)
    return TOP, frozenset(hazards)


@fill("transfer", "sqrt")
def _t_sqrt(node, args):
    hazards = frozenset({Hazard.SQRT_NEG}) if args[0].range.may_be_negative() else NO_HAZARDS
    return args[0].range.sqrt(), hazards


@fill("transfer", "exp")
def _t_exp(node, args):
    return args[0].range.exp(), NO_HAZARDS


@fill("transfer", "log")
def _t_log(node, args):
    hazards = frozenset({Hazard.LOG_DOM}) if args[0].range.may_be_nonpositive() else NO_HAZARDS
    return args[0].range.log(), hazards


@fill("transfer", "negative")
def _t_negative(node, args):
    return -args[0].range, NO_HAZARDS


@fill("transfer", "abs")
def _t_abs(node, args):
    return args[0].range.abs(), NO_HAZARDS


@fill("transfer", "maximum")
def _t_maximum(node, args):
    return args[0].range.max_(args[1].range), NO_HAZARDS


@fill("transfer", "minimum")
def _t_minimum(node, args):
    return args[0].range.min_(args[1].range), NO_HAZARDS


@fill("transfer", "less")
def _t_less(node, args):
    return UNIT_BOOL, NO_HAZARDS


@fill("transfer", "where")
def _t_where(node, args):
    return args[1].range.hull(args[2].range), NO_HAZARDS


@fill("transfer", "full")
def _t_full(node, args):
    return args[0].range, NO_HAZARDS


@fill("transfer", "triu")
def _t_triu(node, args):
    shape = node.type.shape
    return _hull_with_zero_if(args[0].range, len(shape) >= 2 and shape[-2] >= 2), NO_HAZARDS


@fill("transfer", "tril")
def _t_tril(node, args):
    shape = node.type.shape
    return _hull_with_zero_if(args[0].range, len(shape) >= 2 and shape[-1] >= 2), NO_HAZARDS


@fill("transfer", "sum")
def _t_sum(node, args):
    out_size = _size(node.type.shape)
    if out_size == 0:
        return Interval.point(0.0), NO_HAZARDS
    k = _size(args[0].type.shape) // out_size
    return args[0].range.scale(k), NO_HAZARDS


@fill("transfer", "trace")
def _t_trace(node, args):
    shape = args[0].type.shape
    k = min(shape) if shape else 1
    return args[0].range.scale(k), NO_HAZARDS


@fill("transfer", "dot")
def _t_dot(node, args):
    a, b = args
    if a.type.shape == () or b.type.shape == ():
        return a.range * b.range, NO_HAZARDS
    k = a.type.shape[-1]
    return (a.range * b.range).scale(k), NO_HAZARDS


@fill("transfer", "tensordot")
def _t_tensordot(node, args):
    a, b = args
    out_size = _size(node.type.shape)
    if out_size == 0:
        return Interval.point(0.0), NO_HAZARDS
    # a.size = rest_a * k and b.size = rest_b * k with out_size = rest_a *
    # rest_b, so k falls out without re-deriving the contracted axes.
    k = math.isqrt(max(1, _size(a.type.shape) * _size(b.type.shape) // out_size))
    return (a.range * b.range).scale(k), NO_HAZARDS


@fill("transfer", "diag")
def _t_diag(node, args):
    src_rank = len(args[0].type.shape)
    if src_rank == 1:  # vector -> matrix: off-diagonal entries are zero
        n = node.type.shape[0] if node.type.shape else 0
        return _hull_with_zero_if(args[0].range, n >= 2), NO_HAZARDS
    return args[0].range, NO_HAZARDS


@fill("transfer", "stack")
def _t_stack(node, args):
    iv = args[0].range
    for a in args[1:]:
        iv = iv.hull(a.range)
    return iv, NO_HAZARDS


@fill("transfer", "transpose", "reshape", "index", "max", "min")
def _t_identity(node, args):
    return args[0].range, NO_HAZARDS


# ---------------------------------------------------------------------------
# IR driver
# ---------------------------------------------------------------------------


def _const_value(node: Const) -> tuple[Interval, frozenset[Hazard]]:
    arr = np.asarray(node.value, dtype=np.float64) if node.type.dtype is DType.BOOL else node.value
    if arr.size == 0:
        return Interval.point(0.0), NO_HAZARDS
    lo = float(np.min(arr))
    hi = float(np.max(arr))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return TOP, NO_HAZARDS
    return Interval(lo, hi), NO_HAZARDS


def abstract_eval(
    node: Node,
    env: Mapping[str, Interval] | None = None,
    default: Interval | None = None,
    memo: dict[Node, AbstractValue] | None = None,
) -> AbstractValue:
    """Abstract value of ``node`` for inputs drawn from ``env`` intervals.

    ``env`` maps input names to intervals; inputs not present use
    ``default`` (the strictly positive verification domain when omitted).
    The result's ``range`` is a sound hull over every output element and
    ``hazards`` collects every definedness hazard in the subtree.
    """
    env = env or {}
    box = default if default is not None else Interval.positive()
    memo = {} if memo is None else memo

    def go(n: Node) -> AbstractValue:
        cached = memo.get(n)
        if cached is not None:
            return cached
        if isinstance(n, Input):
            iv = env.get(n.name, box)
            if n.type.dtype is DType.BOOL:
                iv = UNIT_BOOL
            out = AbstractValue(n.type, iv)
        elif isinstance(n, Const):
            iv, hazards = _const_value(n)
            out = AbstractValue(n.type, iv, hazards)
        elif isinstance(n, Call):
            args = [go(a) for a in n.args]
            child_hazards: frozenset[Hazard] = NO_HAZARDS
            for a in args:
                child_hazards |= a.hazards
            transfer = get_op(n.op).transfer
            if transfer is None:
                iv, own = TOP, ALL_HAZARDS
            else:
                iv, own = transfer(n, args)
            out = AbstractValue(n.type, iv, child_hazards | own)
        else:  # pragma: no cover - future node kinds degrade soundly
            out = AbstractValue(n.type, TOP, ALL_HAZARDS)
        memo[n] = out
        return out

    return go(node)


def node_hazards(node: Node, env: Mapping[str, Interval] | None = None,
                 default: Interval | None = None) -> frozenset[Hazard]:
    """Definedness hazards of ``node`` over the given input box."""
    return abstract_eval(node, env=env, default=default).hazards


# ---------------------------------------------------------------------------
# SymPy entry expressions
# ---------------------------------------------------------------------------


def expr_interval(
    expr: sp.Basic,
    symbol_interval: Callable[[sp.Symbol], Interval],
    _memo: dict[sp.Basic, Interval] | None = None,
) -> Interval:
    """Sound interval hull of one SymPy entry over the given symbol box.

    Returns TOP whenever the entry may be undefined anywhere on the box or
    contains a head the walker does not model — so a non-TOP result is a
    total-function guarantee, and two entries with *disjoint* non-TOP
    intervals provably differ somewhere on the box.
    """
    memo: dict[sp.Basic, Interval] = {} if _memo is None else _memo

    def go(e: sp.Basic) -> Interval:
        cached = memo.get(e)
        if cached is not None:
            return cached
        memo[e] = iv = _go(e)
        return iv

    def _go(e: sp.Basic) -> Interval:
        if e is sp.nan or e is sp.zoo or e is sp.oo or e is -sp.oo:
            return TOP
        if e.is_Number or isinstance(e, sp.NumberSymbol):
            try:
                value = float(e)
            except (TypeError, ValueError):
                return TOP
            if not math.isfinite(value):
                return TOP
            return Interval.point(value)
        if isinstance(e, sp.Symbol):
            return symbol_interval(e)
        if isinstance(e, sp.Add):
            iv = Interval.point(0.0)
            for term in e.args:
                t = go(term)
                if t is TOP:
                    return TOP
                iv = iv + t
            return iv
        if isinstance(e, sp.Mul):
            iv = Interval.point(1.0)
            for factor in e.args:
                f = go(factor)
                if f is TOP:
                    return TOP
                iv = iv * f
            return iv
        if isinstance(e, sp.Pow):
            base = go(e.args[0])
            if base is TOP:
                return TOP
            expo = e.args[1]
            if expo.is_Number:
                try:
                    c = float(expo)
                except (TypeError, ValueError):
                    return TOP
                if not math.isfinite(c):
                    return TOP
                if c < 0.0 and base.contains_zero():
                    return TOP  # may divide by zero somewhere on the box
                if not c.is_integer() and base.may_be_negative():
                    return TOP  # may leave the real domain
                return base.pow_const(c)
            ei = go(expo)
            if ei is TOP:
                return TOP
            if base.lo > 0.0 or (base.lo == 0.0 and base.lo_open and ei.lo >= 0.0):
                return (base.log() * ei).exp()
            return TOP
        if isinstance(e, sp.exp):
            a = go(e.args[0])
            return TOP if a is TOP else a.exp()
        if isinstance(e, sp.log):
            a = go(e.args[0])
            if a is TOP or a.may_be_nonpositive():
                return TOP
            return a.log()
        if isinstance(e, sp.Abs):
            a = go(e.args[0])
            return TOP if a is TOP else a.abs()
        if isinstance(e, (sp.Min, sp.Max)):
            fold: Interval | None = None
            for arg in e.args:
                a = go(arg)
                if a is TOP:
                    return TOP
                if fold is None:
                    fold = a
                elif isinstance(e, sp.Min):
                    fold = fold.min_(a)
                else:
                    fold = fold.max_(a)
            return fold if fold is not None else TOP
        if isinstance(e, sp.Piecewise):
            if not e.args or e.args[-1][1] is not sp.true:
                return TOP  # may fall through every branch: undefined
            fold = None
            for value, _cond in e.args:
                v = go(value)
                if v is TOP:
                    return TOP
                fold = v if fold is None else fold.hull(v)
            return fold if fold is not None else TOP
        return TOP

    return go(sp.sympify(expr))
