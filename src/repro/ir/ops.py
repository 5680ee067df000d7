"""Operation registry for the tensor IR.

Every operation the system understands is described by an :class:`OpSpec`
row holding its type-inference rule, NumPy evaluation function, and FLOP count.
The rest of the row is the op's place in each other layer — its SymPy rule,
residue battery, SOLVE inverse, interval transfer, boolean trigger and NumPy
spelling (:data:`COLUMNS`).  Each of those columns is filled at import by the
module that owns it, through :func:`fill`, and read only there or in a module
importing it, so no reader sees a column before it is filled; an empty cell
(None) means the layer has no rule for the op (``docs/ops.md``).
The registry covers two layers:

* the **synthesis grammar** of Fig. 3 in the paper (``in_grammar=True``):
  ``full, triu, tril, sum, transpose, sqrt, add, subtract, multiply, divide,
  dot, tensordot, power, where, less``;
* additional **input-side** operations needed to parse and symbolically
  execute the benchmark suite (``exp, log, diag, trace, stack, reshape, max,
  maximum, negative, abs, index``).  These may appear in input programs but
  the synthesizer never emits them unless explicitly added to the grammar.

FLOP counts follow the JAX/XLA convention (multiply-add in a contraction is
2 FLOPs; elementwise ops are 1 FLOP per output element; data-movement ops are
0 FLOPs).  The FLOPS *cost model* adds a small per-node epsilon on top of
these so that data movement still breaks ties (see :mod:`repro.cost.flops`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import TypeInferenceError, UnsupportedOpError
from repro.ir.types import (
    DType,
    TensorType,
    broadcast_shapes,
    normalize_axis,
    reduce_shape,
)

InferFn = Callable[[list[TensorType], dict[str, Any]], TensorType]
EvalFn = Callable[[list[np.ndarray], dict[str, Any]], np.ndarray]
FlopsFn = Callable[[list[TensorType], TensorType, dict[str, Any]], float]


@dataclass(frozen=True)
class OpSpec:
    """Static description of one IR operation."""

    name: str
    numpy_name: str
    arity: int
    infer: InferFn
    eval: EvalFn
    flops: FlopsFn
    in_grammar: bool = False
    elementwise: bool = False
    attr_names: tuple[str, ...] = ()
    result_dtype: DType = DType.FLOAT
    # The columns other modules fill (:func:`fill`); None is "no rule".
    #: ``repro.symexec.engine``: the rule run on SymPy entries where ``eval``'s fails.
    symbolic: EvalFn | None = field(default=None, compare=False, repr=False)
    #: ``repro.symexec.residues``: the battery of the op from its arguments'.
    battery: Callable | None = field(default=None, compare=False, repr=False)
    #: ``repro.synth.solver``: the hole's target from the op's, and whether
    #: SOLVE normalizes what it builds.
    inverse: Callable | None = field(default=None, compare=False, repr=False)
    normalizes: bool | None = field(default=None, compare=False, repr=False)
    #: ``repro.analysis.interp``: the interval and hazards of the op's value.
    transfer: Callable | None = field(default=None, compare=False, repr=False)
    #: ``repro.synth.enumerator``: the op in a program turns on the boolean grammar.
    boolean_trigger: bool | None = field(default=None, compare=False, repr=False)
    #: ``repro.ir.printer``: how NumPy source writes a call of the op.
    spelling: Any = field(default=None, compare=False, repr=False)


#: The columns of :class:`OpSpec` that :func:`fill` sets.
COLUMNS = ("symbolic", "battery", "inverse", "normalizes", "transfer", "boolean_trigger", "spelling")


_REGISTRY: dict[str, OpSpec] = {}


def register(spec: OpSpec) -> OpSpec:
    if spec.name in _REGISTRY:
        raise ValueError(f"duplicate op registration: {spec.name}")
    _REGISTRY[spec.name] = spec
    return spec


def get_op(name: str) -> OpSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnsupportedOpError(f"unknown op {name!r}") from None


def has_op(name: str) -> bool:
    return name in _REGISTRY


def all_ops() -> list[OpSpec]:
    return list(_REGISTRY.values())


def grammar_ops() -> list[OpSpec]:
    """Operations available to the synthesizer (Fig. 3 grammar)."""
    return [spec for spec in _REGISTRY.values() if spec.in_grammar]


def fill(column: str, *names: str, **also: Any) -> Callable:
    """Decorator: the decorated value becomes ``column`` of each named row,
    and each ``also`` keyword the column it names.  Called directly on a value
    that is not a definition: ``fill("battery", "add")(rule)``.

    Only the module that owns a column fills it, once per row, at import.
    """

    def deco(value):
        for name in names:
            spec = get_op(name)
            for col, v in ((column, value), *also.items()):
                if col not in COLUMNS:
                    raise ValueError(f"{col!r} is not an op table column")
                if getattr(spec, col) is not None:
                    raise ValueError(f"{name}.{col} is filled twice")
                object.__setattr__(spec, col, v)
        return value

    return deco


# ---------------------------------------------------------------------------
# Shared inference / flops helpers
# ---------------------------------------------------------------------------


def _require_float(types: Sequence[TensorType], op: str) -> None:
    for t in types:
        if t.dtype is not DType.FLOAT:
            raise TypeInferenceError(f"{op} requires float operands, got {t}")


def _infer_elementwise_binary(dtype: DType) -> InferFn:
    def infer(types: list[TensorType], attrs: dict[str, Any]) -> TensorType:
        a, b = types
        if a.dtype is not DType.FLOAT or b.dtype is not DType.FLOAT:
            raise TypeInferenceError("elementwise binary ops require float operands")
        return TensorType(dtype, broadcast_shapes(a.shape, b.shape))

    return infer


def _infer_elementwise_unary(types: list[TensorType], attrs: dict[str, Any]) -> TensorType:
    (a,) = types
    _require_float(types, "unary")
    return a


def _flops_per_output(factor: float = 1.0) -> FlopsFn:
    def flops(types: list[TensorType], out: TensorType, attrs: dict[str, Any]) -> float:
        return factor * out.size

    return flops


def _flops_zero(types: list[TensorType], out: TensorType, attrs: dict[str, Any]) -> float:
    return 0.0


def _flops_input_size(types: list[TensorType], out: TensorType, attrs: dict[str, Any]) -> float:
    return float(types[0].size)


# ---------------------------------------------------------------------------
# Elementwise arithmetic (grammar)
# ---------------------------------------------------------------------------


def _binary(name: str, numpy_name: str, fn: Callable, in_grammar: bool = True) -> None:
    register(
        OpSpec(
            name=name,
            numpy_name=numpy_name,
            arity=2,
            infer=_infer_elementwise_binary(DType.FLOAT),
            eval=lambda args, attrs, fn=fn: fn(args[0], args[1]),
            flops=_flops_per_output(),
            in_grammar=in_grammar,
            elementwise=True,
        )
    )


_binary("add", "np.add", np.add)
_binary("subtract", "np.subtract", np.subtract)
_binary("multiply", "np.multiply", np.multiply)
_binary("divide", "np.divide", np.divide)
_binary("power", "np.power", np.power)


register(
    OpSpec(
        name="sqrt",
        numpy_name="np.sqrt",
        arity=1,
        infer=_infer_elementwise_unary,
        eval=lambda args, attrs: np.sqrt(args[0]),
        flops=_flops_per_output(),
        in_grammar=True,
        elementwise=True,
    )
)


def _infer_less(types: list[TensorType], attrs: dict[str, Any]) -> TensorType:
    a, b = types
    _require_float(types, "less")
    return TensorType(DType.BOOL, broadcast_shapes(a.shape, b.shape))


register(
    OpSpec(
        name="less",
        numpy_name="np.less",
        arity=2,
        infer=_infer_less,
        eval=lambda args, attrs: np.less(args[0], args[1]),
        flops=_flops_per_output(),
        in_grammar=True,
        elementwise=True,
        result_dtype=DType.BOOL,
    )
)


def _infer_where(types: list[TensorType], attrs: dict[str, Any]) -> TensorType:
    cond, a, b = types
    if cond.dtype is not DType.BOOL:
        raise TypeInferenceError("where condition must be boolean")
    _require_float([a, b], "where")
    shape = broadcast_shapes(broadcast_shapes(cond.shape, a.shape), b.shape)
    return TensorType(DType.FLOAT, shape)


register(
    OpSpec(
        name="where",
        numpy_name="np.where",
        arity=3,
        infer=_infer_where,
        eval=lambda args, attrs: np.where(args[0], args[1], args[2]),
        flops=_flops_per_output(),
        in_grammar=True,
        elementwise=True,
    )
)


# ---------------------------------------------------------------------------
# Structural ops (grammar)
# ---------------------------------------------------------------------------


def _infer_full(types: list[TensorType], attrs: dict[str, Any]) -> TensorType:
    (fill,) = types
    if not fill.is_scalar:
        raise TypeInferenceError("full fill value must be a scalar")
    shape = attrs.get("shape")
    if shape is None:
        raise TypeInferenceError("full requires a shape attribute")
    return TensorType(fill.dtype, tuple(shape))


register(
    OpSpec(
        name="full",
        numpy_name="np.full",
        arity=1,
        infer=_infer_full,
        eval=lambda args, attrs: np.full(attrs["shape"], args[0]),
        flops=_flops_zero,
        in_grammar=True,
        attr_names=("shape",),
    )
)


def _infer_tri(types: list[TensorType], attrs: dict[str, Any]) -> TensorType:
    (a,) = types
    if a.rank < 2:
        raise TypeInferenceError("triu/tril require rank >= 2")
    return a


for _tri_name, _tri_fn in (("triu", np.triu), ("tril", np.tril)):
    register(
        OpSpec(
            name=_tri_name,
            numpy_name=f"np.{_tri_name}",
            arity=1,
            infer=_infer_tri,
            eval=lambda args, attrs, fn=_tri_fn: fn(args[0]),
            flops=_flops_zero,
            in_grammar=True,
        )
    )


def _infer_sum(types: list[TensorType], attrs: dict[str, Any]) -> TensorType:
    (a,) = types
    _require_float(types, "sum")
    return TensorType(DType.FLOAT, reduce_shape(a.shape, attrs.get("axis")))


register(
    OpSpec(
        name="sum",
        numpy_name="np.sum",
        arity=1,
        infer=_infer_sum,
        eval=lambda args, attrs: np.sum(args[0], axis=attrs.get("axis")),
        flops=_flops_input_size,
        in_grammar=True,
        attr_names=("axis",),
    )
)


def _transpose_axes(rank: int, attrs: dict[str, Any]) -> tuple[int, ...]:
    axes = attrs.get("axes")
    if axes is None:
        return tuple(reversed(range(rank)))
    axes = tuple(normalize_axis(ax, rank) for ax in axes)
    if sorted(axes) != list(range(rank)):
        raise TypeInferenceError(f"invalid transpose axes {axes} for rank {rank}")
    return axes


def _infer_transpose(types: list[TensorType], attrs: dict[str, Any]) -> TensorType:
    (a,) = types
    axes = _transpose_axes(a.rank, attrs)
    return a.with_shape(tuple(a.shape[ax] for ax in axes))


register(
    OpSpec(
        name="transpose",
        numpy_name="np.transpose",
        arity=1,
        infer=_infer_transpose,
        eval=lambda args, attrs: np.transpose(args[0], axes=attrs.get("axes")),
        flops=_flops_zero,
        in_grammar=True,
        attr_names=("axes",),
    )
)


# ---------------------------------------------------------------------------
# Contractions (grammar)
# ---------------------------------------------------------------------------


def _infer_dot(types: list[TensorType], attrs: dict[str, Any]) -> TensorType:
    a, b = types
    _require_float(types, "dot")
    if a.rank == 0 or b.rank == 0:
        # np.dot with a scalar operand is scalar multiplication.
        return TensorType(DType.FLOAT, broadcast_shapes(a.shape, b.shape))
    if b.rank == 1:
        if a.shape[-1] != b.shape[0]:
            raise TypeInferenceError(f"dot: {a.shape} x {b.shape} mismatch")
        return TensorType(DType.FLOAT, a.shape[:-1])
    # General np.dot: contract last axis of a with second-to-last of b.
    if a.shape[-1] != b.shape[-2]:
        raise TypeInferenceError(f"dot: {a.shape} x {b.shape} mismatch")
    return TensorType(DType.FLOAT, a.shape[:-1] + b.shape[:-2] + b.shape[-1:])


def _flops_dot(types: list[TensorType], out: TensorType, attrs: dict[str, Any]) -> float:
    a, b = types
    if a.rank == 0 or b.rank == 0:
        return float(out.size)
    k = a.shape[-1]
    return 2.0 * k * max(out.size, 1)


register(
    OpSpec(
        name="dot",
        numpy_name="np.dot",
        arity=2,
        infer=_infer_dot,
        eval=lambda args, attrs: np.dot(args[0], args[1]),
        flops=_flops_dot,
        in_grammar=True,
    )
)


def _tensordot_axes(a: TensorType, b: TensorType, attrs: dict[str, Any]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    axes = attrs.get("axes", 2)
    if isinstance(axes, int):
        if axes > min(a.rank, b.rank):
            raise TypeInferenceError(f"tensordot: axes={axes} for ranks {a.rank} and {b.rank}")
        a_axes = tuple(range(a.rank - axes, a.rank))
        b_axes = tuple(range(axes))
    else:
        a_axes, b_axes = axes
        if isinstance(a_axes, int):
            a_axes = (a_axes,)
        if isinstance(b_axes, int):
            b_axes = (b_axes,)
        a_axes = tuple(normalize_axis(ax, a.rank) for ax in a_axes)
        b_axes = tuple(normalize_axis(ax, b.rank) for ax in b_axes)
    if len(a_axes) != len(b_axes):
        raise TypeInferenceError("tensordot: axis lists differ in length")
    for ax_a, ax_b in zip(a_axes, b_axes):
        if a.shape[ax_a] != b.shape[ax_b]:
            raise TypeInferenceError(
                f"tensordot: contracted dims mismatch {a.shape[ax_a]} vs {b.shape[ax_b]}"
            )
    return a_axes, b_axes


def _infer_tensordot(types: list[TensorType], attrs: dict[str, Any]) -> TensorType:
    a, b = types
    _require_float(types, "tensordot")
    a_axes, b_axes = _tensordot_axes(a, b, attrs)
    out_shape = tuple(d for i, d in enumerate(a.shape) if i not in a_axes) + tuple(
        d for i, d in enumerate(b.shape) if i not in b_axes
    )
    return TensorType(DType.FLOAT, out_shape)


def _flops_tensordot(types: list[TensorType], out: TensorType, attrs: dict[str, Any]) -> float:
    a, b = types
    a_axes, _ = _tensordot_axes(a, b, attrs)
    k = math.prod(a.shape[ax] for ax in a_axes) if a_axes else 1
    return 2.0 * k * max(out.size, 1) if a_axes else float(out.size)


register(
    OpSpec(
        name="tensordot",
        numpy_name="np.tensordot",
        arity=2,
        infer=_infer_tensordot,
        eval=lambda args, attrs: np.tensordot(args[0], args[1], axes=attrs.get("axes", 2)),
        flops=_flops_tensordot,
        in_grammar=True,
        attr_names=("axes",),
    )
)


# ---------------------------------------------------------------------------
# Input-side ops (not in the synthesis grammar)
# ---------------------------------------------------------------------------


def _unary(name: str, numpy_name: str, fn: Callable) -> None:
    register(
        OpSpec(
            name=name,
            numpy_name=numpy_name,
            arity=1,
            infer=_infer_elementwise_unary,
            eval=lambda args, attrs, fn=fn: fn(args[0]),
            flops=_flops_per_output(),
            elementwise=True,
        )
    )


_unary("exp", "np.exp", np.exp)
_unary("log", "np.log", np.log)
_unary("negative", "np.negative", np.negative)
_unary("abs", "np.abs", np.abs)


_binary("maximum", "np.maximum", np.maximum, in_grammar=False)
_binary("minimum", "np.minimum", np.minimum, in_grammar=False)


def _infer_diag(types: list[TensorType], attrs: dict[str, Any]) -> TensorType:
    (a,) = types
    _require_float(types, "diag")
    if a.rank == 2:
        return TensorType(DType.FLOAT, (min(a.shape),))
    if a.rank == 1:
        return TensorType(DType.FLOAT, (a.shape[0], a.shape[0]))
    raise TypeInferenceError("diag requires a rank-1 or rank-2 operand")


register(
    OpSpec(
        name="diag",
        numpy_name="np.diag",
        arity=1,
        infer=_infer_diag,
        eval=lambda args, attrs: np.diag(args[0]),
        flops=_flops_zero,
    )
)


def _infer_trace(types: list[TensorType], attrs: dict[str, Any]) -> TensorType:
    (a,) = types
    _require_float(types, "trace")
    if a.rank != 2:
        raise TypeInferenceError("trace requires a rank-2 operand")
    return TensorType(DType.FLOAT, ())


register(
    OpSpec(
        name="trace",
        numpy_name="np.trace",
        arity=1,
        infer=_infer_trace,
        eval=lambda args, attrs: np.trace(args[0]),
        flops=lambda types, out, attrs: float(min(types[0].shape)),
    )
)


def _infer_stack(types: list[TensorType], attrs: dict[str, Any]) -> TensorType:
    if not types:
        raise TypeInferenceError("stack requires at least one operand")
    first = types[0]
    for t in types[1:]:
        if t.shape != first.shape or t.dtype != first.dtype:
            raise TypeInferenceError("stack operands must have identical types")
    axis = attrs.get("axis", 0)
    axis = normalize_axis(axis, first.rank + 1)
    shape = first.shape[:axis] + (len(types),) + first.shape[axis:]
    return TensorType(first.dtype, shape)


register(
    OpSpec(
        name="stack",
        numpy_name="np.stack",
        arity=-1,  # variadic
        infer=_infer_stack,
        eval=lambda args, attrs: np.stack(list(args), axis=attrs.get("axis", 0)),
        flops=_flops_zero,
        attr_names=("axis",),
    )
)


def _infer_reshape(types: list[TensorType], attrs: dict[str, Any]) -> TensorType:
    (a,) = types
    shape = attrs.get("shape")
    if shape is None:
        raise TypeInferenceError("reshape requires a shape attribute")
    shape = tuple(shape)
    if -1 in shape:
        known = math.prod(d for d in shape if d != -1)
        if known == 0 or a.size % known:
            raise TypeInferenceError(f"cannot infer -1 in reshape {shape} of {a}")
        shape = tuple(a.size // known if d == -1 else d for d in shape)
    if math.prod(shape) != a.size:
        raise TypeInferenceError(f"cannot reshape {a} to {shape}")
    return a.with_shape(shape)


register(
    OpSpec(
        name="reshape",
        numpy_name="np.reshape",
        arity=1,
        infer=_infer_reshape,
        eval=lambda args, attrs: np.reshape(args[0], tuple(attrs["shape"])),
        flops=_flops_zero,
        attr_names=("shape",),
    )
)


def _infer_max(types: list[TensorType], attrs: dict[str, Any]) -> TensorType:
    (a,) = types
    _require_float(types, "max")
    return TensorType(DType.FLOAT, reduce_shape(a.shape, attrs.get("axis")))


register(
    OpSpec(
        name="max",
        numpy_name="np.max",
        arity=1,
        infer=_infer_max,
        eval=lambda args, attrs: np.max(args[0], axis=attrs.get("axis")),
        flops=_flops_input_size,
        attr_names=("axis",),
    )
)

register(
    OpSpec(
        name="min",
        numpy_name="np.min",
        arity=1,
        infer=_infer_max,
        eval=lambda args, attrs: np.min(args[0], axis=attrs.get("axis")),
        flops=_flops_input_size,
        attr_names=("axis",),
    )
)


def _infer_index(types: list[TensorType], attrs: dict[str, Any]) -> TensorType:
    (a,) = types
    if a.rank < 1:
        raise TypeInferenceError("index requires rank >= 1")
    i = attrs.get("i")
    if i is None or not (0 <= i < a.shape[0]):
        raise TypeInferenceError(f"index {i} out of range for {a}")
    return a.with_shape(a.shape[1:])


register(
    OpSpec(
        name="index",
        numpy_name="operator.getitem",
        arity=1,
        infer=_infer_index,
        eval=lambda args, attrs: args[0][attrs["i"]],
        flops=_flops_zero,
        attr_names=("i",),
    )
)
