"""Pretty-printer: IR expression trees back to executable NumPy source.

This module owns the op table's ``spelling`` column: how NumPy source writes
a call of each op.  :func:`spell` is the one speller — the printer, the
linearizing code generator (:mod:`repro.backends.codegen`) and the parser's
argument placement (:mod:`repro.ir.parser`) all read the same row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.ir.nodes import Call, Const, Input, Node
from repro.ir.ops import all_ops, fill, get_op


@dataclass(frozen=True)
class Spelling:
    """How NumPy source writes one op's call.

    ``params`` is NumPy's positional parameter order: an ``int`` is that
    operand, ``"*"`` every operand as one list, a name that attr.  An
    ``optional`` attr is written ``name=value`` and, when a call leaves it out,
    takes its default (None: left out); the other attrs are required and
    written positionally.  ``infix`` is the Python operator the printer writes
    instead of the call, ``subscript`` writes ``x[i]``, and ``aliases`` are
    other ``np.`` names the parser reads as the op.
    """

    params: tuple
    optional: dict[str, Any] = field(default_factory=dict)
    infix: str | None = None
    subscript: bool = False
    aliases: tuple[str, ...] = ()


fill("spelling", "add")(Spelling((0, 1), infix="+"))
fill("spelling", "subtract")(Spelling((0, 1), infix="-"))
fill("spelling", "multiply")(Spelling((0, 1), infix="*"))
fill("spelling", "divide")(Spelling((0, 1), infix="/", aliases=("true_divide",)))
fill("spelling", "dot")(Spelling((0, 1), aliases=("matmul", "inner")))
fill("spelling", "abs")(Spelling((0,), aliases=("absolute",)))
fill("spelling", "diag")(Spelling((0,), aliases=("diagonal",)))
fill("spelling", "sum")(Spelling((0, "axis"), {"axis": None}))
fill("spelling", "max")(Spelling((0, "axis"), {"axis": None}, aliases=("amax",)))
fill("spelling", "min")(Spelling((0, "axis"), {"axis": None}, aliases=("amin",)))
fill("spelling", "transpose")(Spelling((0, "axes"), {"axes": None}))
fill("spelling", "tensordot")(Spelling((0, 1, "axes"), {"axes": 2}))
fill("spelling", "stack")(Spelling(("*", "axis"), {"axis": 0}))
fill("spelling", "full")(Spelling(("shape", 0)))
fill("spelling", "reshape")(Spelling((0, "shape")))
fill("spelling", "index")(Spelling((0, "i"), subscript=True))
for _spec in all_ops():
    if _spec.spelling is None:
        fill("spelling", _spec.name)(Spelling(tuple(range(_spec.arity))))


def spell(node: Call, operands: Sequence[str], infix: bool = True) -> str:
    """``node`` as NumPy source over its operands' source text; ``infix=False``
    writes an infix op as its call."""
    spec = get_op(node.op)
    spelling = spec.spelling
    if infix and spelling.infix:
        return f"({operands[0]} {spelling.infix} {operands[1]})"
    if spelling.subscript:
        return f"{operands[0]}[{node.attr('i')}]"
    parts, keywords = [], []
    for param in spelling.params:
        if isinstance(param, int):
            parts.append(operands[param])
        elif param == "*":
            parts.append(f"[{', '.join(operands)}]")
        elif param in spelling.optional:
            value = node.attr(param, spelling.optional[param])
            if value is not None:
                keywords.append(f"{param}={value!r}")
        else:
            parts.append(repr(node.attr(param)))
    return f"{spec.numpy_name}({', '.join(parts + keywords)})"


def _format_const(const: Const) -> str:
    if const.is_scalar:
        value = const.value.item()
        if isinstance(value, bool) or const.value.dtype == np.bool_:
            return str(bool(value))
        if float(value).is_integer():
            return str(int(value))
        return repr(float(value))
    return f"np.array({const.value.tolist()!r})"


def to_expression(node: Node) -> str:
    """Render a node as a single Python/NumPy expression string."""
    if isinstance(node, Input):
        return node.name
    if isinstance(node, Const):
        return _format_const(node)
    assert isinstance(node, Call)
    return spell(node, [to_expression(a) for a in node.args])


def to_source(node: Node, name: str = "fn", input_names: Sequence[str] | None = None) -> str:
    """Render a node as a complete function definition.

    ``input_names`` fixes the parameter order; by default the inputs appear in
    first-use order.
    """
    if input_names is None:
        input_names = [inp.name for inp in node.inputs()]
    params = ", ".join(input_names)
    return f"def {name}({params}):\n    return {to_expression(node)}\n"


def to_callable(node: Node, input_names: Sequence[str] | None = None):
    """Compile a node into a Python callable over NumPy arrays."""
    if input_names is None:
        input_names = [inp.name for inp in node.inputs()]
    source = to_source(node, name="_synthesized", input_names=input_names)
    namespace: dict = {"np": np}
    exec(source, namespace)  # noqa: S102 - code we generated ourselves
    return namespace["_synthesized"]
