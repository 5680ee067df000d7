"""Parser: restricted Python/NumPy source to tensor IR.

The parser accepts either a single expression over named inputs or a full
``def`` with assignments and a final ``return``.  Supported constructs:

* infix arithmetic (``+ - * / ** @``), unary minus;
* ``np.<func>(...)`` calls for every registered op (plus aliases such as
  ``np.amax`` and ``np.matmul``);
* ``X.T`` transpose attribute;
* tuple and list literals (for ``reshape`` shapes and ``stack`` operands);
* list comprehensions with a single ``for`` clause iterating over the leading
  axis of a tensor — these are *unrolled* at parse time, mirroring the long
  traces that JAX/PyTorch record for Python loops (the paper's
  Vectorization class of inputs).

Because shapes are concrete, all typing happens during parsing; an ill-typed
program is rejected with :class:`ParseError`.
"""

from __future__ import annotations

import ast
import textwrap
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.errors import ParseError, TypeInferenceError, UnsupportedOpError
from repro.ir.nodes import Call, Const, Input, Node
from repro.ir.ops import all_ops
from repro.ir.types import TensorType

# NumPy function name -> registry op name: every ``np.*`` op under its own
# name, plus the NumPy aliases the suite spells.
_NUMPY_FUNCS = {
    spec.numpy_name.removeprefix("np."): spec.name
    for spec in all_ops()
    if spec.numpy_name.startswith("np.")
} | {
    "true_divide": "divide",
    "absolute": "abs",
    "amax": "max",
    "amin": "min",
    "matmul": "dot",
    "inner": "dot",
    "diagonal": "diag",
}

_BINOPS = {
    ast.Add: "add",
    ast.Sub: "subtract",
    ast.Mult: "multiply",
    ast.Div: "divide",
    ast.Pow: "power",
    ast.MatMult: "dot",
}


@dataclass(frozen=True)
class Program:
    """A parsed tensor program: an IR root plus its ordered inputs."""

    name: str
    node: Node
    inputs: tuple[Input, ...]
    source: str = field(compare=False, default="")

    @property
    def input_names(self) -> tuple[str, ...]:
        return tuple(inp.name for inp in self.inputs)

    @property
    def input_types(self) -> dict[str, TensorType]:
        return {inp.name: inp.type for inp in self.inputs}


class _ExprParser:
    """Recursive-descent translator from ``ast`` nodes to IR nodes."""

    def __init__(self, env: dict[str, Any]) -> None:
        # env maps names to Node (inputs / assigned temps) or python values.
        self.env = env

    # -- value domain helpers ------------------------------------------------

    def _as_node(self, value: Any) -> Node:
        if isinstance(value, Node):
            return value
        if isinstance(value, (int, float, bool, np.ndarray)):
            return Const(value)
        raise ParseError(f"expected a tensor value, got {value!r}")

    def _as_literal(self, value: Any, what: str) -> Any:
        if isinstance(value, Node):
            if isinstance(value, Const):
                item = value.value.tolist()
                return item
            raise ParseError(f"{what} must be a literal, got IR node {value!r}")
        return value

    # -- dispatch -----------------------------------------------------------

    def parse(self, node: ast.AST) -> Any:
        method = getattr(self, f"_parse_{type(node).__name__}", None)
        if method is None:
            raise ParseError(f"unsupported syntax: {ast.dump(node)[:120]}")
        return method(node)

    def _parse_Constant(self, node: ast.Constant) -> Any:
        if isinstance(node.value, (int, float, bool)):
            return node.value
        raise ParseError(f"unsupported constant {node.value!r}")

    def _parse_Name(self, node: ast.Name) -> Any:
        try:
            return self.env[node.id]
        except KeyError:
            raise ParseError(f"unknown name {node.id!r}") from None

    def _parse_Tuple(self, node: ast.Tuple) -> tuple:
        return tuple(self.parse(e) for e in node.elts)

    def _parse_List(self, node: ast.List) -> list:
        return [self.parse(e) for e in node.elts]

    def _parse_UnaryOp(self, node: ast.UnaryOp) -> Any:
        operand = self.parse(node.operand)
        if isinstance(node.op, ast.USub):
            if isinstance(operand, (int, float)):
                return -operand
            return Call("negative", (self._as_node(operand),))
        if isinstance(node.op, ast.UAdd):
            return operand
        raise ParseError(f"unsupported unary operator {type(node.op).__name__}")

    def _parse_BinOp(self, node: ast.BinOp) -> Any:
        op = _BINOPS.get(type(node.op))
        if op is None:
            raise ParseError(f"unsupported operator {type(node.op).__name__}")
        left, right = self.parse(node.left), self.parse(node.right)
        if isinstance(left, (int, float)) and isinstance(right, (int, float)):
            try:
                folded = _fold_python_binop(op, left, right)
            except ArithmeticError:
                folded = None
            # A scalar Python cannot fold to a real (``0.5 / 0.0``, a negative
            # base to a fractional power) stays a call, evaluated by NumPy.
            if isinstance(folded, (int, float)):
                return folded
        try:
            return Call(op, (self._as_node(left), self._as_node(right)))
        except TypeInferenceError as exc:
            raise ParseError(str(exc)) from exc

    def _parse_Compare(self, node: ast.Compare) -> Any:
        if len(node.ops) != 1 or not isinstance(node.ops[0], ast.Lt):
            raise ParseError("only single '<' comparisons are supported")
        left = self._as_node(self.parse(node.left))
        right = self._as_node(self.parse(node.comparators[0]))
        return Call("less", (left, right))

    def _parse_Attribute(self, node: ast.Attribute) -> Any:
        if node.attr == "T":
            value = self._as_node(self.parse(node.value))
            if value.type.rank <= 1:
                return value  # .T on vectors/scalars is the identity in NumPy
            return Call("transpose", (value,))
        # ``np.<name>`` resolves to a marker consumed by _parse_Call.
        if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
            return ("numpy_func", node.attr)
        raise ParseError(f"unsupported attribute .{node.attr}")

    def _parse_Subscript(self, node: ast.Subscript) -> Any:
        value = self._as_node(self.parse(node.value))
        index = self.parse(node.slice)
        if not isinstance(index, int):
            raise ParseError("only integer subscripts on the leading axis are supported")
        if index < 0:
            index += value.type.shape[0]
        return Call("index", (value,), i=index)

    def _parse_ListComp(self, node: ast.ListComp) -> list:
        if len(node.generators) != 1:
            raise ParseError("only single-generator comprehensions are supported")
        gen = node.generators[0]
        if gen.ifs or not isinstance(gen.target, ast.Name):
            raise ParseError("comprehension filters / tuple targets are not supported")
        iterable = self._as_node(self.parse(gen.iter))
        if iterable.type.rank < 1:
            raise ParseError("comprehension iterable must have rank >= 1")
        results: list[Node] = []
        outer = self.env.get(gen.target.id)
        for i in range(iterable.type.shape[0]):
            self.env[gen.target.id] = Call("index", (iterable,), i=i)
            results.append(self._as_node(self.parse(node.elt)))
        if outer is not None:
            self.env[gen.target.id] = outer
        else:
            self.env.pop(gen.target.id, None)
        return results

    def _parse_Call(self, node: ast.Call) -> Any:
        func = self.parse(node.func)
        if not (isinstance(func, tuple) and func[0] == "numpy_func"):
            raise ParseError("only np.<func>(...) calls are supported")
        fname = func[1]
        op = _NUMPY_FUNCS.get(fname)
        if op is None:
            raise UnsupportedOpError(f"unsupported NumPy function np.{fname}")
        args = [self.parse(a) for a in node.args]
        kwargs = {kw.arg: self.parse(kw.value) for kw in node.keywords if kw.arg}
        return self._build_call(op, fname, args, kwargs)

    # -- call lowering -------------------------------------------------------

    def _build_call(self, op: str, fname: str, args: list[Any], kwargs: dict[str, Any]) -> Node:
        attrs: dict[str, Any] = {}
        try:
            if op in ("sum", "max", "min"):
                if len(args) > 1:
                    kwargs.setdefault("axis", args.pop())
                if "axis" in kwargs:
                    attrs["axis"] = self._as_literal(kwargs.pop("axis"), "axis")
                (arg,) = args
                return Call(op, (self._as_node(arg),), **attrs)
            if op == "transpose":
                if len(args) > 1:
                    kwargs.setdefault("axes", args.pop())
                if "axes" in kwargs:
                    attrs["axes"] = self._as_literal(kwargs.pop("axes"), "axes")
                (arg,) = args
                return Call(op, (self._as_node(arg),), **attrs)
            if op == "reshape":
                arg, shape = args
                return Call(op, (self._as_node(arg),), shape=self._as_literal(shape, "shape"))
            if op == "full":
                shape, fill = args
                return Call(op, (self._as_node(fill),), shape=self._as_literal(shape, "shape"))
            if op == "tensordot":
                a, b = args[0], args[1]
                axes = args[2] if len(args) > 2 else kwargs.pop("axes", 2)
                return Call(op, (self._as_node(a), self._as_node(b)),
                            axes=self._as_literal(axes, "axes"))
            if op == "stack":
                axis = kwargs.pop("axis", args.pop() if len(args) > 1 else 0)
                (operands,) = args
                if isinstance(operands, Node):
                    raise ParseError("np.stack requires a list of tensors")
                nodes = tuple(self._as_node(v) for v in operands)
                return Call(op, nodes, axis=self._as_literal(axis, "axis"))
            if kwargs:
                raise ParseError(f"unsupported keyword args for np.{fname}: {sorted(kwargs)}")
            return Call(op, tuple(self._as_node(a) for a in args))
        except TypeInferenceError as exc:
            raise ParseError(f"np.{fname}: {exc}") from exc


def _fold_python_binop(op: str, left: float, right: float) -> float:
    if op == "add":
        return left + right
    if op == "subtract":
        return left - right
    if op == "multiply":
        return left * right
    if op == "divide":
        return left / right
    if op == "power":
        return left ** right
    raise ParseError(f"cannot fold python scalars through {op}")


def parse_expression(source: str, inputs: Mapping[str, TensorType], name: str = "program") -> Program:
    """Parse a single Python expression over the given named inputs."""
    env: dict[str, Any] = {n: Input(n, t) for n, t in inputs.items()}
    try:
        tree = ast.parse(textwrap.dedent(source).strip(), mode="eval")
    except SyntaxError as exc:
        raise ParseError(f"invalid syntax: {exc}") from exc
    node = _ExprParser(env).parse(tree.body)
    if isinstance(node, (int, float, bool)):
        node = Const(node)  # a bare literal is a scalar-constant program
    if not isinstance(node, Node):
        raise ParseError(f"expression did not produce a tensor, got {node!r}")
    ordered = tuple(Input(n, t) for n, t in inputs.items())
    return Program(name=name, node=node, inputs=ordered, source=source)


def parse_function(source: str, inputs: Mapping[str, TensorType], name: str | None = None) -> Program:
    """Parse a ``def`` with assignments and a final ``return``.

    ``inputs`` supplies the type of every function parameter.
    """
    try:
        tree = ast.parse(textwrap.dedent(source))
    except SyntaxError as exc:
        raise ParseError(f"invalid syntax: {exc}") from exc
    funcs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    if len(funcs) != 1:
        raise ParseError("source must contain exactly one function definition")
    fn = funcs[0]
    params = [a.arg for a in fn.args.args]
    missing = [p for p in params if p not in inputs]
    if missing:
        raise ParseError(f"missing input types for parameters: {missing}")
    env: dict[str, Any] = {p: Input(p, inputs[p]) for p in params}
    parser = _ExprParser(env)
    result: Node | None = None
    for stmt in fn.body:
        if isinstance(stmt, ast.Assign):
            if len(stmt.targets) != 1 or not isinstance(stmt.targets[0], ast.Name):
                raise ParseError("only single-name assignment targets are supported")
            env[stmt.targets[0].id] = parser.parse(stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is None:
                raise ParseError("function must return a value")
            value = parser.parse(stmt.value)
            result = parser._as_node(value)
            break
        elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring
        else:
            raise ParseError(f"unsupported statement {type(stmt).__name__}")
    if result is None:
        raise ParseError("function has no return statement")
    ordered = tuple(Input(p, inputs[p]) for p in params)
    return Program(name=name or fn.name, node=result, inputs=ordered, source=source)


def parse(source: str, inputs: Mapping[str, TensorType], name: str = "program") -> Program:
    """Parse either a bare expression or a full function definition."""
    stripped = textwrap.dedent(source).strip()
    if stripped.startswith("def "):
        return parse_function(stripped, inputs, name=None if "def " in stripped else name)
    return parse_expression(stripped, inputs, name=name)
