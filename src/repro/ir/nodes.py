"""IR node definitions.

A tensor program is an expression tree over three node kinds:

* :class:`Input` — a named program input with a :class:`TensorType`;
* :class:`Const` — a literal scalar or tensor constant;
* :class:`Call` — an application of a registered operation to argument
  nodes, with a (possibly empty) attribute mapping (``axis``, ``shape``,
  ``axes`` …).

Nodes are immutable and hashable so they can be used as dictionary keys
(memoization, sketch libraries, CSE).  Attribute values are normalized to
hashable forms at construction time.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from repro.ir.types import TensorType

AttrValue = Any  # int | tuple | None after normalization


def _normalize_attr(value: Any) -> AttrValue:
    """Convert attribute values (lists, ndarrays) to hashable equivalents."""
    if isinstance(value, np.ndarray):
        return tuple(value.tolist())
    if isinstance(value, list):
        return tuple(_normalize_attr(v) for v in value)
    if isinstance(value, tuple):
        return tuple(_normalize_attr(v) for v in value)
    return value


class Node:
    """Base class of all IR nodes. Immutable, hashable, structurally equal."""

    __slots__ = ("_hash", "_num_nodes")

    type: TensorType

    def children(self) -> tuple["Node", ...]:
        return ()

    def walk(self) -> Iterator["Node"]:
        """Pre-order traversal of the expression tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    @property
    def num_nodes(self) -> int:
        try:
            return self._num_nodes
        except AttributeError:
            n = 1 + sum(k.num_nodes for k in self.children())
            self._num_nodes = n
            return n

    @property
    def depth(self) -> int:
        kids = self.children()
        if not kids:
            return 0
        return 1 + max(k.depth for k in kids)

    def inputs(self) -> list["Input"]:
        """All distinct :class:`Input` nodes, in first-occurrence order."""
        seen: dict[str, Input] = {}
        for node in self.walk():
            if isinstance(node, Input) and node.name not in seen:
                seen[node.name] = node
        return list(seen.values())

    def __eq__(self, other: object) -> bool:  # pragma: no cover - overridden
        raise NotImplementedError

    def __hash__(self) -> int:  # pragma: no cover - overridden
        raise NotImplementedError


class Input(Node):
    """A named program input."""

    __slots__ = ("name", "type")

    def __init__(self, name: str, type: TensorType) -> None:
        self.name = name
        self.type = type
        self._hash = hash(("input", name, type))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Input) and other.name == self.name and other.type == self.type

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Input({self.name}: {self.type})"


class Const(Node):
    """A literal constant (scalar or tensor)."""

    __slots__ = ("value", "type", "_key")

    def __init__(self, value: Any, type: TensorType | None = None) -> None:
        from repro.ir.types import DType  # local import to avoid cycles in docs

        arr = np.asarray(value)
        if arr.dtype != np.bool_:
            # Normalize numeric storage so Const(2) == Const(2.0): the DSL
            # has a single float element type (Fig. 3's FCons).
            arr = arr.astype(np.float64)
        if type is None:
            dtype = DType.BOOL if arr.dtype == np.bool_ else DType.FLOAT
            type = TensorType(dtype, arr.shape)
        self.value = arr
        self.type = type
        self._key = (arr.shape, arr.dtype.str, arr.tobytes())
        self._hash = hash(("const", self._key, type))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Const) and other._key == self._key and other.type == self.type

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_scalar(self) -> bool:
        return self.value.shape == ()

    def scalar(self) -> float:
        if not self.is_scalar:
            raise ValueError("Const is not a scalar")
        return float(self.value)

    def __repr__(self) -> str:
        if self.is_scalar:
            return f"Const({self.value.item()!r})"
        return f"Const(array{self.value.shape})"


#: Memoized type-inference results keyed by (op, arg types, attrs).  The
#: enumerator constructs hundreds of thousands of Calls over a handful of
#: distinct type signatures; inference (and its failures) repeat verbatim.
#: Failures are stored as their message string and re-raised on hit.
_TYPE_MEMO: dict[tuple, Any] = {}


def _infer_type(op: str, args: tuple["Node", ...], attrs: tuple) -> TensorType:
    from repro.errors import TypeInferenceError
    from repro.ir.ops import get_op  # deferred: ops imports nodes

    type_key = (op, tuple(a.type for a in args), attrs)
    inferred = _TYPE_MEMO.get(type_key)
    if inferred is None:
        spec = get_op(op)
        if spec.arity >= 0 and len(args) != spec.arity:
            inferred = f"{op} takes {spec.arity} operand(s), got {len(args)}"
        else:
            try:
                inferred = spec.infer([a.type for a in args], dict(attrs))
            except TypeInferenceError as exc:
                inferred = str(exc)
        _TYPE_MEMO[type_key] = inferred
    if isinstance(inferred, str):
        raise TypeInferenceError(inferred)
    return inferred


class Call(Node):
    """An operation applied to argument nodes.

    ``op`` is the registry name of the operation (see :mod:`repro.ir.ops`).
    The node's type is inferred eagerly at construction, so an ill-typed tree
    (a wrong argument count included) can never be built.
    """

    __slots__ = ("op", "args", "attrs", "type")

    def __init__(self, op: str, args: tuple[Node, ...] | list[Node], **attrs: Any) -> None:
        self.op = op
        self.args = tuple(args)
        self.attrs = tuple(sorted((k, _normalize_attr(v)) for k, v in attrs.items() if v is not None))
        self.type = _infer_type(op, self.args, self.attrs)
        self._hash = hash(("call", op, self.args, self.attrs))

    @staticmethod
    def with_args(template: "Call", args: tuple["Node", ...]) -> "Call":
        """Rebuild ``template`` around new argument nodes.

        Fast path for tree-rewriting utilities (substitution, sketch
        derivation): the template's attrs are already normalized and sorted,
        so the kwargs round-trip of ``__init__`` is skipped.
        """
        self = Call.__new__(Call)
        self.op = template.op
        self.args = args
        self.attrs = template.attrs
        # Hole replacement preserves argument types, and inference is a
        # function of (op, arg types, attrs) — reuse the template's type.
        for a, b in zip(args, template.args):
            if a.type != b.type:
                self.type = _infer_type(self.op, args, self.attrs)
                break
        else:
            self.type = template.type
        self._hash = hash(("call", self.op, args, self.attrs))
        return self

    def attr(self, name: str, default: Any = None) -> Any:
        for key, value in self.attrs:
            if key == name:
                return value
        return default

    def children(self) -> tuple[Node, ...]:
        return self.args

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Call)
            and other.op == self.op
            and other.args == self.args
            and other.attrs == self.attrs
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        parts = [repr(a) for a in self.args]
        parts += [f"{k}={v!r}" for k, v in self.attrs]
        return f"{self.op}({', '.join(parts)})"


def substitute(node: Node, mapping: dict[Node, Node]) -> Node:
    """Return ``node`` with every occurrence of a key replaced by its value.

    Replacement is structural (by node equality) and applied bottom-up, so
    keys may themselves be compound expressions.
    """
    if node in mapping:
        return mapping[node]
    if isinstance(node, Call):
        new_args = tuple(substitute(a, mapping) for a in node.args)
        if new_args != node.args:
            rebuilt = Call.with_args(node, new_args)
            return mapping.get(rebuilt, rebuilt)
        return node
    return node


def rename_inputs(node: Node, mapping: dict[str, str]) -> Node:
    """Rename input nodes according to ``mapping`` (missing names unchanged)."""
    subst = {
        inp: Input(mapping[inp.name], inp.type) for inp in node.inputs() if inp.name in mapping
    }
    return substitute(node, subst)
