"""Sketches: program stubs with holes (paper Section IV-B).

A *stub* is a complete small program enumerated from the grammar.  A *sketch*
is derived from a stub by replacing one concrete input occurrence with a
typed hole ``??``.  The synthesis search fills holes recursively.

Holes are ordinary IR nodes (:class:`Hole`), so sketches type-check, print,
and hash exactly like programs.  Each hole records the type of the input it
replaced — that is how the solver knows the shape of the sub-specification it
must produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.ir.nodes import Call, Const, Input, Node
from repro.ir.types import TensorType

HOLE_PREFIX = "__hole"

Path = tuple[int, ...]


class Hole(Input):
    """The typed hole of a sketch.

    Implemented as an :class:`Input` with a reserved name (``__hole0``, which
    solver cache keys print) so the rest of the IR stack (typing, printing,
    symbolic execution via bindings) works unchanged.
    """

    def __init__(self, type: TensorType) -> None:
        super().__init__(f"{HOLE_PREFIX}0", type)

    def __repr__(self) -> str:
        return f"??{self.name.removeprefix(HOLE_PREFIX)}:{self.type}"


#: Shared ``Hole(type)`` instances: holes of equal type are structurally
#: identical, and sketch derivation creates one per site.
_HOLE_CACHE: dict[TensorType, Hole] = {}


def is_hole(node: Node) -> bool:
    return isinstance(node, Input) and node.name.startswith(HOLE_PREFIX)


def iter_paths(node: Node, path: Path = ()) -> Iterator[tuple[Path, Node]]:
    """Pre-order traversal yielding (path, node) pairs."""
    yield path, node
    for i, child in enumerate(node.children()):
        yield from iter_paths(child, path + (i,))


def replace_at(node: Node, path: Path, replacement: Node) -> Node:
    """Rebuild ``node`` with the subtree at ``path`` replaced."""
    if not path:
        return replacement
    assert isinstance(node, Call)
    i, rest = path[0], path[1:]
    new_args = list(node.args)
    new_args[i] = replace_at(new_args[i], rest, replacement)
    return Call.with_args(node, tuple(new_args))


@dataclass(frozen=True)
class Sketch:
    """A stub with one hole, plus search metadata.

    ``root`` is the IR tree containing the ``hole``, found at ``hole_path``;
    ``cost`` is the estimated cost of the sketch skeleton (every op in the
    sketch, with the hole's contribution excluded), filled in by the active
    cost model when the library is built.
    """

    root: Node
    hole: Input
    hole_path: Path
    cost: float = 0.0

    def fill(self, value: Node) -> Node:
        """Plug a value into the hole."""
        return replace_at(self.root, self.hole_path, value)

    def with_cost(self, cost: float) -> "Sketch":
        return Sketch(self.root, self.hole, self.hole_path, cost)

    def __repr__(self) -> str:
        return f"Sketch({self.root!r}, cost={self.cost:g})"


def sketches_from_stub(stub: Node) -> list[Sketch]:
    """Derive the sketches of a stub.

    Every occurrence of a program input (not attrs) is replaced — one at a
    time — by a hole of the same type, mirroring the paper's example: from
    ``np.subtract(A, B)`` we derive ``np.subtract(??, B)`` and
    ``np.subtract(A, ??)``.  Replacing the whole stub (empty path) is
    excluded: a bare hole is not a useful sketch.

    Scalar constants are replaced too (an extension over the paper's
    input-only replacement): the sketch ``power(A, ??)`` — needed to
    synthesize strength reductions like ``A*A*A*A*A -> power(A, 5)`` — only
    exists if the exponent constant of a ``power(A, c)`` stub can become a
    hole.
    """
    out: list[Sketch] = []
    seen: set[Node] = set()
    hole_cache = _HOLE_CACHE
    for path, node in iter_paths(stub):
        if not path:
            continue
        replaceable = (isinstance(node, Input) and not is_hole(node)) or (
            isinstance(node, Const) and node.type.is_scalar
        )
        if not replaceable:
            continue
        hole = hole_cache.get(node.type)
        if hole is None:
            hole = Hole(node.type)
            hole_cache[node.type] = hole
        root = replace_at(stub, path, hole)
        if root in seen:
            continue  # distinct paths can rebuild identical roots
        seen.add(root)
        out.append(Sketch(root=root, hole=hole, hole_path=path))
    return out
