"""Tests for sketches, holes, and path utilities."""

import pytest

from repro.ir import float_tensor, parse
from repro.ir.nodes import Const, Input
from repro.synth.sketch import (
    Hole,
    is_hole,
    iter_paths,
    replace_at,
    sketches_from_stub,
)

TYPES = {"A": float_tensor(2, 2), "B": float_tensor(2, 2), "a": float_tensor()}


def node_of(source):
    return parse(source, TYPES).node


class TestHole:
    def test_is_input_subclass(self):
        h = Hole(float_tensor(2, 2))
        assert isinstance(h, Input)
        assert is_hole(h)
        assert not is_hole(Input("A", float_tensor(2, 2)))

    def test_typed(self):
        assert Hole(float_tensor(3)).type == float_tensor(3)


class TestPaths:
    def test_iter_paths_preorder(self):
        node = node_of("A + B * A")
        paths = [p for p, _ in iter_paths(node)]
        assert paths == [(), (0,), (1,), (1, 0), (1, 1)]

    def test_replace_at_root(self):
        node = node_of("A + B")
        replacement = node_of("A * A")
        assert replace_at(node, (), replacement) == replacement

    def test_replace_at_leaf_retypes(self):
        node = node_of("np.sum(A, axis=0)")
        out = replace_at(node, (0,), Input("C", float_tensor(5, 2)))
        assert out.type == float_tensor(2)


class TestSketchesFromStub:
    def test_example_from_paper(self):
        """np.subtract(A, B) yields np.subtract(??, B) and np.subtract(A, ??)."""
        stub = node_of("A - B")
        sketches = sketches_from_stub(stub)
        roots = {repr(s.root) for s in sketches}
        assert len(sketches) == 2
        assert any("??0" in r and "B" in r for r in roots)
        assert any("??0" in r and "A" in r for r in roots)

    def test_duplicate_operands_give_both_positions(self):
        sketches = sketches_from_stub(node_of("A + A"))
        assert {s.hole_path for s in sketches} == {(0,), (1,)}

    def test_nested_holes(self):
        stub = node_of("np.sum(A * B, axis=1)")
        sketches = sketches_from_stub(stub)
        assert {s.hole_path for s in sketches} == {(0, 0), (0, 1)}

    def test_scalar_const_holes(self):
        stub = node_of("np.power(A, 2)")
        sketches = sketches_from_stub(stub)
        assert {s.hole_path for s in sketches} == {(0,), (1,)}
        const_hole = [s for s in sketches if s.hole.type.is_scalar]
        assert const_hole and const_hole[0].hole_path == (1,)

    def test_whole_stub_not_a_sketch(self):
        # A bare terminal produces no sketches (empty path excluded).
        assert sketches_from_stub(Input("A", TYPES["A"])) == []


class TestSketchFill:
    def test_fill_produces_program(self):
        stub = node_of("np.sum(A * B, axis=1)")
        sketch = next(
            s for s in sketches_from_stub(stub) if s.hole_path == (0, 0)
        )
        filled = sketch.fill(node_of("A + A"))
        assert filled == node_of("np.sum((A + A) * B, axis=1)")

    def test_fill_with_broadcastable_value(self):
        """Filling with a scalar re-infers types through broadcasting."""
        stub = node_of("A * B")
        sketch = sketches_from_stub(stub)[0]
        filled = sketch.fill(Const(2.0))
        assert filled.type == float_tensor(2, 2)

    def test_with_cost(self):
        sketch = sketches_from_stub(node_of("A + B"))[0]
        assert sketch.with_cost(5.0).cost == 5.0
