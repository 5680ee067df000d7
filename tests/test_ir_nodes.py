"""Unit tests for IR nodes (repro.ir.nodes)."""

import numpy as np
import pytest

from repro.errors import TypeInferenceError
from repro.ir.nodes import Call, Const, Input, rename_inputs, substitute
from repro.ir.types import DType, bool_tensor, float_tensor


@pytest.fixture
def a():
    return Input("A", float_tensor(3, 3))


@pytest.fixture
def b():
    return Input("B", float_tensor(3, 3))


class TestInput:
    def test_equality(self, a):
        assert a == Input("A", float_tensor(3, 3))
        assert a != Input("A", float_tensor(2, 2))
        assert a != Input("B", float_tensor(3, 3))

    def test_hash_consistent(self, a):
        assert hash(a) == hash(Input("A", float_tensor(3, 3)))

    def test_no_children(self, a):
        assert a.children() == ()
        assert a.depth == 0
        assert a.num_nodes == 1


class TestConst:
    def test_scalar_type_inferred(self):
        c = Const(2.5)
        assert c.type == float_tensor()
        assert c.scalar() == 2.5

    def test_int_becomes_float_dtype(self):
        assert Const(3).type.dtype is DType.FLOAT

    def test_bool_dtype(self):
        assert Const(np.array([True, False])).type.dtype is DType.BOOL

    def test_array_const(self):
        c = Const(np.ones((2, 2)))
        assert c.type == float_tensor(2, 2)
        assert not c.is_scalar
        with pytest.raises(ValueError):
            c.scalar()

    def test_equality_by_value(self):
        assert Const(1.0) == Const(1.0)
        assert Const(1.0) != Const(2.0)
        assert Const(np.zeros(3)) == Const(np.zeros(3))


class TestCall:
    def test_type_inference_eager(self, a, b):
        node = Call("add", (a, b))
        assert node.type == float_tensor(3, 3)

    def test_ill_typed_rejected(self, a):
        c = Input("C", float_tensor(4,))
        with pytest.raises(TypeInferenceError):
            Call("dot", (a, c))

    @pytest.mark.parametrize("op, arity", [("exp", 2), ("add", 1), ("where", 2), ("add", 3)])
    def test_wrong_argument_count_rejected(self, a, b, op, arity):
        with pytest.raises(TypeInferenceError, match=f"{op} takes"):
            Call(op, (a, b, a)[:arity])

    def test_attrs_sorted_and_hashable(self, a):
        node = Call("sum", (a,), axis=1)
        assert node.attr("axis") == 1
        assert node.attr("missing") is None
        assert node.attr("missing", 7) == 7
        assert hash(node) == hash(Call("sum", (a,), axis=1))

    def test_structural_equality(self, a, b):
        assert Call("add", (a, b)) == Call("add", (a, b))
        assert Call("add", (a, b)) != Call("add", (b, a))
        assert Call("sum", (a,), axis=0) != Call("sum", (a,), axis=1)

    def test_walk_and_depth(self, a, b):
        node = Call("add", (Call("multiply", (a, b)), a))
        kinds = [type(n).__name__ for n in node.walk()]
        assert kinds == ["Call", "Call", "Input", "Input", "Input"]
        assert node.depth == 2
        assert node.num_nodes == 5

    def test_inputs_deduped_in_order(self, a, b):
        node = Call("add", (Call("multiply", (b, a)), b))
        assert [i.name for i in node.inputs()] == ["B", "A"]


class TestSubstitute:
    def test_leaf_substitution(self, a, b):
        node = Call("add", (a, b))
        c = Input("C", float_tensor(3, 3))
        out = substitute(node, {a: c})
        assert out == Call("add", (c, b))

    def test_compound_key(self, a, b):
        inner = Call("multiply", (a, b))
        node = Call("add", (inner, a))
        c = Input("C", float_tensor(3, 3))
        assert substitute(node, {inner: c}) == Call("add", (c, a))

    def test_no_match_returns_same(self, a, b):
        node = Call("add", (a, b))
        assert substitute(node, {}) is node


class TestRenameInputs:
    def test_rename(self, a, b):
        node = Call("add", (a, b))
        out = rename_inputs(node, {"A": "X"})
        assert [i.name for i in out.inputs()] == ["X", "B"]

    def test_missing_names_kept(self, a):
        assert rename_inputs(a, {"Z": "Y"}) == a
