"""Tests for the rewrite-pass engine shared by the simulated compilers."""

import pytest

from repro.backends.rewriter import (
    NamedRule,
    RewritePass,
    all_const,
    const_value,
    constant_fold,
    named_rule,
)
from repro.ir import float_tensor, parse
from repro.ir.nodes import Call, Const, Input

TYPES = {"A": float_tensor(3, 3), "B": float_tensor(3, 3)}


def node_of(source):
    return parse(source, TYPES).node


class TestHelpers:
    def test_const_value(self):
        assert const_value(Const(1.5)) == 1.5
        assert const_value(Input("A", float_tensor())) is None

    def test_all_const(self):
        assert all_const((Const(1.0), Const(2.0)))
        assert not all_const((Const(1.0), Input("A", float_tensor())))


class TestConstantFold:
    def test_folds(self):
        node = Call("add", (Const(1.0), Const(2.0)))
        out = constant_fold.apply(node)
        assert isinstance(out, Const) and float(out.value) == 3.0

    def test_skips_nonconst(self):
        assert constant_fold.apply(node_of("A + 1")) is None

    def test_rejects_undefined(self):
        node = Call("divide", (Const(1.0), Const(0.0)))
        assert constant_fold.apply(node) is None


class TestRewritePass:
    def test_fixpoint(self):
        @named_rule("peel-negate")
        def peel(call):
            if call.op == "negative" and isinstance(call.args[0], Call):
                inner = call.args[0]
                if inner.op == "negative":
                    return inner.args[0]
            return None

        rewriter = RewritePass([peel])
        node = node_of("-(-(-(-A)))")
        assert rewriter.run(node) == node_of("A")
        assert rewriter.fired["peel-negate"] >= 2

    def test_rules_apply_bottom_up(self):
        @named_rule("zero-add")
        def zero_add(call):
            if call.op == "add" and const_value(call.args[1]) == 0.0:
                if call.args[0].type == call.type:
                    return call.args[0]
            return None

        rewriter = RewritePass([zero_add])
        assert rewriter.run(node_of("(A + 0) * (B + 0)")) == node_of("A * B")

    def test_no_rules_is_identity(self):
        rewriter = RewritePass([])
        node = node_of("A @ B")
        assert rewriter.run(node) is node

    def test_iteration_cap_stops_divergence(self):
        counter = {"n": 0}

        @named_rule("spin")
        def spin(call):
            # Alternate between two equivalent forms forever.
            counter["n"] += 1
            if call.op == "add":
                return Call("add", (call.args[1], call.args[0]))
            return None

        rewriter = RewritePass([spin], max_iterations=4)
        rewriter.run(node_of("A + B"))
        assert counter["n"] <= 16  # bounded by the iteration cap
