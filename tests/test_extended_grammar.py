"""Tests for the grammar-extension mechanism (extra_grammar_ops)."""

import pytest

from repro.cost import FlopsCostModel
from repro.ir import float_tensor, parse
from repro.ir.nodes import Call
from repro.synth import SynthesisConfig, superoptimize_program
from repro.synth.enumerator import StubEnumerator

TYPES = {"A": float_tensor(2, 3), "B": float_tensor(2, 3)}


class TestEnumeration:
    def test_extra_ops_enumerated(self):
        program = parse("np.max(np.stack([A, B]), axis=0)", TYPES)
        config = SynthesisConfig(extra_grammar_ops=("maximum",), max_depth=1)
        stubs = StubEnumerator(program, config, FlopsCostModel()).enumerate()
        assert any(
            isinstance(e.node, Call) and e.node.op == "maximum" for e in stubs
        )

    def test_default_grammar_excludes_maximum(self):
        program = parse("np.max(np.stack([A, B]), axis=0)", TYPES)
        stubs = StubEnumerator(program, SynthesisConfig(max_depth=1), FlopsCostModel()).enumerate()
        assert not any(
            isinstance(e.node, Call) and e.node.op == "maximum" for e in stubs
        )


    @pytest.mark.parametrize("op", ["exp", "reshape", "nosuch", "less"])
    def test_extension_must_be_a_binary_float_op(self, op):
        program = parse("np.max(np.stack([A, B]), axis=0)", TYPES)
        config = SynthesisConfig(extra_grammar_ops=(op,), max_depth=1)
        with pytest.raises(ValueError, match=f"'{op}' is not a registered binary float op"):
            StubEnumerator(program, config, FlopsCostModel())


class TestSynthesis:
    def test_max_stack_reaches_maximum(self):
        program = parse("np.max(np.stack([A, B]), axis=0)", TYPES, name="max_stack")
        config = SynthesisConfig(
            extra_grammar_ops=("maximum", "minimum"), timeout_seconds=120
        )
        result = superoptimize_program(program, cost_model=FlopsCostModel(), config=config)
        assert result.improved
        assert "np.maximum(A, B)" in result.optimized_source

    def test_min_stack_reaches_minimum(self):
        program = parse("np.min(np.stack([A, B]), axis=0)", TYPES, name="min_stack")
        config = SynthesisConfig(
            extra_grammar_ops=("maximum", "minimum"), timeout_seconds=120
        )
        result = superoptimize_program(program, cost_model=FlopsCostModel(), config=config)
        assert result.improved
        assert "np.minimum(A, B)" in result.optimized_source
