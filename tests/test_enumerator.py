"""Tests for bottom-up stub enumeration and the sketch library."""

import numpy as np
import pytest

from repro.cost import FlopsCostModel
from repro.ir import float_tensor, parse
from repro.ir.nodes import Call, Const, Input
from repro.symexec import canonical_key, symbolic_execute
from repro.synth import SynthesisConfig, build_library
from repro.synth.enumerator import StubEnumerator, program_constants
from repro.synth.search import SearchContext, _match_base_case

TYPES = {"A": float_tensor(2, 2), "B": float_tensor(2, 2)}


def enumerate_for(source, types=None, **config):
    program = parse(source, types or TYPES)
    cfg = SynthesisConfig(**config)
    enumerator = StubEnumerator(program, cfg, cost_model=FlopsCostModel())
    return enumerator, enumerator.enumerate()


class TestTerminals:
    def test_inputs_and_constants_are_stubs(self):
        _, stubs = enumerate_for("A + 3 * B", max_depth=0)
        nodes = {repr(e.node) for e in stubs}
        assert "Input(A: float[2x2])" in nodes
        assert "Input(B: float[2x2])" in nodes
        assert any("Const(3" in n for n in nodes)

    def test_extra_constants(self):
        _, stubs = enumerate_for("A + B", max_depth=0, extra_constants=(7.0,))
        assert any(isinstance(e.node, Const) and float(e.node.value) == 7.0 for e in stubs)

    def test_program_constants_collected(self):
        program = parse("A * 3 + 2", TYPES)
        values = sorted(float(c.value) for c in program_constants(program))
        assert values == [2.0, 3.0]


class TestGrowth:
    def test_depth1_contains_binary_combinations(self):
        _, stubs = enumerate_for("A @ B", max_depth=1)
        reprs = {repr(e.node) for e in stubs}
        assert any(r.startswith("dot(Input(A") for r in reprs)
        assert any(r.startswith("add(") for r in reprs)

    def test_depth2_contains_compound(self):
        enumerator, stubs = enumerate_for("np.dot(A * B, B)", max_depth=2)
        target = parse("A * np.transpose(B)", TYPES).node
        keys = {e.key for e in stubs}
        assert canonical_key(symbolic_execute(target)) in keys

    def test_observational_dedup(self):
        _, stubs = enumerate_for("A + B", max_depth=1)
        keys = [e.key for e in stubs]
        assert len(keys) == len(set(keys))

    def test_dedup_keeps_cheapest(self):
        # power(A, 2) and A*A collide behaviourally; FLOPs tie, so the
        # preference falls to node count (multiply(A, A) has 3 nodes,
        # power(A, Const(2)) has 3 too) — either way exactly one survives.
        _, stubs = enumerate_for("np.power(A, 2)", max_depth=1)
        squared = [
            e for e in stubs
            if e.key == canonical_key(symbolic_execute(parse("A * A", TYPES).node))
        ]
        assert len(squared) == 1

    def test_max_stubs_cap(self):
        enumerator, stubs = enumerate_for("A @ B + A * B", max_stubs=50)
        assert len(stubs) <= 50

    def test_max_stub_entries(self):
        types = {"A": float_tensor(24,), "x": float_tensor(2,)}
        _, stubs = enumerate_for(
            "np.tensordot(A, x, 0)", types, max_depth=1, max_stub_entries=30
        )
        assert all(e.tensor.size <= 30 for e in stubs)

    def test_boolean_gated_off_for_arithmetic(self):
        enumerator, stubs = enumerate_for("A + B", max_depth=1)
        assert not enumerator.enable_boolean
        assert not any(isinstance(e.node, Call) and e.node.op == "less" for e in stubs)

    def test_boolean_enabled_by_max(self):
        source = "np.max(np.stack([A, B]), axis=0)"
        enumerator, stubs = enumerate_for(source, max_depth=2)
        assert enumerator.enable_boolean
        assert any(isinstance(e.node, Call) and e.node.op == "where" for e in stubs)

    def test_constant_folding_creates_terminals(self):
        _, stubs = enumerate_for("3 * A + 1", max_depth=1)
        folded = {
            float(e.node.value)
            for e in stubs
            if isinstance(e.node, Const) and e.node.is_scalar
        }
        assert 4.0 in folded  # 3 + 1

    def test_undefined_constants_rejected(self):
        _, stubs = enumerate_for("A / 1", max_depth=1, extra_constants=(0.0, 1.0))
        for e in stubs:
            if isinstance(e.node, Const) and e.node.is_scalar:
                assert np.isfinite(float(e.node.value))


class TestLibrary:
    def test_build_library_indexes(self):
        program = parse("np.dot(A, B)", TYPES)
        lib = build_library(program, SynthesisConfig(max_depth=1), FlopsCostModel())
        assert lib.stub_count > 0
        assert lib.sketch_count == 0  # nothing derived until somebody asks
        assert len(lib.sketches) > 0
        assert lib.sketch_count == len(lib.sketches)
        for sketch in lib.sketches:
            assert sketch.cost >= 0
            assert sketch in lib.sketches_by_type[sketch.root.type]

    def test_match_base_case_probes_value_then_weak_tier(self):
        config, model = SynthesisConfig(max_depth=1), FlopsCostModel()
        lib = build_library(parse("np.dot(A, B)", TYPES), config, model)
        ctx = SearchContext(lib, model, config, float("inf"))

        def match(source):
            spec = symbolic_execute(parse(source, TYPES).node)
            return _match_base_case(spec, canonical_key(spec), ctx)

        rational = match("A + B")
        assert rational is not None and rational in lib.stubs_by_val.values()
        weak = match("np.sqrt(A)")
        assert weak is not None and weak in lib.weak_by_key.values()

    def test_sketches_include_const_shadowed_variants(self):
        """power(A, ??) must exist even though mul(A, A) shadows power(A, 2)."""
        program = parse("np.power(A, 2) + A", TYPES)
        lib = build_library(program, SynthesisConfig(max_depth=1), FlopsCostModel())
        assert any(
            s.root.op == "power" and s.hole.type.is_scalar and s.hole_path == (1,)
            for s in lib.sketches
            if isinstance(s.root, Call)
        )
