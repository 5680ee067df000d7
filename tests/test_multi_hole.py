"""Tests for multi-hole sketches (Algorithm 2's general hole loop)."""

import pytest

from repro.cost import FlopsCostModel
from repro.ir import float_tensor, parse
from repro.ir.nodes import Call, Input
from repro.symexec import canonical, equivalent, symbolic_execute
from repro.synth import SketchSolver, SynthesisConfig, superoptimize_program
from repro.synth import solver as solver_module
from repro.synth.sketch import Hole, holes_of, sketches_from_stub

TYPES = {"A": float_tensor(2, 2), "B": float_tensor(2, 2), "x": float_tensor(2)}


def node_of(source, types=None):
    return parse(source, types or TYPES).node


def spec_of(source, types=None):
    return symbolic_execute(node_of(source, types)).map(canonical)


class TestTwoHoleSketchGeneration:
    def test_pairs_generated(self):
        stub = node_of("np.stack([A, B])")
        single = sketches_from_stub(stub, multi_hole=False)
        multi = sketches_from_stub(stub, multi_hole=True)
        two_hole = [s for s in multi if s.num_holes == 2]
        assert len(multi) > len(single)
        assert len(two_hole) == 1
        assert {h.name for h in two_hole[0].holes} == {"__hole0", "__hole1"}

    def test_nested_sites_not_paired(self):
        # In sqrt(A) + A the two A-occurrences are disjoint: pairable.
        # In sqrt(A) the single site cannot pair with itself.
        stub = node_of("np.sqrt(A)")
        assert all(s.num_holes == 1 for s in sketches_from_stub(stub, multi_hole=True))

    def test_fill_many(self):
        stub = node_of("np.stack([A, B])")
        sketch = next(
            s for s in sketches_from_stub(stub, multi_hole=True) if s.num_holes == 2
        )
        filled = sketch.fill_many([node_of("A + A"), node_of("B * B")])
        assert filled == node_of("np.stack([A + A, B * B])")


class TestTwoHoleSolving:
    def test_stack_pins_both_holes(self, monkeypatch):
        monkeypatch.setattr(solver_module, "MAX_UNKNOWNS", 8)
        stub = node_of("np.stack([A, B])")
        sketch = next(
            s for s in sketches_from_stub(stub, multi_hole=True) if s.num_holes == 2
        )
        solver = SketchSolver(SynthesisConfig())
        spec = spec_of("np.stack([A + A, B * B])")
        hole_specs = solver.solve_all(sketch, spec)
        assert hole_specs is not None and len(hole_specs) == 2
        assert equivalent(hole_specs[0], spec_of("A + A"))
        assert equivalent(hole_specs[1], spec_of("B * B"))

    def test_budget_covers_all_holes(self, monkeypatch):
        monkeypatch.setattr(solver_module, "MAX_UNKNOWNS", 6)
        stub = node_of("np.stack([A, B])")
        sketch = next(
            s for s in sketches_from_stub(stub, multi_hole=True) if s.num_holes == 2
        )
        # 4 + 4 unknowns > 6: rejected.
        solver = SketchSolver(SynthesisConfig())
        assert solver.solve_all(sketch, spec_of("np.stack([A, B])")) is None

    def test_single_hole_solve_all_delegates(self):
        stub = node_of("A + B")
        sketch = sketches_from_stub(stub)[0]
        solver = SketchSolver(SynthesisConfig())
        result = solver.solve_all(sketch, spec_of("(A * A) + B"))
        assert result is not None and len(result) == 1


class TestEndToEnd:
    def test_search_with_multi_hole_enabled(self, monkeypatch):
        """The single-hole results are preserved when the feature is on."""
        monkeypatch.setattr(solver_module, "MAX_UNKNOWNS", 8)
        config = SynthesisConfig(multi_hole_sketches=True, timeout_seconds=120)
        program = parse("np.exp(np.log(A + B))", TYPES, name="k")
        result = superoptimize_program(program, cost_model=FlopsCostModel(), config=config)
        assert result.improved
        assert result.optimized == node_of("A + B")

    def test_library_size_grows(self):
        from repro.synth import build_library

        program = parse("np.stack([A, B]) + np.stack([B, A])", TYPES)
        base = build_library(program, SynthesisConfig(max_depth=1), FlopsCostModel())
        multi = build_library(
            program,
            SynthesisConfig(max_depth=1, multi_hole_sketches=True),
            FlopsCostModel(),
        )
        assert len(multi.sketches) > len(base.sketches)
