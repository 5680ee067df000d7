"""Tests for the generic sympy.solve fallback and harder solver paths."""

import pytest
import sympy as sp

from repro.ir import float_tensor, parse
from repro.ir.nodes import Call, Input
from repro.symexec import equivalent, symbolic_execute
from repro.synth import SketchSolver, SynthesisConfig
from repro.synth import solver as solver_module
from repro.synth.sketch import Hole, Sketch, iter_paths, replace_at

TYPES = {
    "A": float_tensor(2, 2),
    "B": float_tensor(2, 2),
    "x": float_tensor(2),
    "a": float_tensor(),
}


def make_sketch(template, hole_name, types=None):
    program = parse(template, types or TYPES)
    for path, node in iter_paths(program.node):
        if isinstance(node, Input) and node.name == hole_name:
            hole = Hole(node.type)
            return Sketch(replace_at(program.node, path, hole), hole, path)
    raise AssertionError(hole_name)


def spec_of(source, types=None):
    from repro.symexec.canonical import canonical

    return symbolic_execute(parse(source, types or TYPES).node).map(canonical)


class TestGenericFallback:
    def test_solves_through_uninvertible_chain(self, monkeypatch):
        """`stack` has no local inverter; the generic fallback handles it."""
        monkeypatch.setattr(solver_module, "MAX_UNKNOWNS", 8)
        types = {**TYPES}
        solver = SketchSolver(SynthesisConfig())
        sketch = make_sketch("np.stack([x, x])", "x", types)
        # stack(h, x) == stack(x+x, x)  =>  h == x + x
        spec = spec_of("np.stack([x + x, x])", types)
        hole = solver.solve_all(sketch, spec)
        assert hole is not None
        assert equivalent(hole, spec_of("x + x", types))

    def test_rejects_underdetermined(self):
        # stack(h, x): h must equal first row; but give an inconsistent spec.
        solver = SketchSolver(SynthesisConfig())
        sketch = make_sketch("np.stack([a, a])", "a")
        spec = spec_of("np.stack([a, a + 1])")  # rows differ: no single hole
        assert solver.solve_all(sketch, spec) is None

    def test_unknown_budget_respected(self, monkeypatch):
        monkeypatch.setattr(solver_module, "MAX_UNKNOWNS", 1)
        solver = SketchSolver(SynthesisConfig())
        sketch = make_sketch("np.stack([x, x])", "x")  # 2 unknowns > 1
        assert solver.solve_all(sketch, spec_of("np.stack([x, x])")) is None


class TestNestedChains:
    def test_two_level_inversion(self):
        # transpose(?? * B) == spec: invert transpose, then multiply.
        solver = SketchSolver(SynthesisConfig())
        sketch = make_sketch("np.transpose(A * B)", "A")
        spec = spec_of("np.transpose((A + A) * B)")
        hole = solver.solve_all(sketch, spec)
        assert hole is not None
        assert equivalent(hole, spec_of("A + A"))

    def test_three_level_inversion(self):
        solver = SketchSolver(SynthesisConfig())
        sketch = make_sketch("np.sqrt(np.transpose(A + B))", "A")
        spec = spec_of("np.sqrt(np.transpose((A * A) + B))")
        hole = solver.solve_all(sketch, spec)
        assert hole is not None
        assert equivalent(hole, spec_of("A * A"))


class TestScalarConstHoleSolving:
    def test_exponent_hole_synthesizes_constant(self):
        solver = SketchSolver(SynthesisConfig())
        sketch = make_sketch("np.power(A, a)", "a")
        hole = solver.solve_all(sketch, spec_of("A * A * A"))
        assert hole is not None
        assert sp.simplify(hole.item() - 3) == 0

    def test_scale_hole(self):
        solver = SketchSolver(SynthesisConfig())
        sketch = make_sketch("a * A", "a")
        hole = solver.solve_all(sketch, spec_of("A + A + A"))
        assert hole is not None
        assert sp.simplify(hole.item() - 3) == 0


class TestSolverValueCache:
    def test_sibling_values_cached_across_solves(self):
        solver = SketchSolver(SynthesisConfig())
        sketch = make_sketch("A + np.dot(B, B)", "A")
        spec1 = spec_of("(A * A) + np.dot(B, B)")
        spec2 = spec_of("(A + A) + np.dot(B, B)")
        assert solver.solve_all(sketch, spec1) is not None
        cached = len(solver._value_cache)
        assert solver.solve_all(sketch, spec2) is not None
        assert len(solver._value_cache) == cached  # dot(B,B) value reused
