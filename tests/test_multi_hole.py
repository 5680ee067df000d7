"""Tests for two-hole sketches in Algorithm 2's general hole loop.

The library derives single-hole sketches only; the solver's ``solve_all``
and ``Sketch.fill_many`` take any number of holes, exercised here on a
two-hole sketch built directly.
"""

from repro.ir import float_tensor, parse
from repro.symexec import canonical, equivalent, symbolic_execute
from repro.synth import SketchSolver, SynthesisConfig
from repro.synth import solver as solver_module
from repro.synth.sketch import Hole, Sketch, replace_at, sketches_from_stub

TYPES = {"A": float_tensor(2, 2), "B": float_tensor(2, 2), "x": float_tensor(2)}


def node_of(source, types=None):
    return parse(source, types or TYPES).node


def spec_of(source, types=None):
    return symbolic_execute(node_of(source, types)).map(canonical)


def two_hole_stack() -> Sketch:
    """``np.stack([??0, ??1])``: both inputs of ``np.stack([A, B])`` as holes."""
    typ = float_tensor(2, 2)
    holes, paths = (Hole(0, typ), Hole(1, typ)), ((0,), (1,))
    root = node_of("np.stack([A, B])")
    for hole, path in zip(holes, paths):
        root = replace_at(root, path, hole)
    return Sketch(root=root, holes=holes, hole_paths=paths)


class TestTwoHoleSketchGeneration:
    def test_fill_many(self):
        filled = two_hole_stack().fill_many([node_of("A + A"), node_of("B * B")])
        assert filled == node_of("np.stack([A + A, B * B])")


class TestTwoHoleSolving:
    def test_stack_pins_both_holes(self, monkeypatch):
        monkeypatch.setattr(solver_module, "MAX_UNKNOWNS", 8)
        solver = SketchSolver(SynthesisConfig())
        spec = spec_of("np.stack([A + A, B * B])")
        hole_specs = solver.solve_all(two_hole_stack(), spec)
        assert hole_specs is not None and len(hole_specs) == 2
        assert equivalent(hole_specs[0], spec_of("A + A"))
        assert equivalent(hole_specs[1], spec_of("B * B"))

    def test_budget_covers_all_holes(self, monkeypatch):
        monkeypatch.setattr(solver_module, "MAX_UNKNOWNS", 6)
        # 4 + 4 unknowns > 6: rejected.
        solver = SketchSolver(SynthesisConfig())
        assert solver.solve_all(two_hole_stack(), spec_of("np.stack([A, B])")) is None

    def test_single_hole_solve_all_delegates(self):
        stub = node_of("A + B")
        sketch = sketches_from_stub(stub)[0]
        solver = SketchSolver(SynthesisConfig())
        result = solver.solve_all(sketch, spec_of("(A * A) + B"))
        assert result is not None and len(result) == 1
