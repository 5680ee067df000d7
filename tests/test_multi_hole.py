"""The generic solve's unknown budget on a stack sketch.

Algorithm 2 loops over a sketch's holes; every sketch here has exactly one,
so the budget covers all holes when it counts every entry of that one hole.
``np.stack`` has no local inverter, so the generic solve is the only route.
"""

from repro.ir import float_tensor, parse
from repro.ir.nodes import Input
from repro.symexec import canonical, equivalent, symbolic_execute
from repro.synth import SketchSolver, SynthesisConfig
from repro.synth import solver as solver_module
from repro.synth.sketch import Hole, Sketch, replace_at

TYPES = {"A": float_tensor(2, 2), "B": float_tensor(2, 2)}


def spec_of(source):
    return symbolic_execute(parse(source, TYPES).node).map(canonical)


def stack_sketch() -> Sketch:
    """``np.stack([??, B])``: the first input of ``np.stack([A, B])`` as the hole."""
    root = parse("np.stack([A, B])", TYPES).node
    assert isinstance(root.args[0], Input)
    hole = Hole(float_tensor(2, 2))
    return Sketch(replace_at(root, (0,), hole), hole, (0,))


class TestTwoHoleSolving:
    def test_budget_covers_all_holes(self, monkeypatch):
        spec = spec_of("np.stack([A + A, B])")
        solver = SketchSolver(SynthesisConfig())
        monkeypatch.setattr(solver_module, "MAX_UNKNOWNS", 3)
        # 4 unknowns > 3: rejected.
        assert solver.solve_all(stack_sketch(), spec) is None
        monkeypatch.setattr(solver_module, "MAX_UNKNOWNS", 4)
        hole = SketchSolver(SynthesisConfig()).solve_all(stack_sketch(), spec)
        assert hole is not None and equivalent(hole, spec_of("A + A"))
