"""Unit tests for the symbolic algebra solver (every inverter)."""

import numpy as np
import pytest
import sympy as sp

from repro.ir import float_tensor, parse
from repro.ir.nodes import Call, Input
from repro.symexec import canonical_key, equivalent, symbolic_execute
from repro.synth import SketchSolver, SynthesisConfig
from repro.symexec.symtensor import symbol_origin
from repro.synth.sketch import Hole, Sketch, iter_paths
from repro.ir.ops import get_op

TYPES = {
    "A": float_tensor(2, 3),
    "B": float_tensor(3, 2),
    "S": float_tensor(2, 2),
    "x": float_tensor(3),
    "y": float_tensor(2),
    "a": float_tensor(),
}


def make_sketch(template: str, hole_name: str, types=None) -> Sketch:
    """Build a sketch by parsing ``template`` and replacing ``hole_name``."""
    from repro.synth.sketch import replace_at

    program = parse(template, types or TYPES)
    for path, node in iter_paths(program.node):
        if isinstance(node, Input) and node.name == hole_name:
            hole = Hole(node.type)
            return Sketch(replace_at(program.node, path, hole), hole, path)
    raise AssertionError(f"{hole_name} not found in {template}")


def spec_of(source: str, types=None):
    from repro.symexec.canonical import canonical

    return symbolic_execute(parse(source, types or TYPES).node).map(canonical)


def _invert_exponent(base: str, target: str):
    """``power(base, ??) = target`` through the inverter alone (no verification)."""
    types = {"S": float_tensor(2, 2), "T": float_tensor(2, 2)}
    sketch = make_sketch(f"np.power({base}, T)", "T", types)
    base_value = symbolic_execute(sketch.root.args[0])
    return get_op("power").inverse(
        sketch.root, 1, [base_value, None], spec_of(target, types), sketch.hole.type
    )


@pytest.fixture
def solver():
    return SketchSolver(SynthesisConfig())


def assert_solution(solver, sketch, spec, expected_source, types=None):
    """Hole spec must equal the symbolic value of ``expected_source``."""
    hole_spec = solver.solve_all(sketch, spec)
    assert hole_spec is not None, "no solution found"
    expected = spec_of(expected_source, types)
    assert equivalent(hole_spec, expected)


class TestElementwiseInverters:
    def test_add(self, solver):
        assert_solution(solver, make_sketch("y + S", "y"), spec_of("(y * 2) + S"), "y * 2")

    def test_add_second_position(self, solver):
        assert_solution(solver, make_sketch("S + y", "y"), spec_of("S + y / 2"), "y / 2")

    def test_subtract_both_positions(self, solver):
        assert_solution(solver, make_sketch("y - S", "y"), spec_of("(y + 1) - S"), "y + 1")
        assert_solution(solver, make_sketch("S - y", "y"), spec_of("S - (y * y)"), "y * y")

    def test_multiply_cancels(self, solver):
        assert_solution(solver, make_sketch("S * y", "y"), spec_of("S * (y + y)"), "y + y")

    def test_divide(self, solver):
        assert_solution(solver, make_sketch("y / S", "y"), spec_of("(y * 3) / S"), "y * 3")
        assert_solution(solver, make_sketch("S / y", "y"), spec_of("S / (2 * y)"), "2 * y")

    def test_divide_zero_numerator_has_no_solution(self, solver):
        sketch = make_sketch("a / S", "S")  # hole in denominator
        zero_spec = spec_of("S - S")
        # 0 / ?? = S - S would need 0/h == 0; inverse is ill-defined -> None
        assert solver.solve_all(sketch, zero_spec) is None

    def test_sqrt(self, solver):
        assert_solution(solver, make_sketch("np.sqrt(y)", "y"), spec_of("y + 1"), "(y + 1) ** 2")

    def test_power_base(self, solver):
        assert_solution(
            solver, make_sketch("np.power(y, 2)", "y"), spec_of("np.power(y + 1, 2)"), "y + 1"
        )

    def test_power_exponent(self, solver):
        sketch = make_sketch("np.power(A, a)", "a")
        hole_spec = solver.solve_all(sketch, spec_of("np.power(A, 3)"))
        assert hole_spec is not None
        assert sp.simplify(hole_spec.item() - 3) == 0

    @pytest.mark.parametrize(
        "base, target, exponent",
        [
            ("S", "np.power(S, 5)", 5),
            ("np.sqrt(S)", "S * S", 4),
            ("0 - S", "S", None),  # log of a negative base is not real
            ("S / S", "S", None),  # base 1: log(1) = 0
        ],
    )
    def test_exponent_inversion_needs_no_simplify(self, base, target, exponent):
        hole = _invert_exponent(base, target)
        if exponent is None:
            assert hole is None
        else:
            assert list(hole.entries()) == [exponent] * 4

    def test_exponent_quotient_that_does_not_collapse_stays_a_hit(self):
        hole = _invert_exponent("S + 4", "2 * T + S * S")
        assert hole is not None
        for entry in hole.entries():
            assert {symbol_origin(s)[0] for s in entry.free_symbols} == {"S", "T"}

    def test_broadcast_unification(self, solver):
        # Hole is scalar; candidate entries must all coincide.
        sketch = make_sketch("a * A", "a")
        assert_solution(solver, sketch, spec_of("3 * A"), "a - a + 3")
        assert solver.solve_all(sketch, spec_of("A * A")) is None  # no single scalar


class TestStructuralInverters:
    def test_transpose(self, solver):
        assert_solution(
            solver, make_sketch("np.transpose(A)", "A"), spec_of("np.transpose(A + 1)"), "A + 1"
        )

    def test_full(self, solver):
        sketch = make_sketch("np.full((2, 3), a)", "a")
        hole_spec = solver.solve_all(sketch, spec_of("np.full((2, 3), a * 2)"))
        assert hole_spec is not None and sp.simplify(hole_spec.item() / 2).is_Symbol

    def test_triu_accepts_upper(self, solver):
        sketch = make_sketch("np.triu(S)", "S")
        assert solver.solve_all(sketch, spec_of("np.triu(S + S)")) is not None
        assert solver.solve_all(sketch, spec_of("S + S")) is None  # dense target

    def test_where_concrete_condition(self, solver):
        types = {**TYPES}
        sketch = make_sketch("np.where(np.less(np.full((2, 2), a - a), np.full((2, 2), a - a + 1)), S, S * 0)", "S")
        # cond is identically true -> hole spec is the target itself
        target = spec_of("S + 1")
        hole = solver.solve_all(sketch, target)
        assert hole is not None
        assert equivalent(hole, target)


class TestReductionInverter:
    def test_sum_axis1_diag_dot(self, solver):
        types = {"A": float_tensor(2, 3), "B": float_tensor(3, 2), "M": float_tensor(2, 3)}
        sketch = make_sketch("np.sum(M, axis=1)", "M", types)
        spec = spec_of("np.diag(np.dot(A, B))", types)
        hole = solver.solve_all(sketch, spec)
        assert hole is not None
        # The split must be coherent: equals A * B.T elementwise.
        assert equivalent(hole, spec_of("A * np.transpose(B)", types))

    def test_sum_all_trace(self, solver):
        types = {"A": float_tensor(2, 3), "B": float_tensor(2, 3), "M": float_tensor(2, 3)}
        sketch = make_sketch("np.sum(M)", "M", types)
        spec = spec_of("np.trace(A @ B.T)", types)
        hole = solver.solve_all(sketch, spec)
        assert hole is not None
        assert equivalent(hole, spec_of("A * B", types))

    def test_sum_axis0(self, solver):
        types = {"A": float_tensor(2, 3), "x": float_tensor(3), "M": float_tensor(2, 3)}
        sketch = make_sketch("np.sum(M, axis=0)", "M", types)
        spec = spec_of("np.sum(A * x, axis=0)", types)
        hole = solver.solve_all(sketch, spec)
        assert hole is not None
        assert equivalent(hole, spec_of("A * x", types))


class TestContractionInverters:
    def test_dot_first_position(self, solver):
        types = {"A": float_tensor(2, 3), "C": float_tensor(2, 3), "B": float_tensor(3, 2)}
        sketch = make_sketch("np.dot(A, B)", "A", types)
        spec = spec_of("np.dot(A * C, B)", types)
        hole = solver.solve_all(sketch, spec)
        assert hole is not None
        assert equivalent(hole, spec_of("A * C", types))

    def test_dot_second_position(self, solver):
        types = {"A": float_tensor(2, 3), "x": float_tensor(3)}
        sketch = make_sketch("np.dot(A, x)", "x", types)
        spec = spec_of("np.dot(A, x * 2)", types)
        assert_solution(solver, sketch, spec, "x * 2", types)

    def test_dot_vector_inner(self, solver):
        types = {"x": float_tensor(3), "z": float_tensor(3)}
        sketch = make_sketch("np.dot(x, z)", "z", types)
        spec = spec_of("np.dot(x, z + z)", types)
        assert_solution(solver, sketch, spec, "z + z", types)

    def test_dot_rejects_quadratic_dependence(self, solver):
        # x.T A x is quadratic in x: no x-free hole exists for dot(??, x).
        types = {"x": float_tensor(3), "A": float_tensor(3, 3), "h": float_tensor(3)}
        sketch = make_sketch("np.dot(h, x)", "h", types)
        spec = spec_of("np.dot(np.dot(x, A), x)", types)
        hole = solver.solve_all(sketch, spec)
        # Either no solution, or a verified one that depends on x (derivative
        # extraction is rejected by verification in the quadratic case).
        if hole is not None:
            result = symbolic_execute(
                sketch.root, bindings={sketch.hole.name: hole}
            )
            assert equivalent(result, spec)

    def test_tensordot_outer(self, solver):
        types = {"A": float_tensor(3), "x": float_tensor(2), "y": float_tensor(2)}
        sketch = make_sketch("np.tensordot(A, x, 0)", "x", types)
        spec = spec_of("np.tensordot(A, x - y, 0)", types)
        assert_solution(solver, sketch, spec, "x - y", types)


class TestSolverSafety:
    def test_decomposition_verification_blocks_bogus(self, solver):
        """Any returned hole spec re-executes to the target."""
        cases = [
            (make_sketch("S * y", "y"), spec_of("S + 1")),
            (make_sketch("np.sqrt(y)", "y"), spec_of("y - 2 * y")),
        ]
        for sketch, spec in cases:
            hole = solver.solve_all(sketch, spec)
            if hole is not None:
                result = symbolic_execute(sketch.root, bindings={sketch.hole.name: hole})
                assert equivalent(result, spec)

    def test_shape_mismatch_returns_none(self, solver):
        sketch = make_sketch("np.sum(A, axis=0)", "A")
        assert solver.solve_all(sketch, spec_of("np.sum(A, axis=1)")) is None

    def test_generic_solution_of_a_single_hole_path_is_verified(self, solver, monkeypatch):
        """``stack`` has no inverter, so the hole path falls to ``sympy.solve``:
        what comes back is re-executed and compared like any other hole spec."""
        from repro.synth import solver as solver_mod

        types = {"x": float_tensor(2)}
        sketch = make_sketch("np.stack([x, x])", "x", types)  # stack([??, x])
        proofs = []
        real_holds = SketchSolver._decomposition_holds

        def counting_holds(self, sk, hole_spec, spec):
            proofs.append(hole_spec)
            return real_holds(self, sk, hole_spec, spec)

        monkeypatch.setattr(SketchSolver, "_decomposition_holds", counting_holds)
        hole = solver.solve_all(sketch, spec_of("np.stack([x + x, x])", types))
        assert hole is not None and equivalent(hole, spec_of("x + x", types))
        assert len(proofs) == 1

        # ``sympy.solve`` drops the rows that mention no unknown, so against
        # stack([2x, 2x]) it still answers ?? = 2x although row 1 is x, not 2x.
        wrong = spec_of("np.stack([x + x, x + x])", types)
        assert solver_mod._generic_solve(sketch, wrong) is not None
        assert solver.solve_all(sketch, wrong) is None
        assert len(proofs) == 2

        # A doctored generic solution is turned down the same way.
        monkeypatch.setattr(
            solver_mod, "_generic_solve", lambda sk, spec: spec_of("x * x", types)
        )
        assert solver.solve_all(sketch, spec_of("np.stack([x + x, x])", types)) is None
        assert len(proofs) == 3

    @pytest.mark.parametrize("forced", ["normalize", "generic", "equivalent", "simplify"])
    def test_a_raising_check_means_unsolvable(self, solver, forced, monkeypatch):
        """Normalizing the hole spec — after an inverter or after the generic
        solve — comparing the re-executed sketch with the spec, and
        ``simplify`` inside that comparison may each raise: the query is then
        unsolvable, not an error."""
        import importlib

        from repro.synth import solver as solver_mod

        canonical_mod = importlib.import_module("repro.symexec.canonical")
        types = {"S": float_tensor(2, 2), "T": float_tensor(2, 2)}
        sketch = make_sketch("np.sqrt(S)", "S", types)  # hole spec (S + T)**2

        def boom(*args, **kwargs):
            raise sp.PolynomialError("forced")

        target = "S + T"
        if forced in ("normalize", "generic"):
            monkeypatch.setattr(solver_mod, "_normalize", boom)
            if forced == "generic":
                # diag has no inverter: the generic solve derives x / y, then normalizes it.
                types = {"x": float_tensor(2), "y": float_tensor(2)}
                sketch = make_sketch("np.diag(x)", "x", types)
                target = "np.diag(x / y)"
                assert solver_mod._generic_solve(sketch, spec_of(target, types)) is None
        elif forced == "equivalent":
            monkeypatch.setattr(solver_mod, "equivalent", boom)
        else:
            # sqrt((S - T)**2) re-executes to Abs(S - T): only simplify compares it.
            monkeypatch.setattr(canonical_mod.sp, "simplify", boom)
            target = "S - T"
        canonical_mod._equivalent_exprs_slow.cache_clear()
        try:
            assert solver.solve_all(sketch, spec_of(target, types)) is None
        finally:
            canonical_mod._equivalent_exprs_slow.cache_clear()
