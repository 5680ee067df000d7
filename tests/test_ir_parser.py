"""Unit tests for the Python-source -> IR parser."""

import numpy as np
import pytest

from repro.errors import ParseError, UnsupportedOpError
from repro.ir import evaluate, float_tensor, parse, random_inputs
from repro.ir.nodes import Call, Const, Input
from repro.ir.ops import all_ops
from repro.ir.parser import parse_expression, parse_function


TYPES = {
    "A": float_tensor(3, 4),
    "B": float_tensor(4, 3),
    "S": float_tensor(3, 3),
    "x": float_tensor(4),
    "a": float_tensor(),
}


def roundtrip(source, **overrides):
    """Parse then check evaluation matches exec'ing the raw source."""
    types = {**TYPES, **overrides}
    program = parse(source, types)
    used = {i.name: types[i.name] for i in program.node.inputs()}
    env = random_inputs(used)
    namespace = {"np": np, **env}
    expected = eval(source, namespace)  # noqa: S307 - test-controlled source
    got = evaluate(program.node, env)
    assert np.asarray(got).shape == np.asarray(expected).shape
    assert np.allclose(np.asarray(got, float), np.asarray(expected, float))
    return program


class TestExpressions:
    def test_infix_operators(self):
        roundtrip("A + A - A * A / (A + A)")

    def test_matmul_operator(self):
        roundtrip("A @ B")

    def test_power_operator(self):
        roundtrip("A ** 2")

    def test_unary_minus(self):
        p = roundtrip("-A + A")
        assert isinstance(p.node, Call)

    def test_scalar_constant_folding(self):
        program = parse("(1 + 2) * A", TYPES)
        consts = [c for c in program.node.walk() if isinstance(c, Const)]
        assert consts and float(consts[0].value) == 3.0

    def test_unfoldable_scalars_stay_numpy_calls(self):
        # Python raises on 0.5 / 0.0 and goes complex on (-0.5) ** 0.5;
        # NumPy gives inf and nan, so the parser leaves both unfolded.
        with np.errstate(all="ignore"):
            for source, expected in (("0.5 / (0.5 - 0.5)", np.inf), ("(-0.5) ** 0.5", np.nan)):
                node = parse(source, TYPES).node
                assert isinstance(node, Call)
                assert np.array_equal(evaluate(node, {}), expected, equal_nan=True)

    def test_transpose_attribute(self):
        roundtrip("A.T @ A")

    def test_vector_T_is_identity(self):
        program = parse("x.T", TYPES)
        assert isinstance(program.node, Input)

    def test_numpy_calls(self):
        roundtrip("np.sqrt(np.abs(A))")
        roundtrip("np.sum(A, axis=1)")
        roundtrip("np.sum(A)")
        roundtrip("np.transpose(A)")
        roundtrip("np.dot(A, x)")
        roundtrip("np.exp(np.log(A + A))")

    def test_positional_axis(self):
        roundtrip("np.sum(A, 0)")

    def test_amax_alias(self):
        roundtrip("np.amax(A, axis=0)")

    def test_reshape(self):
        roundtrip("np.reshape(A, (4, 3))")
        roundtrip("np.reshape(A, (2, -1))")

    def test_full(self):
        roundtrip("np.full((3, 4), a) + A")

    @pytest.mark.parametrize(
        "integer, spelled",
        [("np.reshape(A, 12)", "np.reshape(A, (12,))"), ("np.full(3, 1.0)", "np.full((3,), 1.0)")],
    )
    def test_an_integer_shape_is_a_one_tuple(self, integer, spelled):
        # As in NumPy: ``np.reshape(A, 12)`` is ``np.reshape(A, (12,))``.
        assert roundtrip(integer).node == parse(spelled, TYPES).node

    def test_stack_literal_list(self):
        roundtrip("np.stack([A, A, A])")
        roundtrip("np.stack([A, A], axis=1)")

    def test_where_less(self):
        roundtrip("np.where(np.less(A, A + 1), A, A * 2)")

    def test_tensordot(self):
        roundtrip("np.tensordot(x, x, 0)")

    def test_triu_tril(self):
        roundtrip("np.triu(S) + np.tril(S)", S=float_tensor(3, 3))

    def test_subscript(self):
        roundtrip("A[0] + A[1]")
        roundtrip("A[-1]")

    def test_comprehension_unrolled(self):
        program = roundtrip("np.stack([row * 2 for row in A])")
        assert program.node.op == "stack"
        assert len(program.node.args) == 3  # A has 3 rows

    def test_comprehension_scalar_iteration(self):
        roundtrip("np.stack([(x * w + (1 - w) * x) for w in np.sum(A, axis=1)])")

    def test_inner_alias_to_dot(self):
        roundtrip("np.inner(x, x)")

    @pytest.mark.parametrize(
        "spec", [s for s in all_ops() if s.numpy_name.startswith("np.")], ids=lambda s: s.name
    )
    def test_every_numpy_name_parses_to_its_op(self, spec):
        args = {
            "full": "(2, 2), a",
            "reshape": "S, (9,)",
            "stack": "[S, S]",
            "tensordot": "S, S, 1",
        }.get(spec.name) or ("S", "S, S", "np.less(S, S), S, S")[spec.arity - 1]
        assert parse(f"{spec.numpy_name}({args})", TYPES).node.op == spec.name


class TestFunctions:
    def test_function_with_assignments(self):
        source = """
def f(A, x):
    t = A @ B
    u = t + t
    return np.sum(u, axis=0)
"""
        # B unbound -> error
        with pytest.raises(ParseError):
            parse_function(source, {"A": TYPES["A"], "x": TYPES["x"]})

    def test_function_ok(self):
        source = """
def f(A, x):
    t = np.dot(A, x)
    return t * t
"""
        program = parse_function(source, {"A": TYPES["A"], "x": TYPES["x"]})
        assert program.name == "f"
        env = random_inputs(program.input_types)
        expected = (env["A"] @ env["x"]) ** 2
        assert np.allclose(evaluate(program.node, env), expected)

    def test_docstring_skipped(self):
        source = '''
def f(A):
    """doc"""
    return A + A
'''
        assert parse(source, {"A": TYPES["A"]}).name == "f"

    def test_missing_return(self):
        with pytest.raises(ParseError):
            parse_function("def f(A):\n    t = A + A\n", {"A": TYPES["A"]})

    def test_missing_param_type(self):
        with pytest.raises(ParseError):
            parse_function("def f(A, Z):\n    return A\n", {"A": TYPES["A"]})


class TestErrors:
    def test_unknown_name(self):
        with pytest.raises(ParseError):
            parse("A + Q", TYPES)

    def test_unknown_numpy_function(self):
        with pytest.raises(UnsupportedOpError):
            parse("np.fft(A)", TYPES)

    def test_non_numpy_call(self):
        with pytest.raises(ParseError):
            parse("foo(A)", TYPES)

    def test_shape_error_reported_as_parse_error(self):
        with pytest.raises(ParseError):
            parse("S + x", TYPES)  # (3,3) + (4,)
        with pytest.raises(ParseError):
            parse("np.dot(A, A)", TYPES)  # (3,4)x(3,4)

    def test_bad_syntax(self):
        with pytest.raises(ParseError):
            parse("A +", TYPES)

    def test_comprehension_with_filter(self):
        with pytest.raises(ParseError):
            parse("np.stack([r for r in A if True])", TYPES)

    def test_unsupported_comparison(self):
        with pytest.raises(ParseError):
            parse("np.where(A > A, A, A)", TYPES)

    def test_expression_must_be_tensor(self):
        with pytest.raises(ParseError):
            parse("(1, 2)", TYPES)


class TestProgramMetadata:
    def test_input_order_follows_declaration(self):
        program = parse("B @ A", TYPES)
        assert program.input_names == tuple(TYPES)
        assert program.input_types["A"] == TYPES["A"]

    def test_source_preserved(self):
        program = parse("A + A", TYPES)
        assert program.source == "A + A"
