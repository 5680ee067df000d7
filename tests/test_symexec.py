"""Symbolic execution tests: per-op semantics and whole-program specs.

The key soundness property: substituting concrete values into the symbolic
tensor must reproduce the numeric interpreter's result, for every op.
"""

import numpy as np
import pytest
import sympy as sp

from repro.ir import evaluate, float_tensor, parse, random_inputs
from repro.ir.types import DType, TensorType
from repro.symexec import (
    SymTensor,
    canonical_key,
    equivalent,
    symbolic_execute,
)
from repro.ir.ops import all_ops, get_op
from repro.symexec import engine
from repro.obs.metrics import PROCESS_COUNTERS
from repro.symexec.symtensor import element_symbol, index_class, rename, representative, symbol_origin
from repro.synth.enumerator import _undefined

TYPES = {
    "A": float_tensor(2, 3),
    "B": float_tensor(3, 2),
    "S": float_tensor(2, 2),
    "x": float_tensor(3),
    "a": float_tensor(),
    "y": float_tensor(2),
}


def substitute_numeric(tensor: SymTensor, env: dict[str, np.ndarray]) -> np.ndarray:
    """Evaluate each symbolic entry at the concrete inputs.

    An entry may be a plain Python number: ``np.diag`` of a vector fills the
    off-diagonal with ``0``.
    """
    substitutions = {}
    for name, value in env.items():
        arr = np.asarray(value)
        if arr.shape == ():
            substitutions[element_symbol(name, ())] = float(arr)
        else:
            for idx in np.ndindex(*arr.shape):
                substitutions[element_symbol(name, tuple(idx))] = float(arr[idx])
    out = np.empty(tensor.shape, dtype=float)
    if tensor.shape == ():
        return np.asarray(float(sp.sympify(tensor.item()).subs(substitutions)))
    for idx in np.ndindex(*tensor.shape):
        out[idx] = float(sp.sympify(tensor.data[idx]).subs(substitutions))
    return out


AGREEMENT_SOURCES = [
    "A + B.T",
    "A - 2 * A",
    "A * A / (A + 1)",
    "np.sqrt(A)",
    "np.exp(a) * A",
    "np.log(A + 3)",
    "np.power(A, 2)",
    "np.dot(A, B)",
    "np.dot(A, x)",
    "np.dot(x, B)",
    "np.tensordot(x, x, 0)",
    "np.sum(A)",
    "np.sum(A, axis=0)",
    "np.sum(A, axis=1)",
    "np.transpose(A)",
    "np.reshape(A, (3, 2))",
    "np.diag(np.dot(A, B))",
    "np.trace(np.dot(A, B))",
    "np.stack([x, x + 1])",
    "np.triu(S)",
    "np.tril(S)",
    "np.full((2, 3), a)",
    "A[0] * x",
    "np.max(np.stack([A, A + 1]), axis=0)",
    "np.min(np.stack([A, A + 1]), axis=0)",
    "np.where(np.less(A, A + 1), A, -A)",
]


@pytest.mark.parametrize("source", AGREEMENT_SOURCES)
def test_symbolic_matches_numeric(source):
    program = parse(source, TYPES)
    spec = symbolic_execute(program.node)
    assert spec.shape == program.node.type.shape
    env = random_inputs(program.input_types, rng=np.random.default_rng(11))
    expected = np.asarray(evaluate(program.node, env), dtype=float)
    got = substitute_numeric(spec, env)
    assert np.allclose(got, expected)


@pytest.mark.parametrize("op", sorted(spec.name for spec in all_ops() if spec.symbolic))
def test_every_sympy_rule_is_needed(op):
    """On element symbols the registry's NumPy rule raises, or yields some
    entry other than the engine's SymPy rule does."""
    A, B = (SymTensor.from_input(name, float_tensor(2, 3)).data for name in "AB")
    args = [get_op("less").symbolic([A, B], {}), A, B] if op == "where" else [A, B]
    args = args[: get_op(op).arity]
    want = get_op(op).symbolic(args, {})
    try:
        got = get_op(op).eval(args, {})
    except TypeError:
        return
    assert [sp.srepr(e) for e in np.asarray(got).flat] != [
        sp.srepr(e) for e in np.asarray(want).flat
    ]


class TestSymbols:
    def test_element_symbols_are_cached(self):
        assert element_symbol("A", (0, 1)) is element_symbol("A", (0, 1))

    def test_symbol_origin(self):
        s = element_symbol("Q", (1, 2))
        assert symbol_origin(s) == ("Q", (1, 2))

    def test_positive_assumption(self):
        s = element_symbol("P", (0,))
        assert s.is_positive
        assert sp.sqrt(s**2) == s  # the simplification positivity buys

    def test_bool_input_is_relational(self):
        t = SymTensor.from_input("M", __import__("repro.ir.types", fromlist=["TensorType"]).TensorType(DType.BOOL, (2,)))
        for entry in t.entries():
            assert entry.is_Relational


class TestIndexClass:
    """``representative``: entry ``(i, j)`` renamed to index 0, or no opinion."""

    A12, B12 = element_symbol("A", (1, 2)), element_symbol("B", (1, 2))

    def test_one_shared_index_renames_to_zero_and_back(self):
        A00, B00 = element_symbol("A", (0, 0)), element_symbol("B", (0, 0))
        exprs = (self.A12, self.A12 * self.B12 + sp.sqrt(self.B12))
        rep, back = representative(exprs)
        assert rep == (A00, A00 * B00 + sp.sqrt(B00))
        assert back == {A00: self.A12, B00: self.B12}
        assert tuple(sp.srepr(rename(e, back)) for e in rep) == tuple(map(sp.srepr, exprs))

    @pytest.mark.parametrize(
        "exprs",
        [
            pytest.param((element_symbol("A", (0, 1)), element_symbol("B", (1, 0))), id="mixed-indices"),
            pytest.param((element_symbol("A", (0, 0)), element_symbol("B", (0, 0))), id="index-0"),
            pytest.param((element_symbol("a", ()), sp.Integer(2)), id="scalar-input"),
            pytest.param((A12 + sp.Symbol("_u0", real=True), B12), id="solver-unknown"),
            pytest.param((element_symbol("M", (1, 2), boolean=True), A12, B12), id="Gt-carrier"),
            pytest.param((element_symbol("M", (1, 2), boolean=True).lhs, A12), id="bare-carrier"),
            pytest.param((sp.Integer(2), sp.Rational(1, 3)), id="constants-only"),
            pytest.param((sp.exp(A12), B12), id="outside-the-node-set"),
        ],
    )
    def test_no_opinion(self, exprs):
        assert representative(exprs) is None

    def test_boolean_carriers_select_entry_by_entry(self):
        """A carrier renamed to a positive ``M[0,0]`` would fold ``where`` to ``A``."""
        types = {"M": TensorType(DType.BOOL, (2, 3)), "A": float_tensor(2, 3), "B": float_tensor(2, 3)}
        got = symbolic_execute(parse("np.where(M, A, B)", types).node)
        for idx in np.ndindex(2, 3):
            a, b = element_symbol("A", idx), element_symbol("B", idx)
            want = sp.Piecewise((a, element_symbol("M", idx, boolean=True)), (b, True))
            assert sp.srepr(got.data[idx]) == sp.srepr(want), idx


class TestClasswise:
    """Execution once per index class, and its no-opinion edges: each of these
    runs entry by entry, and every entry is what the entrywise rule builds."""

    @staticmethod
    def _run(source, types, bindings=None):
        before = dict(PROCESS_COUNTERS)
        tensor = symbolic_execute(parse(source, types).node, bindings=bindings)
        moved = {k: v - before.get(k, 0) for k, v in PROCESS_COUNTERS.items() if v != before.get(k, 0)}
        return tensor, moved.get("symexec.classwise", 0), moved.get("symexec.entrywise", 0)

    def test_elementwise_ops_run_once_and_rename(self):
        types = {"A": float_tensor(2, 3), "B": float_tensor(2, 3)}
        got, classwise, entrywise = self._run("np.sqrt(A * B + 2) / (A - B)", types)
        assert index_class(got) and (classwise, entrywise) == (5, 0)
        for idx in np.ndindex(2, 3):
            a, b = element_symbol("A", idx), element_symbol("B", idx)
            assert sp.srepr(got.data[idx]) == sp.srepr(sp.sqrt(a * b + 2) / (a - b)), idx

    @pytest.mark.parametrize("shapes", [((3,), (2, 3)), ((1, 3), (2, 3))], ids=["(m,)", "(1,m)"])
    def test_broadcast_argument_runs_entrywise(self, shapes):
        types = {"x": float_tensor(*shapes[0]), "A": float_tensor(*shapes[1])}
        got, classwise, entrywise = self._run("x + A", types)
        assert not index_class(got) and (classwise, entrywise) == (0, 1)
        for i, j in np.ndindex(2, 3):
            x = element_symbol("x", (j,) if len(shapes[0]) == 1 else (0, j))
            assert got.data[i, j] == x + element_symbol("A", (i, j)), (i, j)

    def test_transposed_argument_runs_entrywise(self):
        types = {"A": float_tensor(2, 3), "B": float_tensor(3, 2)}
        got, classwise, entrywise = self._run("np.transpose(A) + B", types)
        assert not index_class(got) and (classwise, entrywise) == (0, 2)
        for j, i in np.ndindex(3, 2):
            assert got.data[j, i] == element_symbol("A", (i, j)) + element_symbol("B", (j, i))

    def test_boolean_input_is_no_index_class(self):
        types = {"M": TensorType(DType.BOOL, (2, 3)), "A": float_tensor(2, 3)}
        assert not index_class(symbolic_execute(parse("M", types).node))
        got, classwise, entrywise = self._run("np.where(M, A, 1.0)", types)
        assert not index_class(got) and (classwise, entrywise) == (0, 1)
        for idx in np.ndindex(2, 3):
            want = sp.Piecewise((element_symbol("A", idx), element_symbol("M", idx, boolean=True)), (1, True))
            assert sp.srepr(got.data[idx]) == sp.srepr(want), idx

    def test_solver_binding_runs_entrywise(self):
        """A bound input is whatever it is bound to: here ``A`` read transposed."""
        types = {"A": float_tensor(2, 2), "B": float_tensor(2, 2)}
        unbound = SymTensor.from_input("A", types["A"])
        bound = SymTensor(np.ascontiguousarray(unbound.data.T), DType.FLOAT)
        got, classwise, entrywise = self._run("A + B", types, bindings={"A": bound})
        assert not index_class(got) and (classwise, entrywise) == (0, 1)
        for i, j in np.ndindex(2, 2):
            assert got.data[i, j] == element_symbol("A", (j, i)) + element_symbol("B", (i, j))

    def test_classwise_divide_by_zero_is_undefined(self):
        """Entry 0 speaks for a class-wise tensor: ``A / 0`` is rejected;
        an unmarked tensor is checked entry by entry."""
        types = {"A": float_tensor(2, 3)}
        got, classwise, _ = self._run("A / 0.0", types)
        assert index_class(got) and classwise == 1
        assert all(e is sp.zoo for e in got.entries())
        assert _undefined(got)
        late = SymTensor(np.array([element_symbol("A", (0, 0)), sp.zoo], dtype=object), DType.FLOAT)
        assert _undefined(late) and not _undefined(symbolic_execute(parse("A / 2.0", types).node))


class TestDensityAndComplexityInputs:
    def test_dense_tensor(self):
        spec = symbolic_execute(parse("A + A", TYPES).node)
        assert spec.density() == 1.0

    def test_triu_density(self):
        spec = symbolic_execute(parse("np.triu(S)", TYPES).node)
        assert spec.density() == pytest.approx(3 / 4)

    def test_input_names(self):
        spec = symbolic_execute(parse("A @ B + 1", TYPES).node)
        assert spec.input_names() == {"A", "B"}


class TestEquivalence:
    @pytest.mark.parametrize(
        "lhs, rhs",
        [
            ("np.diag(np.dot(A, B))", "np.sum(A * B.T, axis=1)"),
            ("np.exp(np.log(A) - np.log(B.T))", "A / B.T"),
            ("np.power(np.sqrt(A) + np.sqrt(A), 2)", "4 * A"),
            ("(A + 1) / np.sqrt(A + 1)", "np.sqrt(A + 1)"),
            ("np.trace(A @ B)", "np.sum(A * B.T)"),
            ("np.power(A, 6) / np.power(A, 4)", "A * A"),
            ("np.sum(np.sum(A, axis=0), axis=0)", "np.sum(A)"),
            ("np.max(np.stack([A, B.T]), axis=0)", "np.where(np.less(A, B.T), B.T, A)"),
            ("np.transpose(np.transpose(A))", "A"),
            ("y.T @ S @ y", "np.dot(y, np.dot(S, y))"),
        ],
    )
    def test_known_identities(self, lhs, rhs):
        sl = symbolic_execute(parse(lhs, TYPES).node)
        sr = symbolic_execute(parse(rhs, TYPES).node)
        assert equivalent(sl, sr), (lhs, rhs)

    @pytest.mark.parametrize(
        "lhs, rhs",
        [
            ("A + B.T", "A - B.T"),
            ("np.dot(A, B)", "np.dot(B, A).T"),
            ("np.sum(A, axis=0)", "np.sum(A, axis=1).T" if False else "np.sum(A.T, axis=0).T"),
        ],
    )
    def test_non_identities(self, lhs, rhs):
        sl = symbolic_execute(parse(lhs, TYPES).node)
        sr = symbolic_execute(parse(rhs, TYPES).node)
        if sl.shape == sr.shape:
            assert not equivalent(sl, sr)

    def test_canonical_key_is_stable(self):
        spec = symbolic_execute(parse("A * 2 + B.T", TYPES).node)
        assert canonical_key(spec) == canonical_key(spec)

    def test_keys_distinguish_shapes(self):
        s1 = symbolic_execute(parse("np.sum(A, axis=0)", TYPES).node)
        s2 = symbolic_execute(parse("np.sum(A.T, axis=1)", TYPES).node)
        assert canonical_key(s1) == canonical_key(s2)  # same function!
        s3 = symbolic_execute(parse("np.sum(A, axis=1)", TYPES).node)
        assert canonical_key(s1) != canonical_key(s3)


class TestBindings:
    def test_binding_overrides_input(self):
        program = parse("A + A", {"A": float_tensor(2,)})
        bound = SymTensor.from_value(np.array([1.0, 2.0]))
        out = symbolic_execute(program.node, bindings={"A": bound})
        assert [sp.simplify(e) for e in out.entries()] == [2, 4]

    def test_binding_shape_mismatch(self):
        from repro.errors import SymbolicExecutionError

        program = parse("A + A", {"A": float_tensor(2,)})
        bad = SymTensor.from_value(np.ones((3,)))
        with pytest.raises(SymbolicExecutionError):
            symbolic_execute(program.node, bindings={"A": bad})


class TestConstants:
    """``SymTensor.from_value``: the symbolic constant *is* the constant."""

    @pytest.mark.parametrize("value", [282266.0, 8007229719566499.0, -3.0, -0.0])
    def test_integer_valued_constants_are_exact(self, value):
        # nsimplify(282266.0) is a ~600-digit Rational; from 1e15 up it
        # rounds to 15 digits (…6499.0 -> …6500).
        got = SymTensor.from_value(value).item()
        assert got.is_Integer and got == int(value)
        tensor = SymTensor.from_value(np.array([value, 1.0]))
        assert next(tensor.entries()) == int(value)

    @pytest.mark.parametrize(
        "value", [0.5, 1 / 3, 2.449489742783178, float(2**53), float("nan"), float("inf")]
    )
    def test_other_constants_keep_nsimplify(self, value):
        got = SymTensor.from_value(value).item()
        want = sp.nsimplify(value, rational=True)
        assert sp.srepr(got) == sp.srepr(want)
