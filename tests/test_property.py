"""Property-based tests (hypothesis) on core data structures and invariants.

Covered properties:

* printer/parser roundtrip: ``parse(print(t)) == t`` for random IR trees;
* evaluator/codegen agreement: the interpreter, the printed source, and the
  linearized DAG codegen all compute the same function;
* symbolic-execution soundness: substituting concrete inputs into the
  symbolic spec reproduces the interpreter, for random programs;
* canonicalization is semantics-preserving and equivalence is reflexive;
* broadcasting algebra (commutativity, identity, idempotence);
* solver roundtrip: a sketch filled with a random program is solved back to
  a hole spec equivalent to that program's spec.
"""

import numpy as np
import sympy as sp
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.backends import compile_dag
from repro.ir import (
    broadcast_shapes,
    evaluate,
    float_tensor,
    parse,
    random_inputs,
    to_callable,
    to_expression,
)
from repro.ir.nodes import Call, Const, Input, Node
from repro.ir.types import shrink_shape
from repro.symexec import canonical, equivalent, symbolic_execute
from repro.symexec.symtensor import element_symbol

# ---------------------------------------------------------------------------
# Random IR trees
# ---------------------------------------------------------------------------

_INPUTS = {
    "A": float_tensor(2, 3),
    "B": float_tensor(3, 2),
    "x": float_tensor(3),
    "a": float_tensor(),
}

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _leaf() -> st.SearchStrategy[Node]:
    inputs = [Input(n, t) for n, t in _INPUTS.items()]
    consts = [Const(0.5), Const(2.0), Const(3.0)]
    return st.sampled_from(inputs + consts)


def _combine(children: st.SearchStrategy[Node]) -> st.SearchStrategy[Node]:
    def binary(op):
        def build(pair):
            left, right = pair
            try:
                return Call(op, (left, right))
            except Exception:
                return left

        return st.tuples(children, children).map(build)

    def unary(op, **attrs):
        def build(child):
            try:
                return Call(op, (child,), **attrs)
            except Exception:
                return child

        return children.map(build)

    return st.one_of(
        binary("add"),
        binary("subtract"),
        binary("multiply"),
        binary("divide"),
        binary("dot"),
        unary("sqrt"),
        unary("transpose"),
        unary("sum", axis=0),
        unary("sum"),
        unary("negative"),
    )


def ir_trees() -> st.SearchStrategy[Node]:
    return st.recursive(_leaf(), _combine, max_leaves=6)


def _env_for(node: Node, seed: int = 0) -> dict[str, np.ndarray]:
    types = {i.name: i.type for i in node.inputs()}
    return random_inputs(types, rng=np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


def _has_const_only_call(node: Node) -> bool:
    return any(
        isinstance(n, Call) and all(isinstance(a, Const) for a in n.args)
        for n in node.walk()
    )


@_SETTINGS
@given(ir_trees())
def test_print_parse_roundtrip(tree):
    printed = to_expression(tree)
    reparsed = parse(printed, _INPUTS).node
    if _has_const_only_call(tree):
        # The parser folds constant subexpressions (by design); compare
        # semantically instead of structurally.
        env = _env_for(tree)
        with np.errstate(all="ignore"):
            a = np.asarray(evaluate(tree, env), dtype=float)
            b = np.asarray(evaluate(reparsed, env), dtype=float)
        assert a.shape == b.shape
        assert np.allclose(a, b, equal_nan=True)
    else:
        assert reparsed == tree


@_SETTINGS
@given(ir_trees())
def test_interpreter_source_codegen_agree(tree):
    env = _env_for(tree)
    names = [i.name for i in tree.inputs()]
    with np.errstate(all="ignore"):
        expected = np.asarray(evaluate(tree, env), dtype=float)
    if not np.all(np.isfinite(expected)):
        return  # e.g. a constant subtree folds to zero and divides: domain edge

    try:
        by_source = to_callable(tree, input_names=names)(*[env[n] for n in names])
    except ZeroDivisionError:
        # Printed source divides Python scalars, which raise where NumPy
        # yields inf; only reachable through intermediate infinities on
        # constant-only subtrees that the enumerator would fold away.
        return
    assert np.allclose(np.asarray(by_source, float), expected, equal_nan=True)

    by_dag = compile_dag(tree, names)(*[env[n] for n in names])
    assert np.allclose(np.asarray(by_dag, float), expected, equal_nan=True)


@_SETTINGS
@given(ir_trees(), st.integers(0, 3))
def test_symbolic_execution_sound(tree, seed):
    env = _env_for(tree, seed)
    with np.errstate(all="ignore"):
        expected = np.asarray(evaluate(tree, env), dtype=float)
    if not np.all(np.isfinite(expected)):
        return  # e.g. sqrt of a negative subtraction: domain edge, skip
    spec = symbolic_execute(tree)
    substitutions = {}
    for name, value in env.items():
        arr = np.asarray(value)
        for idx in np.ndindex(*arr.shape) if arr.shape else [()]:
            substitutions[element_symbol(name, tuple(idx))] = float(arr[idx])
    got = np.empty(spec.shape, dtype=float)
    entries = list(spec.entries())
    flat = got.reshape(-1) if spec.shape else None
    for i, entry in enumerate(entries):
        value = float(sp.sympify(entry).subs(substitutions))
        if spec.shape:
            flat[i] = value
        else:
            got = np.asarray(value)
    assert np.allclose(got, expected, rtol=1e-6)


@_SETTINGS
@given(ir_trees())
def test_canonical_preserves_semantics(tree):
    spec = symbolic_execute(tree)
    canon = spec.map(canonical)
    assert equivalent(spec, canon)


@_SETTINGS
@given(ir_trees())
def test_equivalence_reflexive(tree):
    spec = symbolic_execute(tree)
    assert equivalent(spec, spec)


# ---------------------------------------------------------------------------
# Broadcasting / shape algebra
# ---------------------------------------------------------------------------

_shapes = st.lists(st.integers(1, 4), min_size=0, max_size=3).map(tuple)


@_SETTINGS
@given(_shapes, _shapes)
def test_broadcast_commutative(a, b):
    try:
        ab = broadcast_shapes(a, b)
    except Exception:
        ab = None
    try:
        ba = broadcast_shapes(b, a)
    except Exception:
        ba = None
    assert ab == ba


@_SETTINGS
@given(_shapes)
def test_broadcast_identity_and_idempotent(shape):
    assert broadcast_shapes(shape, ()) == shape
    assert broadcast_shapes(shape, shape) == shape


@_SETTINGS
@given(_shapes, st.integers(2, 5))
def test_shrink_shape_bounds(shape, target):
    shrunk = shrink_shape(shape, target)
    assert len(shrunk) == len(shape)
    for original, small in zip(shape, shrunk):
        assert small <= max(original, 1)
        assert small <= max(target, 1) or original == 1
        assert (original == 1) == (small == 1)


@_SETTINGS
@given(ir_trees())
def test_broadcast_matches_numpy(tree):
    """Our inferred output shape equals what NumPy actually produces."""
    env = _env_for(tree)
    value = evaluate(tree, env)
    assert np.asarray(value).shape == tree.type.shape


# ---------------------------------------------------------------------------
# Solver roundtrip
# ---------------------------------------------------------------------------


@_SETTINGS
@given(st.sampled_from(["add", "subtract", "multiply", "divide"]), ir_trees())
def test_solver_roundtrip_elementwise(op, filler):
    """solve(sketch, symexec(sketch.fill(p))) yields a spec equivalent to p."""
    from repro.synth import SketchSolver, SynthesisConfig
    from repro.synth.sketch import Hole, Sketch

    if filler.type.shape != (2, 3):
        return  # fix the hole type for this property
    other = Input("A", float_tensor(2, 3))
    hole = Hole(float_tensor(2, 3))
    try:
        root = Call(op, (hole, other))
    except Exception:
        return
    sketch = Sketch(root, hole, (0,))
    filled_spec = symbolic_execute(sketch.fill(filler)).map(canonical)
    solver = SketchSolver(SynthesisConfig())
    hole_spec = solver.solve_all(sketch, filled_spec)
    if hole_spec is None:
        return  # divide-by-zero style degeneracies may be unsolvable
    assert equivalent(hole_spec, symbolic_execute(filler))
