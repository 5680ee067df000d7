"""Exhaustive per-op semantics: eval vs NumPy across shapes and broadcasts.

Complements test_ir_ops.py: every grammar/input-side op is exercised at
several shape combinations — including broadcasting with unit axes, scalars,
and negative-axis attributes — and checked against the NumPy function it
names, through all three execution routes (op eval, IR interpreter, printed
source), and symbolic execution is checked against the interpreter.
"""

import numpy as np
import pytest

from repro.ir import evaluate, float_tensor, parse, random_inputs, to_callable
from repro.symexec import symbolic_execute
from tests.test_symexec import substitute_numeric

CASES = [
    # (source, input shapes)
    ("np.add(A, B)", {"A": (4, 1), "B": (1, 5)}),
    ("np.add(A, B)", {"A": (3,), "B": ()}),
    ("np.subtract(A, B)", {"A": (2, 3, 4), "B": (4,)}),
    ("np.multiply(A, B)", {"A": (1, 5), "B": (6, 1)}),
    ("np.divide(A, B)", {"A": (2, 2), "B": ()}),
    ("np.power(A, B)", {"A": (3, 3), "B": ()}),
    ("np.sqrt(A)", {"A": (7,)}),
    ("np.exp(A)", {"A": (2, 2)}),
    ("np.log(A)", {"A": (2, 2)}),
    ("np.abs(A)", {"A": (5,)}),
    ("np.negative(A)", {"A": (2, 3)}),
    ("np.maximum(A, B)", {"A": (4,), "B": (2, 4)}),
    ("np.minimum(A, B)", {"A": (2, 4), "B": ()}),
    ("np.where(np.less(A, B), A, B)", {"A": (3, 3), "B": (3, 3)}),
    ("np.where(np.less(A, B), A, B)", {"A": (3, 1), "B": (1, 4)}),
    ("np.sum(A)", {"A": (3, 4, 2)}),
    ("np.sum(A, axis=-1)", {"A": (3, 4, 2)}),
    ("np.sum(A, axis=1)", {"A": (3, 4, 2)}),
    ("np.max(A, axis=-1)", {"A": (4, 5)}),
    ("np.min(A, axis=0)", {"A": (4, 5)}),
    ("np.transpose(A)", {"A": (2, 3, 4)}),
    ("np.transpose(A, (1, 2, 0))", {"A": (2, 3, 4)}),
    ("np.reshape(A, (4, 6))", {"A": (2, 3, 4)}),
    ("np.reshape(A, (-1,))", {"A": (2, 3, 4)}),
    ("np.triu(A)", {"A": (4, 6)}),
    ("np.tril(A)", {"A": (6, 4)}),
    ("np.diag(A)", {"A": (5, 5)}),
    ("np.diag(A)", {"A": (4, 6)}),
    ("np.diag(A)", {"A": (5,)}),
    ("np.trace(A)", {"A": (4, 6)}),
    ("np.stack([A, B])", {"A": (3, 2), "B": (3, 2)}),
    ("np.stack([A, B], axis=2)", {"A": (3, 2), "B": (3, 2)}),
    ("np.dot(A, B)", {"A": (3, 4), "B": (4, 5)}),
    ("np.dot(A, B)", {"A": (2, 3, 4), "B": (4, 5)}),
    ("np.dot(A, B)", {"A": (2, 3, 4), "B": (5, 4, 6)}),
    ("np.dot(A, B)", {"A": (4,), "B": (4,)}),
    ("np.dot(A, B)", {"A": (3, 4), "B": (4,)}),
    ("np.dot(A, B)", {"A": (4,), "B": (4, 2)}),
    ("np.tensordot(A, B, 0)", {"A": (3,), "B": (4,)}),
    ("np.tensordot(A, B, 1)", {"A": (3, 4), "B": (4, 2)}),
    ("np.tensordot(A, B, 2)", {"A": (3, 4), "B": (3, 4)}),
    ("np.tensordot(A, B, axes=((0,), (1,)))", {"A": (3, 4), "B": (5, 3)}),
    ("np.full((3, 4), A)", {"A": ()}),
    ("A[0]", {"A": (3, 4)}),
    ("A[-1]", {"A": (3, 4)}),
]


@pytest.mark.parametrize(
    "source, shapes", CASES, ids=[f"{s}-{tuple(sh.values())}" for s, sh in CASES]
)
def test_op_semantics(source, shapes):
    types = {name: float_tensor(*shape) for name, shape in shapes.items()}
    program = parse(source, types)
    env = random_inputs(program.input_types, rng=np.random.default_rng(77))
    reference = eval(  # noqa: S307 - test-controlled source
        source, {"np": np, **{k: env[k] for k in program.input_names}}
    )
    reference = np.asarray(reference, dtype=float)

    interpreted = np.asarray(evaluate(program.node, env), dtype=float)
    assert interpreted.shape == reference.shape, "interpreter shape"
    assert np.allclose(interpreted, reference), "interpreter values"
    assert program.node.type.shape == reference.shape, "inferred type"

    printed = to_callable(program.node, input_names=program.input_names)
    reprinted = np.asarray(
        printed(*[env[n] for n in program.input_names]), dtype=float
    )
    assert np.allclose(reprinted, reference), "printed source values"


@pytest.mark.parametrize(
    "source, shapes", CASES, ids=[f"{s}-{tuple(sh.values())}" for s, sh in CASES]
)
def test_op_symbolic_execution(source, shapes):
    """The symbolic route: each entry, at the inputs, is the interpreter's value."""
    types = {name: float_tensor(*shape) for name, shape in shapes.items()}
    program = parse(source, types)
    env = random_inputs(program.input_types, rng=np.random.default_rng(77))
    symbolic = symbolic_execute(program.node)
    assert symbolic.shape == program.node.type.shape
    assert np.allclose(substitute_numeric(symbolic, env), evaluate(program.node, env))


@pytest.mark.parametrize(
    "source, shapes",
    [(s, sh) for s, sh in CASES if "[" not in s or "stack" in s],
    ids=lambda v: str(v)[:40],
)
def test_op_flops_nonnegative(source, shapes):
    from repro.cost import FlopsCostModel

    types = {name: float_tensor(*shape) for name, shape in shapes.items()}
    program = parse(source, types)
    assert FlopsCostModel().program_cost(program.node) >= 0.0
