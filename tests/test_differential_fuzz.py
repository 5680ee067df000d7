"""Property-based differential fuzzing of the whole superoptimizer.

The property: for *any* generated program, the optimized output computes
the same function as the input — numerically on random inputs, and
symbolically after canonicalization.  The generator builds random
shape-correct expressions over matrices, a vector, and a scalar from the
core op set (add / subtract / multiply / dot / transpose / sum), so every
run of the synthesizer is checked end to end against the reference
interpreter, not just the curated regression kernels.

The quick profile (hypothesis, a few dozen cases) runs in the default test
suite; the long profile (200 seeded programs) is behind ``-m slow``.
"""

from __future__ import annotations

import random
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ir.evaluator import evaluate, random_inputs
from repro.ir.parser import parse
from repro.ir.types import float_tensor
from repro.symexec import equivalent, symbolic_execute
from repro.synth.config import SynthesisConfig
from repro.synth.superoptimizer import superoptimize_source

# Shapes stay tiny and shrinking stays off: SymPy cost is bounded and the
# synthesized result needs no shape transport, keeping one fuzz case cheap.
INPUT_SHAPES = {"A": (2, 2), "B": (2, 2), "x": (2,), "a": ()}
MAT, VEC, SCALAR = (2, 2), (2,), ()

FUZZ_CONFIG = SynthesisConfig(timeout_seconds=15, max_depth=1)

_LEAVES = [
    ("A", MAT), ("B", MAT), ("x", VEC), ("a", SCALAR),
    ("0", SCALAR), ("1", SCALAR), ("2", SCALAR),
]
_EW_OPS = ("+", "-", "*")


def gen_expr(rng: random.Random, depth: int) -> tuple[str, tuple[int, ...]]:
    """One random shape-correct expression: ``(source, result shape)``."""
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(_LEAVES)
    kind = rng.choice(("ew", "ew", "dot", "transpose", "sum"))
    if kind == "ew":
        left, lshape = gen_expr(rng, depth - 1)
        # The right operand either matches the left's shape or broadcasts
        # from a scalar (the only broadcast the IR guarantees).
        if rng.random() < 0.3 or lshape == SCALAR:
            right, rshape = gen_expr(rng, depth - 1)
            if rshape != lshape and SCALAR not in (lshape, rshape):
                right, rshape = rng.choice([l for l in _LEAVES if l[1] == SCALAR])
            shape = lshape if lshape != SCALAR else rshape
        else:
            right = rng.choice([l for l in _LEAVES if l[1] == SCALAR])[0]
            shape = lshape
        return f"({left} {rng.choice(_EW_OPS)} {right})", shape
    if kind == "dot":
        left, _ = gen_expr_of_shape(rng, MAT, depth - 1)
        if rng.random() < 0.5:
            right, _ = gen_expr_of_shape(rng, MAT, depth - 1)
            return f"np.dot({left}, {right})", MAT
        right, _ = gen_expr_of_shape(rng, VEC, depth - 1)
        return f"np.dot({left}, {right})", VEC
    if kind == "transpose":
        inner, _ = gen_expr_of_shape(rng, MAT, depth - 1)
        return f"np.transpose({inner})", MAT
    inner, ishape = gen_expr(rng, depth - 1)
    if ishape == SCALAR:
        inner, ishape = gen_expr_of_shape(rng, MAT, depth - 1)
    return f"np.sum({inner})", SCALAR


def gen_expr_of_shape(rng, shape, depth, attempts: int = 8):
    """Rejection-sample an expression of the requested shape."""
    for _ in range(attempts):
        src, got = gen_expr(rng, depth)
        if got == shape:
            return src, got
    leaf = rng.choice([l for l in _LEAVES if l[1] == shape])
    return leaf


def gen_program(seed: int) -> tuple[str, dict[str, tuple[int, ...]]]:
    """A random program plus the input shapes it actually uses."""
    rng = random.Random(seed)
    while True:
        src, _shape = gen_expr(rng, depth=3)
        used = {
            n: s for n, s in INPUT_SHAPES.items()
            if re.search(rf"\b{n}\b", src)
        }
        if used:  # constant-only programs have no inputs to verify against
            return src, used


def check_roundtrip(seed: int) -> None:
    """The differential property for one seed: optimized == input."""
    source, inputs = gen_program(seed)
    result = superoptimize_source(
        source, inputs, config=FUZZ_CONFIG, name=f"fuzz_{seed}", shrink=None
    )
    types = {n: float_tensor(*s) for n, s in inputs.items()}
    original = parse(source, types, name=f"fuzz_{seed}")

    rng = np.random.default_rng(seed)
    for _ in range(3):
        env = random_inputs(types, rng=rng)
        want = np.asarray(evaluate(original.node, env), dtype=float)
        got = np.asarray(evaluate(result.optimized, env), dtype=float)
        assert got.shape == want.shape, f"{source!r}: {got.shape} vs {want.shape}"
        assert np.allclose(got, want, rtol=1e-8, atol=1e-10), (
            f"semantic mismatch for {source!r} -> {result.optimized_source!r}"
        )
    assert equivalent(
        symbolic_execute(result.optimized), symbolic_execute(original.node)
    ), f"symbolic specs differ for {source!r} -> {result.optimized_source!r}"


def test_generator_is_deterministic_and_shape_correct():
    for seed in range(50):
        src1, inputs1 = gen_program(seed)
        src2, _ = gen_program(seed)
        assert src1 == src2  # same seed, same program
        types = {n: float_tensor(*s) for n, s in inputs1.items()}
        program = parse(src1, types)  # parses and type-checks
        env = random_inputs(types, rng=np.random.default_rng(seed))
        evaluate(program.node, env)  # and evaluates


@settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.integers(min_value=0, max_value=2**16))
def test_fuzz_quick(seed):
    check_roundtrip(seed)


@pytest.mark.slow
@pytest.mark.parametrize("block", range(8))
def test_fuzz_long_profile(block):
    # 8 x 25 = 200 generated programs, seeded and fully reproducible.
    for seed in range(block * 25, (block + 1) * 25):
        check_roundtrip(seed)
