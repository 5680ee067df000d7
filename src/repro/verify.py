"""The one equivalence check on concrete inputs, and the layers around it.

Every place that asks "does this candidate compute what the original
computes?" — the final check of synthesis, the mined-rule cache, the
re-check at the original shapes, restored outcomes and the timing harness —
calls :func:`verify_equivalence`, so they share one policy (every check
independent):

1. **numeric trials** — deterministic *adversarial* inputs (all-zeros,
   negatives, mixed signs, large magnitudes) followed by random positive
   draws, direct interpretation, one seed, one trial count, one tolerance.
   The adversarial battery catches rewrites that only hold on the
   random-draw domain (e.g. ``|A| -> A``, valid for positive inputs only);
   an adversarial input on which the *reference* itself is undefined
   (NaN/inf, domain error) is skipped, so rewrites like
   ``log(exp(A)) -> A`` are not spuriously rejected;
2. **symbolic equivalence** — SymPy specs of both programs compared;
3. **shape transport** — the candidate re-verified at *other* shape
   assignments, derived by consistently re-mapping every distinct dimension
   (dimension-coincidence rewrites, e.g. one valid only for square inputs,
   cannot survive a mapping that makes the dims differ).

A candidate that cannot be evaluated fails verification; it never raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.errors import StensoError
from repro.ir.evaluator import evaluate, random_inputs
from repro.ir.nodes import Call, Node
from repro.ir.parser import Program, parse
from repro.ir.printer import to_expression
from repro.ir.types import TensorType


@dataclass
class VerificationReport:
    """What was checked, and the verdict."""

    passed: bool
    symbolic_checked: bool = False
    shape_sets_checked: int = 0
    failure: str | None = None

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.passed


def _fail(reason: str, **kwargs) -> VerificationReport:
    return VerificationReport(passed=False, failure=reason, **kwargs)


def jitter_shapes(
    types: Mapping[str, TensorType], offsets: Sequence[int] = (1, 2)
) -> list[dict[str, TensorType]]:
    """Alternative shape assignments with all dimension identities preserved.

    Every distinct dimension value ``d > 1`` maps to ``d + offset`` — equal
    dims stay equal (so contractions still type-check), distinct dims stay
    distinct (so coincidence rewrites break).
    """
    out = []
    for offset in offsets:
        mapped = {
            name: t.with_shape(tuple(d + offset if d > 1 else d for d in t.shape))
            for name, t in types.items()
        }
        out.append(mapped)
    return out


def has_shape_attrs(node: Node) -> bool:
    """Whether ``node`` pins a shape literal (such a program cannot transport)."""
    return any(isinstance(n, Call) and n.attr("shape") is not None for n in node.walk())


#: Random positive draws after the adversarial battery, and their seed.
_TRIALS = 3
_SEED = 1729


def _fill(shape: tuple[int, ...], values: Sequence[float]) -> np.ndarray:
    """A deterministic array cycling through ``values`` in C order."""
    size = int(np.prod(shape)) if shape else 1
    flat = np.array([values[i % len(values)] for i in range(size)], dtype=float)
    return flat.reshape(shape) if shape else flat.reshape(())


#: Deterministic stress patterns: each is the value cycle of one input set.
_ADVERSARIAL_PATTERNS: tuple[tuple[str, tuple[float, ...]], ...] = (
    ("all-zeros", (0.0,)),
    ("negatives", (-2.0, -0.5, -1.0)),
    ("mixed-sign", (1.5, -2.5, 0.0, -0.25)),
    ("large-magnitude", (1e3, -1e3, 2.5e3, -0.5e3)),
)


def adversarial_inputs(
    types: Mapping[str, TensorType],
) -> list[tuple[str, dict[str, np.ndarray]]]:
    """Deterministic adversarial input sets for ``types``.

    Complements the random positive draws of :func:`random_inputs`:
    all-zeros, all-negative, mixed-sign, and large-magnitude values catch
    candidates that only agree with the reference on ``(0.5, 2.0)`` draws.
    Boolean tensors get deterministic all-False / all-True / alternating
    masks instead.
    """
    from repro.ir.types import DType

    out: list[tuple[str, dict[str, np.ndarray]]] = []
    for label, values in _ADVERSARIAL_PATTERNS:
        env: dict[str, np.ndarray] = {}
        for name, t in types.items():
            if t.dtype is DType.BOOL:
                bools = {"all-zeros": (0.0,), "negatives": (1.0,)}.get(
                    label, (1.0, 0.0)
                )
                env[name] = _fill(t.shape, bools) > 0.5
            else:
                env[name] = _fill(t.shape, values)
        out.append((label, env))
    return out


def _input_sets(types: Mapping[str, TensorType]):
    """The adversarial battery, then the positive random draws."""
    yield from adversarial_inputs(types)
    rng = np.random.default_rng(_SEED)
    for _ in range(_TRIALS):
        yield "random", random_inputs(types, rng=rng)


def _numeric_agree(
    reference: Node, candidate: Node, types: Mapping[str, TensorType], budget=None
) -> str | None:
    """The one concrete-input trial loop: None when ``candidate`` agrees with
    ``reference`` on every input set, else the reason it does not."""
    # Overflow/invalid warnings are *expected* here: the battery probes the
    # domain boundary, and non-finite reference outputs are skipped.
    with np.errstate(all="ignore"):
        for label, env in _input_sets(types):
            if budget is not None and budget.expired():
                return "verification budget exhausted"
            drawn = label == "random"
            try:
                want = np.asarray(evaluate(reference, env), dtype=float)
            except Exception as exc:
                if drawn:
                    return f"evaluation failed: {exc}"
                continue  # reference undefined on this input: out of domain
            if not drawn and not np.all(np.isfinite(want)):
                continue  # NaN/inf reference output: comparison is undefined
            try:
                got = np.asarray(evaluate(candidate, env), dtype=float)
            except Exception as exc:
                return f"candidate failed on {label} inputs: {exc}"
            if got.shape != want.shape:
                return f"shape mismatch on {label} inputs: {got.shape} vs {want.shape}"
            if not np.allclose(got, want, rtol=1e-8, atol=1e-10):
                return f"numeric mismatch on {label} inputs"
    return None


def verify_equivalence(
    reference: Program,
    candidate: Node,
    symbolic: bool = True,
    shape_transport: bool = True,
    budget=None,
) -> VerificationReport:
    """Check that ``candidate`` computes the same function as ``reference``.

    ``budget`` (a :class:`repro.resilience.Budget`) bounds the whole check:
    when it expires between trials or layers, the report *fails* with a
    "budget exhausted" reason — verification can be cut short, but a partial
    verification never reports success.
    """
    types = reference.input_types
    reason = _numeric_agree(reference.node, candidate, types, budget)
    if reason is not None:
        return _fail(reason)
    if budget is not None and budget.expired():
        return _fail("verification budget exhausted")

    symbolic_checked = False
    if symbolic:
        from repro.symexec import equivalent, symbolic_execute

        try:
            if not equivalent(symbolic_execute(candidate), symbolic_execute(reference.node)):
                return _fail("symbolic specs differ")
            symbolic_checked = True
        except StensoError as exc:
            return _fail(f"symbolic execution failed: {exc}")

    shape_sets = 0
    if shape_transport and reference.source and not has_shape_attrs(candidate):
        candidate_source = to_expression(candidate)
        for alt_types in jitter_shapes(types):
            try:
                alt_reference = parse(reference.source, alt_types, name=reference.name)
                alt_candidate = parse(candidate_source, alt_types).node
            except StensoError:
                continue  # shape-literal sources cannot transport; skip
            reason = _numeric_agree(alt_reference.node, alt_candidate, alt_types, budget)
            if reason is not None:
                return _fail(
                    f"failed at transported shapes: {reason}",
                    symbolic_checked=symbolic_checked,
                    shape_sets_checked=shape_sets,
                )
            shape_sets += 1

    return VerificationReport(
        passed=True, symbolic_checked=symbolic_checked, shape_sets_checked=shape_sets
    )
