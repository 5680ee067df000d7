"""Linearized (SSA-style) code generation for compiled-backend execution.

The simulated compilers execute programs as a deduplicated DAG: every
distinct subexpression is computed exactly once into a temporary, mirroring
the common-subexpression elimination and buffer reuse a real graph compiler
performs.  Codegen emits a Python function of the form::

    def _compiled(A, B):
        t0 = np.multiply(A, B)
        t1 = np.add(t0, t0)
        return t1
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.ir.nodes import Call, Const, Input, Node
from repro.ir.printer import _format_const, spell


def generate_source(node: Node, input_names: list[str], fn_name: str = "_compiled") -> str:
    """Emit a linearized function computing ``node`` over the named inputs."""
    names: dict[Node, str] = {}
    lines: list[str] = []
    counter = 0

    def go(n: Node) -> str:
        nonlocal counter
        hit = names.get(n)
        if hit is not None:
            return hit
        if isinstance(n, Input):
            name = n.name
        elif isinstance(n, Const):
            name = _format_const(n)
        else:
            assert isinstance(n, Call)
            operands = [go(a) for a in n.args]
            name = f"t{counter}"
            counter += 1
            lines.append(f"    {name} = {spell(n, operands, infix=False)}")
        names[n] = name
        return name

    result = go(node)
    header = f"def {fn_name}({', '.join(input_names)}):"
    if not lines:
        lines.append(f"    t0 = np.asarray({result})")
        result = "t0"
    return "\n".join([header, *lines, f"    return {result}", ""])


def compile_dag(node: Node, input_names: list[str]) -> Callable[..., np.ndarray]:
    """Compile a DAG into an executable Python function."""
    source = generate_source(node, input_names)
    namespace: dict = {"np": np}
    exec(source, namespace)  # noqa: S102 - code we generated ourselves
    return namespace["_compiled"]
