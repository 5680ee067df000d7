"""Rule-based IR rewriting — the substrate of the simulated compilers.

Conventional tensor compilers (XLA behind JAX, Inductor behind PyTorch 2)
apply a *fixed* set of pattern-matching rewrite rules plus operator fusion.
This module provides the rule engine both simulated backends are built on:
a rule is a function from a :class:`Call` to a replacement node (or None),
and a :class:`RewritePass` applies a rule set bottom-up to a fixed point.

It holds only the compilers' own hand-written rules.  The rules STENSO
discovers (paper Section VII-D, :mod:`repro.rules`) are matched by equality
saturation instead (:mod:`repro.egraph`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.ir.nodes import Call, Const, Node

Rule = Callable[[Call], Node | None]


@dataclass(frozen=True)
class NamedRule:
    """A rewrite rule with a name (for pass statistics)."""

    name: str
    apply: Rule


def named_rule(name: str):
    """Decorator attaching a name to a rule function."""

    def deco(fn: Rule) -> NamedRule:
        return NamedRule(name, fn)

    return deco


class RewritePass:
    """Applies a rule list bottom-up until no rule fires (fixed point)."""

    def __init__(self, rules: Sequence[NamedRule], max_iterations: int = 16) -> None:
        self.rules = list(rules)
        self.max_iterations = max_iterations
        self.fired: dict[str, int] = {}

    def run(self, node: Node) -> Node:
        self.fired = {}
        for _ in range(self.max_iterations):
            rewritten = self._rewrite_once(node)
            if rewritten == node:
                return node
            node = rewritten
        return node

    def _rewrite_once(self, node: Node) -> Node:
        cache: dict[Node, Node] = {}

        def go(n: Node) -> Node:
            hit = cache.get(n)
            if hit is not None:
                return hit
            out = n
            if isinstance(n, Call):
                new_args = tuple(go(a) for a in n.args)
                if new_args != n.args:
                    out = Call(n.op, new_args, **dict(n.attrs))
                for rule in self.rules:
                    if isinstance(out, Call):
                        replacement = rule.apply(out)
                        if replacement is not None:
                            self.fired[rule.name] = self.fired.get(rule.name, 0) + 1
                            out = replacement
            cache[n] = out
            return out

        return go(node)


# ---------------------------------------------------------------------------
# Pattern helpers shared by rule definitions
# ---------------------------------------------------------------------------


def const_value(node: Node) -> float | None:
    if isinstance(node, Const) and node.is_scalar:
        return float(node.value)
    return None


def all_const(nodes: Sequence[Node]) -> bool:
    return all(isinstance(n, Const) for n in nodes)


@named_rule("constant-fold")
def constant_fold(node: Call) -> Node | None:
    """Evaluate ops whose operands are all constants."""
    if not all_const(node.args):
        return None
    from repro.ir.evaluator import evaluate

    try:
        with np.errstate(all="ignore"):
            value = np.asarray(evaluate(node, {}))
    except Exception:
        return None
    if value.dtype != np.bool_ and not np.all(np.isfinite(value.astype(float))):
        return None
    return Const(value, node.type)
