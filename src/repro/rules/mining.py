"""Rewrite-rule mining from synthesis results (paper Section VII-D).

STENSO discovers *programs*, but the optimizations it finds generalize: the
paper expresses several of them as rewrite rules that "could be added to
compilers".  This module closes that loop:

* :func:`mine_rule` turns one (original, optimized) program pair into a
  :class:`MinedRule` — the pair with inputs renamed to canonical
  metavariables;
* :meth:`MinedRule.as_named_rule` compiles a mined rule into a pattern-
  matching :class:`~repro.backends.rewriter.NamedRule`, directly usable in
  the simulated compilers' pass pipelines (see ``examples/rule_mining.py``,
  which extends the XLA simulation with STENSO-discovered rules).

Pattern matching treats pattern :class:`Input` nodes as typed metavariables:
they bind any subtree of the same dtype (shapes may differ — the rules are
shape-polymorphic), with repeated metavariables required to bind equal
subtrees.  Constants and attributes must match exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.backends.rewriter import NamedRule
from repro.ir.nodes import Call, Const, Input, Node, rename_inputs
from repro.ir.printer import to_expression
from repro.ir.types import DType

_METAVARS = "XYZWVUTS"


@dataclass(frozen=True)
class MinedRule:
    """A rewrite rule ``lhs => rhs`` over metavariable inputs."""

    name: str
    lhs: Node
    rhs: Node

    @cached_property
    def _text(self) -> str:  # the rule's identity in the rule cache
        return f"{to_expression(self.lhs)}  =>  {to_expression(self.rhs)}"

    def __str__(self) -> str:
        return self._text

    @property
    def metavariables(self) -> list[str]:
        return [i.name for i in self.lhs.inputs()]

    def match(self, node: Node) -> dict[str, Node] | None:
        """Bind metavariables so that lhs[bindings] == node, or None."""
        bindings: dict[str, Node] = {}
        if _match(self.lhs, node, bindings):
            return bindings
        return None

    def apply(self, node: Node) -> Node | None:
        """Rewrite ``node`` by this rule at the root, or None if no match."""
        bindings = self.match(node)
        if bindings is None:
            return None
        try:
            return _instantiate(self.rhs, bindings)
        except Exception:
            return None  # rank/shape-incompatible instantiation

    def as_named_rule(self) -> NamedRule:
        """Adapt to the compiler-pass rule interface."""
        return NamedRule(self.name, lambda call: self.apply(call))


def _match(pattern: Node, node: Node, bindings: dict[str, Node]) -> bool:
    if isinstance(pattern, Input):
        if pattern.type.dtype is not node.type.dtype:
            return False
        bound = bindings.get(pattern.name)
        if bound is None:
            bindings[pattern.name] = node
            return True
        return bound == node
    if isinstance(pattern, Const):
        return isinstance(node, Const) and pattern == node or (
            isinstance(node, Const)
            and pattern.is_scalar
            and node.is_scalar
            and float(pattern.value) == float(node.value)
        )
    assert isinstance(pattern, Call)
    if not isinstance(node, Call) or node.op != pattern.op:
        return False
    if len(node.args) != len(pattern.args) or node.attrs != pattern.attrs:
        return False
    return all(_match(p, n, bindings) for p, n in zip(pattern.args, node.args))


def _instantiate(template: Node, bindings: dict[str, Node]) -> Node:
    if isinstance(template, Input):
        return bindings[template.name]
    if isinstance(template, Const):
        return template
    assert isinstance(template, Call)
    args = tuple(_instantiate(a, bindings) for a in template.args)
    return Call(template.op, args, **dict(template.attrs))


def mine_rule(original: Node, optimized: Node, name: str) -> MinedRule:
    """Generalize one synthesis result into a rewrite rule.

    Inputs are renamed to canonical metavariables (``X``, ``Y``, ...) in
    first-occurrence order of the original program; the optimized program
    must not reference inputs absent from the original.
    """
    inputs = [i.name for i in original.inputs()]
    if len(inputs) > len(_METAVARS):
        raise ValueError("too many inputs to generalize")
    mapping = {name_: _METAVARS[i] for i, name_ in enumerate(inputs)}
    extra = [i.name for i in optimized.inputs() if i.name not in mapping]
    if extra:
        raise ValueError(f"optimized program references unknown inputs: {extra}")
    return MinedRule(
        name=name,
        lhs=rename_inputs(original, mapping),
        rhs=rename_inputs(optimized, mapping),
    )
