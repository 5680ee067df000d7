"""Rewrite-rule mining from synthesis results (paper Section VII-D).

STENSO discovers *programs*, but the optimizations it finds generalize: the
paper expresses several of them as rewrite rules that "could be added to
compilers".  :func:`mine_rule` turns one (original, optimized) program pair
into a :class:`MinedRule` — the pair with inputs renamed to canonical
metavariables.  Rules are only ever matched by equality saturation
(:func:`repro.egraph.saturate`): a metavariable binds any e-class of its
dtype, so a rule mined at one shape applies at others.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.ir.nodes import Node, rename_inputs
from repro.ir.printer import to_expression

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
