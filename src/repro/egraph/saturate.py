"""Equality saturation: applying mined rewrite rules to an e-graph.

Rules are :class:`repro.rules.MinedRule` values — exactly what
:func:`repro.rules.mine_rule` extracts from STENSO's synthesis results — so
the paper's pipeline "discover with STENSO, deploy via equality saturation"
runs end to end in this package.  This is the only code that matches a mined
rule; the simulated compilers' :class:`~repro.backends.rewriter.RewritePass`
runs their own hand-written rules only.

E-matching is structural: a pattern :class:`Input` (metavariable) binds an
e-class id of the same dtype; repeated metavariables must bind the same
class.  Each iteration matches all rules against all classes, instantiates
the right-hand sides, merges, and rebuilds; saturation stops at a fixed
point or when the node/iteration budget is hit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.egraph.egraph import EGraph, ENode
from repro.ir.nodes import Call, Const, Input, Node
from repro.rules.mining import MinedRule

Bindings = dict[str, int]


@dataclass
class SaturationStats:
    iterations: int = 0
    matches: int = 0
    merges: int = 0
    saturated: bool = False
    nodes: int = 0
    classes: int = 0


def _match_pattern(
    egraph: EGraph, pattern: Node, cid: int, bindings: Bindings
) -> Iterator[Bindings]:
    """All ways to bind the pattern's metavariables inside class ``cid``."""
    cid = egraph.find(cid)
    if isinstance(pattern, Input):
        if pattern.type.dtype is not egraph.type_of(cid).dtype:
            return
        bound = bindings.get(pattern.name)
        if bound is not None:
            if egraph.find(bound) == cid:
                yield bindings
            return
        out = dict(bindings)
        out[pattern.name] = cid
        yield out
        return
    if isinstance(pattern, Const):
        for enode in egraph.nodes_of(cid):
            if enode.leaf is not None and enode.leaf == pattern:
                yield bindings
                return
        return
    assert isinstance(pattern, Call)
    for enode in list(egraph.nodes_of(cid)):
        if enode.op != pattern.op or enode.attrs != pattern.attrs:
            continue
        if len(enode.children) != len(pattern.args):
            continue

        def descend(i: int, current: Bindings) -> Iterator[Bindings]:
            if i == len(pattern.args):
                yield current
                return
            for nxt in _match_pattern(egraph, pattern.args[i], enode.children[i], current):
                yield from descend(i + 1, nxt)

        yield from descend(0, bindings)


def _instantiate(egraph: EGraph, template: Node, bindings: Bindings) -> int | None:
    """Add the rhs template under the bindings; returns its e-class id."""
    if isinstance(template, Input):
        return egraph.find(bindings[template.name])
    if isinstance(template, Const):
        return egraph.add_term(template)
    assert isinstance(template, Call)
    children = []
    for arg in template.args:
        child = _instantiate(egraph, arg, bindings)
        if child is None:
            return None
        children.append(child)
    # Infer the output type from the bound children's e-class types.
    from repro.ir.ops import get_op

    try:
        out_type = get_op(template.op).infer(
            [egraph.type_of(c) for c in children], dict(template.attrs)
        )
    except Exception:
        return None  # rank/shape-incompatible at this binding: skip
    return egraph.add_enode(ENode(template.op, tuple(children), template.attrs), out_type)


def saturate(
    egraph: EGraph,
    rules: Sequence[MinedRule],
    max_iterations: int = 8,
    max_nodes: int = 10_000,
) -> SaturationStats:
    """Run equality saturation to a fixed point or budget exhaustion."""
    from repro.obs.trace import get_tracer

    tracer = get_tracer()
    sat_span = (
        tracer.begin("saturate", "egraph", rules=len(rules)) if tracer.enabled else None
    )
    stats = SaturationStats()
    for _ in range(max_iterations):
        stats.iterations += 1
        planned: list[tuple[MinedRule, Bindings, int]] = []
        for cid, _nodes in list(egraph.classes()):
            for rule in rules:
                for bindings in _match_pattern(egraph, rule.lhs, cid, {}):
                    planned.append((rule, bindings, cid))
        stats.matches += len(planned)
        changed = False
        for rule, bindings, cid in planned:
            if egraph.num_nodes >= max_nodes:
                break
            rhs_id = _instantiate(egraph, rule.rhs, bindings)
            if rhs_id is None:
                continue
            if egraph.find(rhs_id) != egraph.find(cid):
                if egraph.type_of(rhs_id) != egraph.type_of(cid):
                    continue  # shape-polymorphic rule bound incompatibly
                egraph.merge(rhs_id, cid)
                stats.merges += 1
                changed = True
        egraph.rebuild()
        if not changed:
            stats.saturated = True
            break
    stats.nodes = egraph.num_nodes
    stats.classes = egraph.num_classes
    if sat_span is not None:
        tracer.end(
            sat_span,
            iterations=stats.iterations,
            matches=stats.matches,
            merges=stats.merges,
            saturated=stats.saturated,
        )
    return stats
