"""Equality saturation over the tensor IR (Related Work, Section VIII).

STENSO discovers rewrites from first principles; e-graph optimizers apply
known rules exhaustively.  This package implements the latter so the two can
be composed: mine rules from STENSO results (:mod:`repro.rules`), saturate,
and extract by cost.

Convenience entry point::

    from repro.egraph import optimize_with_rules

    best, stats = optimize_with_rules(program.node, DISCOVERED_RULES, cost_model)
"""

from repro.egraph.egraph import EGraph, ENode
from repro.egraph.extract import Extraction, extract_best
from repro.egraph.saturate import SaturationStats, saturate
from repro.egraph.unionfind import UnionFind


def optimize_with_rules(node, rules, cost_model, max_iterations: int = 8):
    """Saturate ``node``'s e-graph with ``rules`` and extract the cheapest
    equivalent program.  Returns (best IR node, SaturationStats).

    ``rules`` are applied as given: gating them is the caller's job (the
    :class:`repro.pipeline.ModuleOptimizer` admits each mined rule once,
    through its auditor, before it joins the rule cache).
    """
    egraph = EGraph()
    root = egraph.add_term(node)
    stats = saturate(egraph, rules, max_iterations=max_iterations)
    extraction = extract_best(egraph, root, cost_model)
    return extraction.node, stats


__all__ = [
    "EGraph",
    "ENode",
    "Extraction",
    "SaturationStats",
    "UnionFind",
    "extract_best",
    "optimize_with_rules",
    "saturate",
]
