"""Human-readable optimization reports.

Produces per-program reports for synthesis results: the before/after
programs, a per-op cost breakdown under the active cost model, the inferred
transformation class, and the rewrite rule mined from the pair.  Used by the
CLI's ``--report`` flag and the examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.bench.classify import classify
from repro.cost.base import CostModel
from repro.ir.nodes import Call, Node
from repro.ir.printer import to_expression
from repro.synth.superoptimizer import SynthesisResult


@dataclass(frozen=True)
class OpCostLine:
    """One row of a cost breakdown."""

    expression: str
    op: str
    cost: float
    share: float  # fraction of total


def cost_breakdown(node: Node, cost_model: CostModel) -> list[OpCostLine]:
    """Per-op-application costs of a program, most expensive first."""
    rows: list[tuple[str, str, float]] = []
    total = 0.0
    for n in node.walk():
        if isinstance(n, Call):
            cost = cost_model.call_cost(n)
            total += cost
            expression = to_expression(n)
            if len(expression) > 48:
                expression = expression[:45] + "..."
            rows.append((expression, n.op, cost))
    rows.sort(key=lambda r: -r[2])
    return [
        OpCostLine(expression, op, cost, cost / total if total else 0.0)
        for expression, op, cost in rows
    ]


def render_report(result: SynthesisResult, cost_model: CostModel) -> str:
    """A complete report for one synthesis result."""
    program = result.program
    lines: list[str] = []
    w = lines.append
    w(f"=== STENSO report: {program.name} ===")
    w(f"original : {to_expression(program.node)}")
    if result.improved:
        w(f"optimized: {to_expression(result.optimized)}")
        label = classify(program.node, result.optimized)
        w(f"class    : {label or 'unchanged'}")
    else:
        w("optimized: (no cheaper equivalent found — program unchanged)")
    w(
        f"cost     : {result.original_cost:,.4g} -> {result.optimized_cost:,.4g} "
        f"({result.speedup_estimate:.2f}x estimated, model: {cost_model.name})"
    )
    # A positive ``cut`` means the last level dropped what is not in the
    # spec's class or could not beat its champion: the search ended at the
    # root's MATCH, and the stub count is the cut library's, not the whole
    # depth-bounded one.
    cut = result.stats.metrics.count("enum.goal_cut")
    stubs = f"{result.stats.stub_count} stubs" + (f" (cut={cut}: cut to the spec's class)" if cut else "")
    w(
        f"search   : {result.synthesis_seconds:.2f}s, "
        f"{result.stats.nodes_expanded} nodes, "
        f"{result.stats.solver_calls} solver calls, "
        f"{stubs} / {result.stats.sketch_count} sketches derived"
    )
    w(f"stages   : {result.stats.profile_summary()}")
    w(
        f"pruning  : {result.stats.pruned_bound} bound, "
        f"{result.stats.pruned_simplification} simplification, "
        f"{result.stats.base_case_matches} base-case matches"
    )
    w("")
    w("original cost breakdown:")
    for row in cost_breakdown(program.node, cost_model):
        w(f"  {row.share:>6.1%}  {row.cost:>12,.4g}  {row.expression}")
    if result.improved:
        w("optimized cost breakdown:")
        for row in cost_breakdown(result.optimized, cost_model):
            w(f"  {row.share:>6.1%}  {row.cost:>12,.4g}  {row.expression}")
        rule = try_mine_rule(result)
        if rule is not None:
            w("")
            w(f"mined rewrite rule: {rule}")
    return "\n".join(lines)


def try_mine_rule(result: SynthesisResult):
    """Mine the (original, optimized) pair into a rule, when possible."""
    if not result.improved:
        return None
    from repro.rules import mine_rule

    try:
        return mine_rule(result.program.node, result.optimized, name=result.program.name)
    except ValueError:
        return None
