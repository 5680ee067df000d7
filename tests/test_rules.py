"""Tests for rewrite-rule mining and the discovered-rule catalog.

Rules are matched only by equality saturation; the per-rule matching cases
live in ``tests/test_egraph.py`` (``TestRuleMatching``).
"""

import dataclasses

import numpy as np
import pytest

from repro.backends import XLASimBackend
from repro.cost import FlopsCostModel
from repro.egraph import EGraph, optimize_with_rules, saturate
from repro.ir import evaluate, float_tensor, parse, random_inputs
from repro.ir.printer import to_expression
from repro.rules import DISCOVERED_RULES, mine_rule

TYPES = {"A": float_tensor(4, 4), "B": float_tensor(4, 4), "x": float_tensor(4)}


def node_of(source, types=None):
    return parse(source, types or TYPES).node


class TestMining:
    def test_mine_generalizes_names(self):
        rule = mine_rule(node_of("np.exp(np.log(A + B))"), node_of("A + B"), "exp-log")
        assert [i.name for i in rule.lhs.inputs()] == ["X", "Y"]
        assert "X" in str(rule) and "=>" in str(rule)

    def test_mined_rule_matches_other_inputs(self):
        rule = mine_rule(node_of("np.exp(np.log(A + B))"), node_of("A + B"), "exp-log")
        egraph = EGraph()
        root = egraph.add_term(node_of("np.exp(np.log(B + x))"))  # other names & shapes
        saturate(egraph, [rule])
        assert egraph.contains_term(node_of("B + x"), root)

    def test_mining_rejects_new_inputs(self):
        with pytest.raises(ValueError):
            mine_rule(node_of("A + A"), node_of("A + B"), "bad")


class TestCatalog:
    @pytest.mark.parametrize("rule", DISCOVERED_RULES, ids=lambda r: r.name)
    def test_rules_are_semantics_preserving(self, rule):
        """Apply each catalog rule to its own lhs and check numerically."""
        bindings = {i.name: i for i in rule.lhs.inputs()}
        types = {name: node.type for name, node in bindings.items()}
        env = random_inputs(types, rng=np.random.default_rng(17))
        lhs_val = np.asarray(evaluate(rule.lhs, env), dtype=float)
        rhs_val = np.asarray(evaluate(rule.rhs, env), dtype=float)
        assert np.allclose(lhs_val, rhs_val)


class TestCompilerIntegration:
    def test_extending_xla_with_mined_rule(self):
        """The paper's complementarity claim, mechanically: an e-graph pass
        with the mined rule in front of the stock XLA simulation."""
        rule = mine_rule(
            node_of("np.diag(np.dot(A, B))"),
            node_of("np.sum(A * np.transpose(B), axis=1)"),
            "diag-mined",
        )
        backend = XLASimBackend()
        program = parse(
            "np.diag(np.dot(A, B))",
            {"A": float_tensor(16, 8), "B": float_tensor(8, 16)},
        )
        rewritten, _ = optimize_with_rules(program.node, [rule], FlopsCostModel())
        assert "diag" not in to_expression(backend.optimize(rewritten))
        env = random_inputs(program.input_types)
        assert np.allclose(
            backend.run(dataclasses.replace(program, node=rewritten), env),
            np.diag(env["A"] @ env["B"]),
        )
