"""Tests for the optimization-report renderer."""

import pytest

from repro.cost import FlopsCostModel
from repro.ir import float_tensor, parse
from repro.report import cost_breakdown, render_report, try_mine_rule
from repro.synth import SynthesisConfig, superoptimize_program

TYPES = {"A": float_tensor(2, 3), "B": float_tensor(3, 2)}


@pytest.fixture(scope="module")
def improved_result():
    model = FlopsCostModel(dim_map={2: 256, 3: 384})
    return superoptimize_program(
        parse("np.diag(np.dot(A, B))", TYPES, name="diag_dot"),
        cost_model=model,
        config=SynthesisConfig(timeout_seconds=120),
    ), model


@pytest.fixture(scope="module")
def unchanged_result():
    model = FlopsCostModel()
    return superoptimize_program(
        parse("np.dot(A, B)", TYPES, name="plain"),
        cost_model=model,
        config=SynthesisConfig(timeout_seconds=60),
    ), model


class TestCostBreakdown:
    def test_sorted_and_normalized(self):
        model = FlopsCostModel(dim_map={2: 256, 3: 384})
        node = parse("np.diag(np.dot(A, B))", TYPES).node
        rows = cost_breakdown(node, model)
        assert [r.op for r in rows][0] == "dot"  # matmul dominates
        assert sum(r.share for r in rows) == pytest.approx(1.0)
        assert all(rows[i].cost >= rows[i + 1].cost for i in range(len(rows) - 1))

    def test_long_expressions_truncated(self):
        model = FlopsCostModel()
        node = parse("((A + A) + (A + A)) * ((A + A) + (A + A)) + A", TYPES).node
        rows = cost_breakdown(node, model)
        assert all(len(r.expression) <= 48 for r in rows)


class TestRenderReport:
    def test_improved_report_sections(self, improved_result):
        result, model = improved_result
        text = render_report(result, model)
        assert "original :" in text
        assert "optimized:" in text
        assert "class    : Identity Replacement" in text
        assert "mined rewrite rule" in text
        assert "cost breakdown" in text

    def test_unchanged_report(self, unchanged_result):
        result, model = unchanged_result
        text = render_report(result, model)
        assert "no cheaper equivalent" in text
        assert "optimized cost breakdown" not in text

    def test_mined_rule_generalizes(self, improved_result):
        result, _ = improved_result
        rule = try_mine_rule(result)
        assert rule is not None
        assert {i.name for i in rule.lhs.inputs()} == {"X", "Y"}
