"""Tests for the equality-saturation engine (e-graph, matching, extraction)."""

import numpy as np
import pytest

from repro.cost import FlopsCostModel
from repro.egraph import EGraph, UnionFind, extract_best, optimize_with_rules, saturate
from repro.errors import StensoError
from repro.ir import evaluate, float_tensor, parse, random_inputs
from repro.rules import (
    DIAG_IDENTITY,
    DISCOVERED_RULES,
    DIV_SQRT,
    POW2_TO_MUL,
    POW_NEG1_TO_DIV,
    TRACE_DOT_IDENTITY,
    MinedRule,
    mine_rule,
)

TYPES = {"A": float_tensor(4, 4), "B": float_tensor(4, 4), "x": float_tensor(4)}


def node_of(source, types=None):
    return parse(source, types or TYPES).node


class TestUnionFind:
    def test_basic(self):
        uf = UnionFind()
        a, b, c = uf.make_set(), uf.make_set(), uf.make_set()
        assert not uf.same(a, b)
        uf.union(a, b)
        assert uf.same(a, b) and not uf.same(a, c)
        uf.union(b, c)
        assert uf.same(a, c)

    def test_canonical_is_smallest(self):
        uf = UnionFind()
        a, b = uf.make_set(), uf.make_set()
        assert uf.union(b, a) == a


class TestEGraph:
    def test_hash_consing(self):
        eg = EGraph()
        id1 = eg.add_term(node_of("A + B"))
        id2 = eg.add_term(node_of("A + B"))
        assert id1 == id2
        assert eg.num_classes == 3  # A, B, A+B

    def test_types_tracked(self):
        eg = EGraph()
        cid = eg.add_term(node_of("np.sum(A, axis=0)"))
        assert eg.type_of(cid) == float_tensor(4)

    def test_merge_and_congruence(self):
        eg = EGraph()
        # If A == B then A + x == B + x by congruence after rebuild.
        a = eg.add_term(node_of("A"))
        b = eg.add_term(node_of("B"))
        ax = eg.add_term(node_of("A + x"))
        bx = eg.add_term(node_of("B + x"))
        assert eg.find(ax) != eg.find(bx)
        eg.merge(a, b)
        eg.rebuild()
        assert eg.find(ax) == eg.find(bx)

    def test_type_unsafe_merge_rejected(self):
        eg = EGraph()
        mat = eg.add_term(node_of("A"))
        vec = eg.add_term(node_of("x"))
        with pytest.raises(StensoError):
            eg.merge(mat, vec)

    def test_contains_term(self):
        eg = EGraph()
        root = eg.add_term(node_of("A * B"))
        assert eg.contains_term(node_of("A * B"), root)
        assert not eg.contains_term(node_of("A + B"))


class TestSaturation:
    def test_rule_adds_equivalent_form(self):
        eg = EGraph()
        root = eg.add_term(node_of("np.diag(np.dot(A, B))"))
        stats = saturate(eg, [DIAG_IDENTITY])
        assert stats.matches >= 1 and stats.merges >= 1
        assert eg.contains_term(node_of("np.sum(A * np.transpose(B), axis=1)"), root)

    def test_saturation_reaches_fixed_point(self):
        eg = EGraph()
        eg.add_term(node_of("(A + B) / np.sqrt(A + B)"))
        stats = saturate(eg, [DIV_SQRT])
        assert stats.saturated

    def test_repeated_metavariable_constraint(self):
        eg = EGraph()
        root = eg.add_term(node_of("A / np.sqrt(B)"))  # X / sqrt(Y), X != Y
        stats = saturate(eg, [DIV_SQRT])
        assert stats.merges == 0

    def test_rules_compose_transitively(self):
        # exp(log(X)) => X together with X/sqrt(X) => sqrt(X).
        exp_log = mine_rule(node_of("np.exp(np.log(A))"), node_of("A"), "exp-log")
        eg = EGraph()
        root = eg.add_term(node_of("np.exp(np.log(A)) / np.sqrt(A)"))
        saturate(eg, [exp_log, DIV_SQRT])
        assert eg.contains_term(node_of("np.sqrt(A)"), root)

    def test_node_budget_respected(self):
        grow = MinedRule(  # X -> X + 0.0 grows forever without a budget
            name="grow",
            lhs=node_of("A"),
            rhs=parse("A + 0", TYPES).node,
        )
        eg = EGraph()
        eg.add_term(node_of("A + B"))
        stats = saturate(eg, [grow], max_iterations=50, max_nodes=200)
        assert stats.nodes <= 220  # budget plus the last batch


class TestRuleMatching:
    """Saturation is the only rule matcher: each catalog rule fires at shapes
    other than its 3x3 / (3,) prototypes (4x4 and (4,) here)."""

    @pytest.mark.parametrize(
        "rule, source, rewritten",
        [
            pytest.param(*case, id=case[0].name)
            for case in (
                (DIAG_IDENTITY, "np.diag(np.dot(A, B))", "np.sum(A * np.transpose(B), axis=1)"),
                (DIV_SQRT, "(A + B) / np.sqrt(A + B)", "np.sqrt(A + B)"),
                (POW2_TO_MUL, "np.power(x, 2)", "x * x"),
                (POW_NEG1_TO_DIV, "np.power(A, -1)", "1 / A"),
                (TRACE_DOT_IDENTITY, "np.trace(np.dot(A, np.transpose(B)))", "np.sum(A * B)"),
            )
        ],
    )
    def test_rhs_joins_lhs_class(self, rule, source, rewritten):
        eg = EGraph()
        root = eg.add_term(node_of(source))
        saturate(eg, [rule])
        assert eg.contains_term(node_of(rewritten), root)

    @pytest.mark.parametrize(
        "source, rewritten",
        [
            ("A + A", "2 * A"),
            ("(A * B) + (A * B)", "2 * (A * B)"),
            ("A + B", None),
        ],
        ids=["same-input", "equal-subtrees", "distinct"],
    )
    def test_repeated_metavariable_binds_equal_subtrees(self, source, rewritten):
        double = mine_rule(node_of("A + A"), node_of("2 * A"), "double")
        eg = EGraph()
        root = eg.add_term(node_of(source))
        stats = saturate(eg, [double])
        if rewritten is None:
            assert stats.matches == 0
        else:
            assert eg.contains_term(node_of(rewritten), root)


class TestExtraction:
    def test_extracts_cheaper_form(self):
        model = FlopsCostModel(dim_map={4: 256})
        best, stats = optimize_with_rules(
            node_of("np.diag(np.dot(A, B))"), [DIAG_IDENTITY], model
        )
        assert "diag" not in repr(best)
        assert "sum" in repr(best)

    def test_extraction_preserves_semantics(self):
        model = FlopsCostModel(dim_map={4: 256})
        original = node_of("np.diag(np.dot(A, B))")
        best, _ = optimize_with_rules(original, list(DISCOVERED_RULES), model)
        env = random_inputs({i.name: i.type for i in original.inputs()})
        assert np.allclose(
            np.asarray(evaluate(best, env), float),
            np.asarray(evaluate(original, env), float),
        )

    def test_no_applicable_rules_returns_original_cost(self):
        model = FlopsCostModel()
        original = node_of("A + B")
        best, stats = optimize_with_rules(original, [DIAG_IDENTITY], model)
        assert best == original
        assert stats.merges == 0

    def test_extract_best_direct(self):
        eg = EGraph()
        root = eg.add_term(node_of("np.power(A, 6) / np.power(A, 4)"))
        pow_rule = mine_rule(
            node_of("np.power(A, 6) / np.power(A, 4)"), node_of("A * A"), "pow-div"
        )
        saturate(eg, [pow_rule])
        extraction = extract_best(eg, root, FlopsCostModel())
        assert extraction.node == node_of("A * A")
        assert extraction.cost < FlopsCostModel().program_cost(
            node_of("np.power(A, 6) / np.power(A, 4)")
        )


class TestStensoComplementarity:
    def test_mined_rules_transfer_to_new_program(self):
        """Discover once with STENSO-mined rules, deploy on fresh programs of
        different sizes — the Related Work hand-off, end to end."""
        model = FlopsCostModel(dim_map={6: 300, 9: 500})
        types = {"P": float_tensor(6, 9), "Q": float_tensor(9, 6)}
        program = node_of("np.diag(np.dot(P, Q))", types)
        best, _ = optimize_with_rules(program, list(DISCOVERED_RULES), model)
        assert "diag" not in repr(best)
        env = random_inputs({i.name: i.type for i in program.inputs()})
        assert np.allclose(
            np.asarray(evaluate(best, env), float),
            np.asarray(evaluate(program, env), float),
        )
