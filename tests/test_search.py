"""Tests for Algorithm 2: DFS with simplification pruning + branch & bound."""

import pytest

from repro.cost import FlopsCostModel
from repro.errors import SynthesisTimeout
from repro.ir import float_tensor, parse
from repro.ir.nodes import Const
from repro.symexec import canonical, symbolic_execute
from repro.synth import SynthesisConfig, build_library
from repro.synth import search as search_module
from repro.synth.complexity import spec_complexity
from repro.synth.search import SearchContext, dfs

TYPES = {"A": float_tensor(2, 2), "B": float_tensor(2, 2), "a": float_tensor()}


def run_search(source, types=None, config=None, cost_model=None):
    types = types or TYPES
    config = config or SynthesisConfig()
    cost_model = cost_model or FlopsCostModel()
    program = parse(source, types)
    library = build_library(program, config, cost_model)
    spec = symbolic_execute(program.node).map(canonical)
    ctx = SearchContext(library, cost_model, config, cost_model.program_cost(program.node))
    result, cost = dfs(spec, spec_complexity(spec, config.complexity_mode), 0, 0.0, ctx)
    return result, cost, ctx


class TestBaseCase:
    def test_terminal_match(self):
        result, cost, ctx = run_search("np.transpose(np.transpose(A))")
        assert repr(result) == "Input(A: float[2x2])"
        assert cost == 0.0
        assert ctx.stats.base_case_matches == 1

    def test_stub_match(self):
        result, cost, _ = run_search("np.exp(np.log(A + B))")
        assert result == parse("A + B", TYPES).node

    def test_match_refutes_a_stub_by_its_ir_inputs(self):
        """MATCH's slow scan skips, unexecuted, a stub whose IR does not read
        every input the spec mentions; one whose IR reads more may still
        match, since an input can cancel out."""
        from repro.synth.enumerator import StubEntry

        _, _, ctx = run_search("np.transpose(np.transpose(A))")
        sources = ("B", "A + B", "(A + B) - B", "A")
        stubs = [StubEntry(parse(source, TYPES).node) for source in sources]
        before = ctx.stats.metrics.count("search.match_input_refuted")
        kept = list(ctx.same_inputs(stubs, frozenset({"A"})))
        assert [e.node for e in kept] == [stubs[2].node, stubs[3].node]
        assert stubs[0]._tensor is None  # refuted without symbolic execution
        assert ctx.stats.metrics.count("search.match_input_refuted") - before == 1

    def test_constant_spec(self):
        result, cost, _ = run_search("(A - A) + 2")
        assert isinstance(result, Const)
        assert float(result.value) == 2.0
        assert cost == 0.0


class TestRecursion:
    def test_two_level_decomposition(self):
        types = {"A": float_tensor(2, 3), "B": float_tensor(3, 2), "C": float_tensor(2, 3)}
        result, cost, ctx = run_search("np.dot(A * C, B)", types)
        assert result is not None
        assert cost <= FlopsCostModel().program_cost(parse("np.dot(A * C, B)", types).node)

    def test_reduction_then_stub(self):
        types = {"A": float_tensor(2, 3), "B": float_tensor(3, 2)}
        result, _, _ = run_search("np.diag(np.dot(A, B))", types)
        assert result is not None
        assert result.type == float_tensor(2)


class TestPruning:
    #: A kernel whose search recurses: both prunes act on it.  The on/off
    #: comparison of branch-and-bound is the `branch-and-bound` row of
    #: tests/refuters.py (with the bound off this kernel runs for minutes).
    PRUNED = ("np.diag(np.dot(A, B))", {"A": float_tensor(2, 3), "B": float_tensor(3, 2)})

    def test_simplification_counter_moves(self):
        _, _, ctx = run_search(*self.PRUNED)
        assert ctx.stats.pruned_simplification > 0

    def test_branch_and_bound_prunes(self):
        _, _, ctx = run_search(*self.PRUNED)
        assert ctx.stats.pruned_bound > 0
        assert ctx.stats.solver_calls > 0

    def test_results_agree_with_and_without_bnb(self):
        r_on, c_on, _ = run_search("np.exp(np.log(A) - np.log(B))")
        r_off, c_off, _ = run_search(
            "np.exp(np.log(A) - np.log(B))",
            config=SynthesisConfig(use_branch_and_bound=False),
        )
        assert r_on == r_off

    def test_recursion_depth_limit(self, monkeypatch):
        monkeypatch.setattr(search_module, "MAX_RECURSION_DEPTH", 0)
        result, cost, _ = run_search("np.dot(A * B, B) + A")
        # Depth 0 means only base-case matches; the compound spec fails.
        assert result is None or result.depth <= 2


class TestMemoization:
    def test_memo_hits_on_repeated_spec(self):
        # The search reaches one spec along more than one decomposition path.
        _, _, ctx = run_search("np.diag(np.dot(A, B))", {"A": float_tensor(2, 3), "B": float_tensor(3, 2)})
        assert ctx.stats.memo_hits > 0

    def test_memo_keeps_only_bound_free_answers(self):
        """A recursive answer depends on the prefix cost through the bound,
        which the memo key omits; only constant and MATCH answers are kept."""
        types = {"A": float_tensor(2, 3), "B": float_tensor(3, 2)}
        _, _, ctx = run_search("np.diag(np.dot(A, B))", types)
        assert ctx.stats.nodes_expanded > 1  # it recursed
        stubs = {entry.node for entry in ctx.library.stubs}
        assert ctx.memo
        assert all(isinstance(node, Const) or node in stubs for node, _ in ctx.memo.values())

    def test_memo_can_be_disabled(self):
        _, _, ctx = run_search("A + B", config=SynthesisConfig(memoize=False))
        assert ctx.stats.memo_hits == 0


class TestTimeout:
    def test_timeout_raises(self):
        cfg = SynthesisConfig(timeout_seconds=0.0)
        program = parse("np.dot(A * B, B)", TYPES)
        cost_model = FlopsCostModel()
        library = build_library(program, SynthesisConfig(), cost_model)
        spec = symbolic_execute(program.node).map(canonical)
        ctx = SearchContext(library, cost_model, cfg, 1e9)
        with pytest.raises(SynthesisTimeout):
            dfs(spec, spec_complexity(spec), 0, 0.0, ctx)
        assert ctx.stats.timed_out
