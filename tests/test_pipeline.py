"""Tests for the batch optimization pipeline (rule-cache amortization)."""

import numpy as np
import pytest

from repro.cost import FlopsCostModel
from repro.pipeline import KernelSpec, ModuleOptimizer, ModuleResult
from repro.synth import SynthesisConfig

FAST = SynthesisConfig(timeout_seconds=90)


def optimizer():
    return ModuleOptimizer(cost_model=FlopsCostModel(), config=FAST)


class TestSingleKernel:
    def test_synthesis_path(self):
        opt = optimizer()
        outcome = opt.optimize_kernel(
            KernelSpec("k", "np.exp(np.log(A + B))", {"A": (3, 3), "B": (3, 3)})
        )
        assert outcome.improved and outcome.via == "synthesis"
        assert "(A + B)" in outcome.optimized_source
        assert outcome.speedup_estimate > 1.0
        assert len(opt.rules) == 1  # mined back into the cache

    def test_unchanged_kernel(self):
        opt = optimizer()
        outcome = opt.optimize_kernel(
            KernelSpec("k", "np.dot(A, B)", {"A": (3, 3), "B": (3, 3)})
        )
        assert not outcome.improved and outcome.via == "unchanged"
        assert outcome.optimized_source == outcome.original_source


class TestCostTieIsNotAnImprovement:
    def test_improves_needs_more_than_rounding_and_margin(self):
        class Noisy(FlopsCostModel):
            decision_margin = 0.04

        exact = FlopsCostModel()
        assert not exact.improves(40.002, 40.001999999999995)
        assert not exact.improves(40.001999999999995, 40.002)  # 7e-15 apart: a tie
        assert not exact.improves(40.002, 40.002)
        assert exact.improves(40.001, 40.002)  # one 0.001 op overhead is real
        # ... also against a large total (reshape_dot at timing shapes).
        assert exact.improves(12582912.001, 12582912.003)
        assert not exact.improves(0.0, 0.0)
        assert not Noisy().improves(39.0, 40.0) and Noisy().improves(38.0, 40.0)

    def test_repriced_tie_is_reported_unchanged(self, monkeypatch):
        # The search claims a win, but the program it hands back — printed,
        # re-parsed, priced by the model — costs what the original costs.
        from repro import pipeline
        from repro.ir.parser import parse
        from repro.ir.types import float_tensor
        from repro.synth.search import SearchStats
        from repro.synth.superoptimizer import SynthesisResult

        types = {"A": float_tensor(3, 3), "B": float_tensor(3, 3)}
        program = parse("A + B", types, name="k")
        swapped = parse("B + A", types, name="k").node

        def claims_a_win(source, inputs, **kwargs):
            cost = kwargs["cost_model"].program_cost(program.node)
            return SynthesisResult(
                program=program, optimized=swapped, improved=True,
                original_cost=cost, optimized_cost=cost - 7e-15, verified=True,
                stats=SearchStats(), synthesis_seconds=0.0,
            )

        monkeypatch.setattr(pipeline, "superoptimize_source", claims_a_win)
        opt = optimizer()
        outcome = opt.optimize_kernel(KernelSpec("k", "A + B", {"A": (3, 3), "B": (3, 3)}))
        assert not outcome.improved and outcome.via == "unchanged"
        assert outcome.optimized_source == outcome.original_source
        assert outcome.optimized_cost == outcome.original_cost
        assert opt.rules == []  # a tie teaches the rule cache nothing

    def test_max_stack_is_unchanged(self):
        # Flagged improved on a 7e-15 summation-order difference before
        # (original 40.001999999999995, "optimized" 40.002).
        outcome = optimizer().optimize_kernel(
            KernelSpec(
                "max_stack", "np.max(np.stack([A, B]), axis=0)", {"A": (4, 5), "B": (4, 5)}
            )
        )
        assert not outcome.improved and outcome.via == "unchanged"
        assert outcome.optimized_cost == outcome.original_cost


class TestRuleCacheAmortization:
    def test_second_kernel_hits_cache(self):
        """The Section VII-E story: the first kernel pays synthesis, a later
        kernel with the same pattern (different names/shapes) reuses the
        mined rule in milliseconds."""
        opt = optimizer()
        first = opt.optimize_kernel(
            KernelSpec("k1", "np.exp(np.log(A + B))", {"A": (3, 3), "B": (3, 3)})
        )
        second = opt.optimize_kernel(
            KernelSpec("k2", "np.exp(np.log(P + Q))", {"P": (5, 4), "Q": (5, 4)})
        )
        assert first.via == "synthesis"
        assert second.via == "rule-cache"
        assert second.improved
        assert "(P + Q)" in second.optimized_source
        assert second.synthesis_seconds == 0.0

    def test_preloaded_rules_skip_synthesis_entirely(self):
        from repro.rules import DIV_SQRT

        opt = ModuleOptimizer(cost_model=FlopsCostModel(), config=FAST, rules=[DIV_SQRT])
        outcome = opt.optimize_kernel(
            KernelSpec("k", "(A + B) / np.sqrt(A + B)", {"A": (4, 4), "B": (4, 4)})
        )
        assert outcome.via == "rule-cache"
        assert "np.sqrt" in outcome.optimized_source

    def test_cache_result_is_verified(self):
        """Rule-cache outputs go through the same numeric+symbolic check."""
        opt = optimizer()
        opt.optimize_kernel(
            KernelSpec("k1", "np.exp(np.log(A + B))", {"A": (3, 3), "B": (3, 3)})
        )
        outcome = opt.optimize_kernel(
            KernelSpec("k2", "np.exp(np.log(P + Q))", {"P": (4, 4), "Q": (4, 4)})
        )
        namespace = {"np": np}
        exec(outcome.optimized_source, namespace)
        p, q = np.random.rand(4, 4), np.random.rand(4, 4)
        assert np.allclose(namespace["k2"](p, q), np.exp(np.log(p + q)))


class TestModule:
    def test_module_source_importable(self, tmp_path):
        opt = optimizer()
        result = opt.optimize_module(
            [
                KernelSpec("first", "np.exp(np.log(A + B))", {"A": (3, 3), "B": (3, 3)}),
                KernelSpec("second", "np.transpose(np.transpose(A))", {"A": (3, 4)}),
            ]
        )
        module_file = tmp_path / "optimized.py"
        module_file.write_text(result.module_source())
        namespace: dict = {}
        exec(module_file.read_text(), namespace)
        a, b = np.random.rand(3, 3), np.random.rand(3, 3)
        assert np.allclose(namespace["first"](a, b), a + b)
        m = np.random.rand(3, 4)
        assert np.allclose(namespace["second"](m), m)

    def test_summary_counts(self):
        opt = optimizer()
        result = opt.optimize_module(
            [
                KernelSpec("k1", "np.exp(np.log(A + B))", {"A": (3, 3), "B": (3, 3)}),
                KernelSpec("k2", "np.exp(np.log(P + Q))", {"P": (4, 4), "Q": (4, 4)}),
                KernelSpec("k3", "np.dot(A, B)", {"A": (3, 3), "B": (3, 3)}),
            ]
        )
        assert result.synthesis_runs == 1
        assert result.cache_hits == 1
        assert "rule cache" in result.summary()
