"""Tests for the TASO-style bottom-up enumeration baseline."""

import pytest

from repro.baselines import BottomUpSynthesizer
from repro.cost import FlopsCostModel
from repro.ir import float_tensor, parse

TYPES = {"A": float_tensor(2, 2), "B": float_tensor(2, 2)}


def synthesize(source, types=None, **kwargs):
    synthesizer = BottomUpSynthesizer(cost_model=FlopsCostModel(), **kwargs)
    return synthesizer.synthesize(parse(source, types or TYPES))


class TestBottomUp:
    def test_finds_shallow_rewrite(self):
        # exp(log(A+B)) -> A+B exists at depth 1: reachable.
        result = synthesize("np.exp(np.log(A + B))", max_depth=1)
        assert result.improved
        assert result.best == parse("A + B", TYPES).node
        assert result.speedup_estimate > 1.0

    def test_improvement_is_decided_by_the_cost_models_margin(self):
        # Algorithm 1 line 7: a find that does not clear the model's
        # decision_margin is no improvement, as on every other path.
        model = FlopsCostModel()
        model.decision_margin = 0.99
        synthesizer = BottomUpSynthesizer(cost_model=model, max_depth=1)
        result = synthesizer.synthesize(parse("np.exp(np.log(A + B))", TYPES))
        assert not result.improved
        assert result.best == parse("np.exp(np.log(A + B))", TYPES).node
        assert result.best_cost == result.original_cost

    def test_unimproved_returns_original(self):
        result = synthesize("np.dot(A, B)", max_depth=1)
        assert not result.improved
        assert result.best == parse("np.dot(A, B)", TYPES).node
        assert result.best_cost == result.original_cost

    def test_budget_limits_enumeration(self):
        result = synthesize("np.dot(A * B, B)", max_programs=100)
        assert result.programs_enumerated <= 100

    def test_timeout_flag(self):
        result = synthesize("np.dot(A * B, B) + A * B", timeout_seconds=0.05)
        assert result.timed_out or result.elapsed_seconds < 1.0

    def test_scaling_failure_vs_stenso(self):
        """The Fig. 5 story: a compound rewrite STENSO assembles recursively
        is out of the bounded baseline's reach."""
        from repro.synth import SynthesisConfig, superoptimize_program

        types = {"A": float_tensor(2, 3), "B": float_tensor(3, 2)}
        program = parse("np.diag(np.dot(A, B))", types, name="diag_dot")

        baseline = BottomUpSynthesizer(
            cost_model=FlopsCostModel(), max_depth=2, max_programs=3000,
            timeout_seconds=10.0,
        )
        baseline_result = baseline.synthesize(program)

        stenso = superoptimize_program(
            program, cost_model=FlopsCostModel(),
            config=SynthesisConfig(timeout_seconds=60),
        )
        assert stenso.improved
        # The baseline either fails outright or needs a cost no better.
        if baseline_result.improved:
            assert baseline_result.best_cost >= stenso.optimized_cost
