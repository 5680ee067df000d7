"""Tests for the specification-complexity metric (simplification objective)."""

import pytest

from repro.ir import float_tensor, parse
from repro.symexec import symbolic_execute
from repro.synth.complexity import prune_verdict, spec_complexity
from repro.synth.solver import Pruned

TYPES = {
    "A": float_tensor(2, 3),
    "B": float_tensor(3, 2),
    "S": float_tensor(3, 3),
    "x": float_tensor(3),
    "a": float_tensor(),
}


def spec(source):
    return symbolic_execute(parse(source, TYPES).node)


class TestPerEntryMode:
    def test_single_input_entry(self):
        assert spec_complexity(spec("A + A")) == 1.0  # one symbol per entry

    def test_two_inputs_per_entry(self):
        assert spec_complexity(spec("A * B.T")) == 2.0

    def test_contraction_raises_complexity(self):
        # Each entry of A@B touches a row of A and a column of B: 6 symbols.
        assert spec_complexity(spec("np.dot(A, B)")) == 6.0

    def test_density_scales(self):
        dense = spec_complexity(spec("S + S"))
        masked = spec_complexity(spec("np.triu(S)"))
        assert masked < dense

    def test_zero_spec(self):
        assert spec_complexity(spec("A - A")) == 0.0

    def test_constant_spec(self):
        assert spec_complexity(spec("np.full((2, 3), a) / np.full((2, 3), a)")) == 0.0


class TestGlobalMode:
    def test_counts_whole_tensor(self):
        # Global |var| counts all 6+6 element symbols of A and B.
        assert spec_complexity(spec("np.dot(A, B)"), mode="global") == 12.0

    def test_reduction_not_simpler_globally(self):
        """The documented divergence: the sum-decomposition of diag(A@B) is
        *not* a global simplification, but is a per-entry one (DESIGN.md)."""
        diag = spec("np.diag(np.dot(A, B))")
        hole = spec("A * np.transpose(B)")
        assert spec_complexity(hole, "global") >= spec_complexity(diag, "global")
        assert spec_complexity(hole, "per_entry") < spec_complexity(diag, "per_entry")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            spec_complexity(spec("A"), mode="bogus")


class TestSimplifies:
    """PRUNE's criterion, ``prune_verdict``: the hole scores and the verdict."""

    def test_strictly_less_required(self):
        current = spec_complexity(spec("A * B.T"))
        assert prune_verdict([spec("A * B.T")], current) == ([2.0], Pruned(2.0))
        assert prune_verdict([spec("A + A")], current) == ([1.0], None)

    def test_average_over_holes(self):
        current = spec_complexity(spec("A * B.T"))  # 2.0
        cheap, costly = spec("A + A"), spec("np.dot(A, B)")
        assert prune_verdict([cheap, cheap], current) == ([1.0, 1.0], None)
        assert prune_verdict([costly, costly], current) == ([6.0, 6.0], Pruned(6.0))
        assert prune_verdict([cheap, costly], current)[1] == Pruned(3.5)

    def test_no_holes_always_simplifies(self):
        assert prune_verdict([], 0.0) == ([], None)
