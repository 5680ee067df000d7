"""Bottom-up enumerative superoptimizer baseline (paper Section VII-B).

This is the comparison point "representative of prior work on tensor program
superoptimization: a bottom-up enumerator similar to the one used in TASO".
It enumerates complete programs of increasing depth over the same grammar,
checks each against the target specification by symbolic equivalence, and
keeps the cheapest equivalent found.

Unlike STENSO it has no goal direction: the search space grows exponentially
with depth (every new level combines all previous programs pairwise), which
is exactly the scaling failure Fig. 5 demonstrates — it only reaches
solutions that exist at small depth before exhausting its budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.cost import CostModel, make_cost_model
from repro.ir.nodes import Node
from repro.ir.parser import Program
from repro.symexec.canonical import canonical, canonical_key
from repro.symexec.engine import symbolic_execute
from repro.synth.config import SynthesisConfig
from repro.synth.enumerator import StubEnumerator


@dataclass
class BottomUpResult:
    """Outcome of a bottom-up enumeration run."""

    program: Program
    best: Node
    best_cost: float
    original_cost: float
    improved: bool
    programs_enumerated: int
    elapsed_seconds: float
    timed_out: bool

    @property
    def speedup_estimate(self) -> float:
        return self.original_cost / self.best_cost if self.best_cost > 0 else 1.0


class BottomUpSynthesizer:
    """TASO-style enumerate-and-test superoptimizer."""

    def __init__(
        self,
        cost_model: CostModel | str = "flops",
        max_depth: int = 3,
        max_programs: int = 200_000,
        timeout_seconds: float = 600.0,
    ) -> None:
        self.cost_model = (
            make_cost_model(cost_model) if isinstance(cost_model, str) else cost_model
        )
        self.max_depth = max_depth
        self.max_programs = max_programs
        self.timeout_seconds = timeout_seconds

    def synthesize(self, program: Program) -> BottomUpResult:
        start = time.monotonic()
        deadline = start + self.timeout_seconds
        spec_key = canonical_key(symbolic_execute(program.node).map(canonical))
        original_cost = self.cost_model.program_cost(program.node)

        best: Node | None = None
        best_cost = float("inf")
        enumerated = 0
        timed_out = False

        # Reuse the stub enumerator in its exhaustive configuration: both
        # arguments of a combination may be compound (full exponential growth)
        # and enumeration depth is the baseline's depth budget.
        config = SynthesisConfig(
            max_depth=self.max_depth,
            grow_both_args=True,
            max_stubs=self.max_programs,
        )
        enumerator = StubEnumerator(program, config, cost_model=self.cost_model)

        # Drive the enumerator level by level so the time budget can
        # interrupt between admissions.
        terminals = []
        for node in _terminal_nodes(enumerator):
            entry = enumerator._admit(node)
            if entry is not None:
                terminals.append(entry)
        enumerator._levels.append(terminals)
        enumerated += len(terminals)

        def consider(entry) -> None:
            nonlocal best, best_cost
            if entry.key == spec_key:
                cost = self.cost_model.program_cost(entry.node)
                if cost < best_cost:
                    best, best_cost = entry.node, cost

        for entry in terminals:
            consider(entry)

        for _ in range(self.max_depth):
            if timed_out or enumerated >= self.max_programs:
                break
            new_level = []
            for candidate in enumerator._grow():
                if time.monotonic() > deadline:
                    timed_out = True
                    break
                if enumerated >= self.max_programs:
                    break
                entry = enumerator._admit(candidate)
                enumerated += 1
                if entry is not None:
                    new_level.append(entry)
                    consider(entry)
            if not new_level:
                break
            enumerator._levels.append(new_level)

        improved = best is not None and self.cost_model.improves(best_cost, original_cost)
        if not improved:
            best, best_cost = program.node, original_cost
        return BottomUpResult(
            program=program,
            best=best,
            best_cost=best_cost,
            original_cost=original_cost,
            improved=improved,
            programs_enumerated=enumerated,
            elapsed_seconds=time.monotonic() - start,
            timed_out=timed_out,
        )


def _terminal_nodes(enumerator: StubEnumerator):
    from repro.synth.enumerator import _terminals

    return _terminals(enumerator.program, enumerator.config)
