"""Persistent store of synthesis results.

Synthesis takes seconds-to-minutes per benchmark (Fig. 5), while the timing
harness wants to re-measure cheaply.  The store memoizes one record per
(benchmark, cost model, synthesizer configuration) in a JSON file, so
``scripts/generate_experiments.py`` pays synthesis cost only on a miss —
mirroring the paper's observation that superoptimization is a cacheable
one-time cost.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.bench.suite import Benchmark, get_benchmark
from repro.cost import make_cost_model
from repro.journal import write_atomic
from repro.obs.log import get_logger
from repro.resilience import FileLock
from repro.synth.config import SynthesisConfig

log = get_logger(__name__)

DEFAULT_STORE_PATH = Path(
    os.environ.get("STENSO_STORE", Path(__file__).resolve().parents[3] / "results" / "synthesis.json")
)

#: Named synthesizer configurations used across the evaluation (Fig. 5).
CONFIGS: dict[str, SynthesisConfig] = {
    "default": SynthesisConfig(),
    "simplification_only": SynthesisConfig(use_branch_and_bound=False),
    "no_memo": SynthesisConfig(memoize=False),
    "depth1": SynthesisConfig(max_depth=1),
    "global_complexity": SynthesisConfig(complexity_mode="global"),
    "extended_grammar": SynthesisConfig(extra_grammar_ops=("maximum", "minimum")),
}


@dataclass
class SynthesisRecord:
    """One cached synthesis outcome."""

    benchmark: str
    cost_model: str
    config: str
    improved: bool
    optimized_source: str
    synthesis_seconds: float
    original_cost: float
    optimized_cost: float
    stats: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        return f"{self.benchmark}|{self.cost_model}|{self.config}"


class SynthesisStore:
    """JSON-backed memo of synthesis runs.

    Robust to concurrent suite runs sharing one store file: :meth:`save`
    holds a cross-process lock over a read-merge-write (records another
    process saved since our load are preserved, not overwritten), the write
    itself is atomic (:func:`repro.journal.write_atomic`), and a corrupt or torn store file
    loads as empty — the store is a memo, never a dependency.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path else DEFAULT_STORE_PATH
        self._records: dict[str, SynthesisRecord] = dict(self._read_disk())
        self._dirty = False

    def _read_disk(self) -> dict[str, SynthesisRecord]:
        records: dict[str, SynthesisRecord] = {}
        if not self.path.exists():
            return records
        try:
            raw_records = json.loads(self.path.read_text())
        except Exception:
            log.warning("synthesis store unreadable; starting empty", path=str(self.path))
            return records
        if not isinstance(raw_records, dict):
            return records
        for raw in raw_records.values():
            try:
                record = SynthesisRecord(**raw)
            except TypeError:
                continue  # record from an incompatible format: skip it
            records[record.key] = record
        return records

    def save(self) -> None:
        # All-hits runs (the common warm case) skip the lock and the
        # re-serialization of every unchanged record entirely.
        if not self._dirty:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with FileLock(self.path.parent / f".{self.path.name}.lock"):
            merged = self._read_disk()
            merged.update(self._records)
            self._records = merged
            payload = {k: asdict(r) for k, r in sorted(merged.items())}
            write_atomic(self.path, json.dumps(payload, indent=1))
        self._dirty = False

    def get(self, benchmark: str, cost_model: str, config: str = "default") -> SynthesisRecord | None:
        return self._records.get(f"{benchmark}|{cost_model}|{config}")

    def put(self, record: SynthesisRecord) -> None:
        self._records[record.key] = record
        self._dirty = True

    def get_or_run(
        self,
        benchmark: Benchmark | str,
        cost_model: str = "measured",
        config: str = "default",
        timeout_seconds: float | None = None,
        save: bool = True,
    ) -> SynthesisRecord:
        """Return the cached record, running synthesis on a miss.

        ``config="bottom_up"`` runs the TASO-style baseline instead of the
        STENSO search (Fig. 5's third series).
        """
        bench = get_benchmark(benchmark) if isinstance(benchmark, str) else benchmark
        hit = self.get(bench.name, cost_model, config)
        if hit is not None:
            return hit
        if config == "bottom_up":
            record = run_bottom_up(bench, cost_model, timeout_seconds or 60.0)
        else:
            record = run_synthesis(bench, cost_model, config, timeout_seconds)
        self.put(record)
        if save:
            self.save()
        return record


def run_synthesis(
    bench: Benchmark,
    cost_model: str = "measured",
    config: str = "default",
    timeout_seconds: float | None = None,
) -> SynthesisRecord:
    """Synthesize one benchmark under a named configuration."""
    from repro.synth.superoptimizer import superoptimize_program

    cfg = CONFIGS[config]
    if timeout_seconds is not None:
        cfg = cfg.replace(timeout_seconds=timeout_seconds)
    program = bench.parse_synth()
    kwargs: dict = {"dim_map": bench.dim_map}
    if cost_model == "measured":
        # Share the offline profiling table across benchmarks and runs.
        kwargs["cache_path"] = DEFAULT_STORE_PATH.parent / "measured_cache.json"
    model = make_cost_model(cost_model, **kwargs)
    result = superoptimize_program(program, cost_model=model, config=cfg)
    if cost_model == "measured":
        model.save()  # persist the offline profiling table
    return SynthesisRecord(
        benchmark=bench.name,
        cost_model=cost_model,
        config=config,
        improved=result.improved,
        optimized_source=result.optimized_source,
        synthesis_seconds=result.synthesis_seconds,
        original_cost=result.original_cost,
        optimized_cost=result.optimized_cost,
        stats=result.stats.as_dict(),
    )


def run_bottom_up(
    bench: Benchmark, cost_model: str = "measured", timeout_seconds: float = 60.0
) -> SynthesisRecord:
    """Run the TASO-style bottom-up baseline on one benchmark (Fig. 5)."""
    from repro.baselines import BottomUpSynthesizer
    from repro.ir.printer import to_source

    kwargs: dict = {"dim_map": bench.dim_map}
    if cost_model == "measured":
        kwargs["cache_path"] = DEFAULT_STORE_PATH.parent / "measured_cache.json"
    model = make_cost_model(cost_model, **kwargs)
    synthesizer = BottomUpSynthesizer(cost_model=model, timeout_seconds=timeout_seconds)
    program = bench.parse_synth()
    result = synthesizer.synthesize(program)
    if cost_model == "measured":
        model.save()
    return SynthesisRecord(
        benchmark=bench.name,
        cost_model=cost_model,
        config="bottom_up",
        improved=result.improved,
        optimized_source=to_source(
            result.best, name=bench.name, input_names=program.input_names
        ),
        synthesis_seconds=result.elapsed_seconds,
        original_cost=result.original_cost,
        optimized_cost=result.best_cost,
        stats={
            "programs_enumerated": result.programs_enumerated,
            "timed_out": result.timed_out,
        },
    )
