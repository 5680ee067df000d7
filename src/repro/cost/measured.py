"""Measurement-based cost model (the paper's ``measured`` estimator).

Section VI-C: during a one-time offline phase, every sketch op is benchmarked
on the target hardware at representative tensor shapes and the measurements
are stored in a lookup table.  During search the cost of a partial program is
the sum of the pre-computed costs of its constituent ops — no re-measurement.

Representative shapes come from the model's ``dim_map`` (the benchmark's
real sizes, see :class:`repro.cost.base.DimMapper`) and are profiled at full
size with an adaptive loop count — micro-ops get many iterations per sample,
multi-millisecond contractions a single one — so the offline phase stays
affordable without distorting the cost landscape (an optional ``cap`` can
still bound mapped dimensions for quick experiments).

Unlike the FLOPS model, a measured model distinguishes FLOP-equal programs
(``np.power(A, 2)`` vs ``A * A``) and prices data movement (``transpose``
copies, ``stack`` concatenation) and per-op dispatch overhead — the cost
source exploited by the paper's Vectorization class.

The lookup table can be persisted to JSON so the offline phase is paid once
per host.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.cost.base import CostModel
from repro.errors import CostModelError
from repro.ir.ops import get_op
from repro.ir.types import DType, TensorType
from repro.journal import write_atomic


def _signature(op: str, arg_types: list[TensorType], attrs: Mapping[str, Any]) -> str:
    shapes = ";".join(f"{t.dtype.value}{list(t.shape)}" for t in arg_types)
    attr_str = ",".join(f"{k}={v}" for k, v in sorted(attrs.items()))
    return f"{op}|{shapes}|{attr_str}"


def _random_arg(t: TensorType, rng: np.random.Generator) -> np.ndarray:
    if t.dtype is DType.BOOL:
        return rng.random(t.shape) < 0.5
    return rng.uniform(0.5, 2.0, size=t.shape)


class MeasuredCostModel(CostModel):
    """Profile-based cost estimator (paper's ``--cost_estimator measured``)."""

    name = "measured"
    decision_margin = 0.04  # min-of-3 timings carry a few percent of noise
    expensive_estimates = True  # every table miss is a profiling run

    def __init__(
        self,
        dim_map: Mapping[int, int] | None = None,
        scale: int = 1,
        cap: int | None = None,
        repeats: int = 3,
        sample_seconds: float = 0.004,
        cache_path: str | Path | None = None,
    ) -> None:
        super().__init__(dim_map, scale, cap)
        self.repeats = repeats
        self.sample_seconds = sample_seconds
        self.cache_path = Path(cache_path) if cache_path else None
        self._table: dict[str, float] = {}
        self._rng = np.random.default_rng(1234)
        if self.cache_path and self.cache_path.exists():
            try:  # an unreadable or foreign table is an empty one: re-profiled
                table = json.loads(self.cache_path.read_text())
            except (OSError, ValueError):
                table = None
            self._table.update(table if isinstance(table, dict) else {})

    # -- persistence -----------------------------------------------------------

    def save(self) -> None:
        if self.cache_path is None:
            raise CostModelError("no cache_path configured")
        write_atomic(self.cache_path, json.dumps(self._table, indent=1, sort_keys=True))

    @property
    def table_size(self) -> int:
        return len(self._table)

    # -- measurement -------------------------------------------------------------

    def _measure(self, op: str, arg_types: list[TensorType], attrs: Mapping[str, Any]) -> float:
        spec = get_op(op)
        args = [_random_arg(t, self._rng) for t in arg_types]
        attrs = dict(attrs)
        # Profile with the program's actual scalar constants: NumPy
        # fast-paths e.g. np.power(A, 2), so a random exponent would
        # misprice the op (see CostModel.call_cost).
        for pos, value in attrs.pop("__const_args", ()):
            args[pos] = np.float64(value)
        try:
            start = time.perf_counter()
            spec.eval(args, attrs)  # warm-up + validity check
            first = time.perf_counter() - start
        except Exception as exc:  # pragma: no cover - defensive
            raise CostModelError(f"cannot profile {op}: {exc}") from exc
        # Adaptive loop count: enough iterations that one sample lasts
        # ~sample_seconds (stable for microsecond ops), but a single loop for
        # multi-millisecond contractions so profiling stays affordable.
        loops = max(1, min(256, int(self.sample_seconds / max(first, 1e-7))))
        best = float("inf")
        for _ in range(self.repeats):
            start = time.perf_counter()
            for _ in range(loops):
                spec.eval(args, attrs)
            elapsed = (time.perf_counter() - start) / loops
            best = min(best, elapsed)
        # Microseconds: keeps magnitudes readable in summaries.
        return best * 1e6

    def op_cost(
        self,
        op: str,
        arg_types: list[TensorType],
        out_type: TensorType,
        attrs: Mapping[str, Any],
    ) -> float:
        key = _signature(op, arg_types, dict(attrs))
        cost = self._table.get(key)
        if cost is None:
            cost = self._measure(op, arg_types, dict(attrs))
            self._table[key] = cost
        return cost
