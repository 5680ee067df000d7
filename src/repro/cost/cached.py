"""Memoizing wrapper around any cost model.

The first SOLVE prices every sketch of the library, the base-case MATCH the
stubs it ranks or returns, and the enumerator's duplicate-preference check
re-prices the same retained stubs many times — none of it a timing run: a
model prices each op signature once (:meth:`CostModel.call_cost`).  The
wrapper memoizes ``program_cost`` per IR node in memory (nodes are immutable
and hashable) and, when a :class:`~repro.synth.cache.PersistentCache` is
attached and the model declares its estimates expensive
(:attr:`CostModel.expensive_estimates`), per expression string across runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cost.base import CostModel
from repro.ir.nodes import Node

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.synth.cache import PersistentCache


class CachingCostModel(CostModel):
    """Delegates to ``inner`` with per-node (and optional on-disk) memoization.

    Transparent: same costs, same ``name``/``decision_margin``/``mapper``, so
    it can stand in for the wrapped model anywhere in the pipeline.
    """

    def __init__(
        self,
        inner: CostModel,
        cache: "PersistentCache | None" = None,
        fingerprint: str = "",
    ) -> None:
        self.inner = inner
        self.name = inner.name
        self.decision_margin = inner.decision_margin
        self.mapper = inner.mapper
        self.expensive_estimates = inner.expensive_estimates
        #: The cross-run store, only where a lookup is cheaper than the estimate.
        self.cache = cache if inner.expensive_estimates else None
        self.fingerprint = fingerprint
        self._memo: dict[Node, float] = {}
        self.hits = 0
        self.misses = 0

    def op_cost(self, op, arg_types, out_type, attrs) -> float:
        return self.inner.op_cost(op, arg_types, out_type, attrs)

    def call_cost(self, node) -> float:
        return self.inner.call_cost(node)

    def program_cost(self, node: Node) -> float:
        hit = self._memo.get(node)
        if hit is not None:
            self.hits += 1
            return hit
        self.misses += 1
        value: float | None = None
        key: str | None = None
        if self.cache is not None:
            from repro.synth.cache import cost_key

            key = cost_key(self.fingerprint, node)
            value = self.cache.cost_get(key)
        if value is None:
            value = self.inner.program_cost(node)
            if self.cache is not None and key is not None:
                self.cache.cost_put(key, value)
        self._memo[node] = value
        return value


def with_caching(
    model: CostModel,
    cache: "PersistentCache | None",
    fingerprint: str = "",
) -> CostModel:
    """Wrap ``model`` when a cache is active; pass through otherwise."""
    if cache is None or isinstance(model, CachingCostModel):
        return model
    return CachingCostModel(model, cache=cache, fingerprint=fingerprint)
