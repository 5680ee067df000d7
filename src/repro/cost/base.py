"""Cost model interface.

A cost model estimates the execution cost of an IR program on a target
platform.  The branch-and-bound search accumulates these estimates per
sketch (Section V-B); effectiveness of pruning depends directly on the
model's fidelity.

Costs are accounted per *syntactic* op occurrence: the eager NumPy backend
evaluates every occurrence, so a tree that uses the same subexpression twice
pays twice.  This matches what the measured model observes on real runs.

Representative shapes
---------------------

Synthesis runs on small shapes (SymPy tractability) while the paper profiles
sketches at *representative* shapes (Section VI-C).  Both models therefore
accept a ``dim_map``: a mapping from synthesis dimension sizes to the
benchmark's real sizes (e.g. ``{2: 384, 3: 512}``), applied to every type
before costing.  Crucially the mapping is identity on dimensions it does not
mention, so unrolled-loop programs — whose syntactic repetition count cannot
scale — stay consistently priced by giving the loop dimension its real size
during synthesis.  A uniform ``scale`` factor is also supported for
ablations, and ``cap`` bounds mapped dimensions (used by the measured model
to keep profiling cheap).
"""

from __future__ import annotations

import abc
from typing import Any, Mapping

from repro.ir.nodes import Call, Const, Node
from repro.ir.types import TensorType


class DimMapper:
    """Maps synthesis-time dimensions to representative costing dimensions."""

    def __init__(
        self,
        dim_map: Mapping[int, int] | None = None,
        scale: int = 1,
        cap: int | None = None,
    ) -> None:
        self.dim_map = dict(dim_map or {})
        self.scale = scale
        self.cap = cap

    def dim(self, d: int) -> int:
        mapped = self.dim_map.get(d)
        if mapped is None:
            mapped = d * self.scale if d > 1 else d
        if self.cap is not None and mapped > self.cap:
            mapped = self.cap
        return mapped

    def shape(self, shape: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(self.dim(d) for d in shape)

    def type(self, t: TensorType) -> TensorType:
        shape = self.shape(t.shape)
        return t if shape == t.shape else t.with_shape(shape)

    def attrs(self, attrs: Mapping[str, Any]) -> dict[str, Any]:
        out = dict(attrs)
        if out.get("shape") is not None:
            out["shape"] = self.shape(tuple(out["shape"]))
        return out

    @property
    def is_identity(self) -> bool:
        return not self.dim_map and self.scale == 1 and self.cap is None


#: Relative slack under which two program costs are the same cost: totals of
#: the same op costs summed in a different order differ in their last bits
#: (at most ``n * 1.1e-16`` relative for ``n`` nodes).  It must stay far below
#: one op's fixed overhead relative to a large kernel's total — dropping two
#: reshapes from a 1.2e7-FLOP contraction saves 1.6e-10 of it, and is real.
COST_EPSILON = 1e-13


class CostModel(abc.ABC):
    """Estimates execution cost of ops and programs."""

    name: str = "abstract"

    #: Relative noise floor of the model's estimates.  Algorithm 1 only
    #: declares a candidate an improvement when it beats the original by
    #: more than this margin — a measured model's sub-percent "wins" are
    #: indistinguishable from timing noise and would ship regressions.
    decision_margin: float = 0.0

    #: Whether one estimate costs enough (a timing run) that persisting it
    #: across runs pays.  An analytic estimate is recomputed faster than the
    #: persistent cache's key for it — a printed expression — can be built.
    expensive_estimates: bool = False

    def __init__(
        self,
        dim_map: Mapping[int, int] | None = None,
        scale: int = 1,
        cap: int | None = None,
    ) -> None:
        self.mapper = DimMapper(dim_map, scale, cap)
        self._op_memo: dict[tuple, float] = {}

    @abc.abstractmethod
    def op_cost(
        self,
        op: str,
        arg_types: list[TensorType],
        out_type: TensorType,
        attrs: Mapping[str, Any],
    ) -> float:
        """Estimated cost of a single op application (pre-mapped types)."""

    def call_cost(self, node: Call) -> float:
        """Cost of ``node``'s own op, memoised per op signature: op, attrs and
        argument types, a ``Const`` argument keyed by itself (its value).
        Out type, mapped types and constant operands follow from these; the
        measured model keys its timing table the same way."""
        key = (node.op, node.attrs, tuple(a if isinstance(a, Const) else a.type for a in node.args))
        cost = self._op_memo.get(key)
        if cost is None:
            cost = self._op_memo[key] = self._price(node)
        return cost

    def _price(self, node: Call) -> float:
        mapper = self.mapper
        if mapper.is_identity:
            attrs = dict(node.attrs)
            arg_types = [a.type for a in node.args]
            out_type = node.type
        else:
            attrs = mapper.attrs(dict(node.attrs))
            arg_types = [mapper.type(a.type) for a in node.args]
            out_type = mapper.type(node.type)
        # Scalar constant operands change real op cost (NumPy fast-paths
        # np.power(A, 2) but not np.power(A, 1.37)); expose them so measured
        # models can profile with the actual value.
        const_args = {
            i: float(a.value)
            for i, a in enumerate(node.args)
            if isinstance(a, Const) and a.is_scalar and a.type.dtype.value == "float"
        }
        if const_args:
            attrs["__const_args"] = tuple(sorted(const_args.items()))
        return self.op_cost(node.op, arg_types, out_type, attrs)

    def improves(self, candidate_cost: float, original_cost: float) -> bool:
        """Algorithm 1 line 7: is ``candidate_cost`` a real improvement?

        Cheaper by more than the model's noise floor (``decision_margin``)
        and by more than float summation noise — a tie is not an improvement.
        """
        bound = original_cost * (1.0 - self.decision_margin)
        return candidate_cost < bound - abs(bound) * COST_EPSILON

    def program_cost(self, node: Node) -> float:
        """Total cost of a program tree (every op occurrence counted).

        Costs are a pure function of node structure, and candidate trees
        share subtrees massively, so subtree totals are memoized per node
        on the model instance: pricing a tree touches only subtrees never
        seen before.
        """
        memo = getattr(self, "_subtree_memo", None)
        if memo is None:
            memo = {}
            self._subtree_memo = memo
        elif len(memo) > 1_000_000:
            memo.clear()
        return self._subtree_cost(node, memo)

    def _subtree_cost(self, node: Node, memo: dict[Node, float]) -> float:
        cached = memo.get(node)
        if cached is not None:
            return cached
        total = self.call_cost(node) if isinstance(node, Call) else 0.0
        for child in node.children():
            total += self._subtree_cost(child, memo)
        memo[node] = total
        return total
