"""Bottom-up enumerative stub generation (paper Section IV-B).

Starting from terminals (program inputs and constants), each iteration
combines grammar operations with previously generated stubs, type-checking
every candidate and deduplicating by *observational equivalence* — two stubs
with the same canonical symbolic tensor are the same building block, and the
cheaper one (per the active cost model) is kept.  Constant-only stubs are
folded into new constant terminals (so ``1 + 3`` becomes the terminal ``4``).

Growth policy
-------------

* ``grow_both_args=False`` (default): at most one argument of a level-2 stub
  is compound, keeping the library near-linear in the level-1 count —
  ``grow_both_args=True`` gives the full growth the paper describes as
  exponential in depth.
* Boolean machinery (``less``, ``where``, ``triu``/``tril``) is enumerated
  only when the input program itself involves predicates, masking, or
  min/max reductions; for purely arithmetic programs those productions can
  never appear in an optimal equivalent that our solver can reach, and
  skipping them cuts the library by an order of magnitude.
* ``power`` exponents are restricted to scalar *constants* (the paper's
  ``FCons`` terminals).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np
import sympy as sp

from repro.analysis import prescreen as _prescreen
from repro.cost.base import CostModel
from repro.errors import TypeInferenceError
from repro.ir.nodes import Call, Const, Input, Node
from repro.ir.parser import Program
from repro.ir.types import DType
from repro.obs.metrics import bump
from repro.symexec import residues as _res
from repro.symexec.canonical import canonical_key, same_canonical_key
from repro.symexec.engine import symbolic_execute
from repro.symexec.symtensor import SymTensor
from repro.synth.config import SynthesisConfig

#: Ops in the input program that signal predicate/masking/extremum structure.
_BOOLEAN_TRIGGERS = {"less", "where", "max", "min", "maximum", "minimum", "triu", "tril"}


class StubEntry:
    """A deduplicated stub: IR tree, symbolic tensor, and its identity.

    ``res`` is the residue battery (value identity over small primes; see
    :mod:`repro.symexec.residues`), None for stubs the battery cannot
    tokenize — those are told apart by their weak bucket and identified by
    their canonical ``key``.  Both the key and the symbolic tensor are
    **lazy**: a weak stub's canonical forms are compared only when another one
    shares its bucket (in the enumerator or in MATCH), and residue-admitted stubs are
    priced without ever running ``symbolic_execute`` — the tensor is
    materialized only if a slow-path consumer (canonical key, full
    equivalence) actually asks.
    """

    __slots__ = ("node", "res", "_tensor", "_exec_cache", "_key")

    def __init__(
        self,
        node: Node,
        tensor: SymTensor | None = None,
        key: tuple | None = None,
        res=None,
        exec_cache: dict | None = None,
    ) -> None:
        self.node = node
        self._tensor = tensor
        self.res = res
        self._key = key
        self._exec_cache = exec_cache

    @property
    def tensor(self) -> SymTensor:
        t = self._tensor
        if t is None:
            t = symbolic_execute(self.node, cache=self._exec_cache)
            self._tensor = t
        return t

    @property
    def key(self) -> tuple:
        if self._key is None:
            self._key = canonical_key(self.tensor)
        return self._key

    @property
    def cached_key(self) -> tuple | None:
        """The canonical key if already computed, without forcing it."""
        return self._key

    def has_key(self, key: tuple) -> bool:
        """Whether this stub's canonical key is ``key``, computed no further than it agrees."""
        if self._key is None:
            if not same_canonical_key(self.tensor, key):
                return False
            self._key = key
        return self._key == key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StubEntry({self.node!r})"


class _StubClass:
    """Mutable holder of one behavioral class's current champion entry."""

    __slots__ = ("entry",)

    def __init__(self, entry: StubEntry) -> None:
        self.entry = entry


def program_constants(program: Program) -> list[Const]:
    """Scalar/tensor constants appearing in the input program (FCons)."""
    seen: dict[Const, None] = {}
    for node in program.node.walk():
        if isinstance(node, Const):
            seen.setdefault(node)
    return list(seen)


def _terminals(program: Program, config: SynthesisConfig) -> list[Node]:
    nodes: list[Node] = list(program.inputs)
    consts: dict[Const, None] = {}
    for c in program_constants(program):
        consts.setdefault(c)
    for value in config.extra_constants:
        consts.setdefault(Const(float(value)))
    nodes.extend(consts)
    return nodes


def _axes_for(rank: int) -> list[int | None]:
    return [None] + list(range(rank))


#: Node facts, one bit each, OR-ed up from the arguments: the tree mentions a
#: program input; the tree embeds concrete shapes (a ``shape`` attr or a
#: tensor constant), so it does not transport to other input sizes.
_HAS_INPUT, _PINNED = 1, 2


def _own_facts(node: Node) -> int:
    if isinstance(node, Input):
        return _HAS_INPUT
    if isinstance(node, Const):
        return 0 if node.is_scalar else _PINNED
    return _PINNED if node.attr("shape") is not None else 0


class StubEnumerator:
    """Bottom-up enumeration with observational-equivalence deduplication."""

    def __init__(
        self,
        program: Program,
        config: SynthesisConfig,
        cost_model: CostModel | None = None,
        budget=None,
    ) -> None:
        self.program = program
        self.config = config
        self.cost_model = cost_model
        self.budget = budget  # repro.resilience.Budget | None
        #: Admission-ordered behavioral classes (the deduped library).
        self._classes: list[_StubClass] = []
        #: Battery-weak classes by value bucket (``None``: the evaluator had
        #: no opinion).  Different buckets are different classes; within one,
        #: canonical keys decide.
        self._weak: dict[tuple | None, list[_StubClass]] = {}
        #: Raw-structure tier: exact entry tuples already seen.
        #: SymPy auto-orders Add/Mul args, so most behavioral duplicates
        #: (commutations, re-derivations) collapse here with zero algebra.
        self._by_raw: dict[tuple, _StubClass] = {}
        #: Value tier: residue-battery bytes -> class.  Most
        #: candidates are settled here without symbolic execution at all.
        self._by_val: dict[tuple, _StubClass] = {}
        #: Batteries of admitted residue-safe stubs, for the compositional
        #: evaluator — the gate shared with the library restore.
        self._batteries = _res.BatteryTable()
        self._seen_nodes: set[Node] = set()
        self._symexec_cache: dict[Node, SymTensor] = {}
        self._cost_memo: dict[Node, float] = {}
        #: Fact bits per candidate (:meth:`_facts`); dropped with the
        #: enumerator, so no kernel's candidates outlive its enumeration.
        self._fact_memo: dict[Node, int] = {}
        #: Every well-defined candidate, including behavioural duplicates.
        #: Sketches are derived from these: dedup keeps only one of
        #: ``power(A, 2)`` / ``multiply(A, A)``, but both spawn distinct,
        #: useful sketches (``power(A, ??)`` has no multiply counterpart).
        self.sketch_sources: list[Node] = []
        self._levels: list[list[StubEntry]] = []
        program_ops = {n.op for n in program.node.walk() if isinstance(n, Call)}
        has_bool_input = any(i.type.dtype is DType.BOOL for i in program.inputs)
        self.enable_boolean = bool(program_ops & _BOOLEAN_TRIGGERS) or has_bool_input
        # Shapes available for `full` (program input shapes + output shape).
        shapes = {inp.type.shape for inp in program.inputs if inp.type.shape}
        shapes.add(program.node.type.shape)
        self.shapes = sorted(s for s in shapes if s)

    # -- public ---------------------------------------------------------------

    def enumerate(self) -> list[StubEntry]:
        """Run ``config.max_depth`` iterations; return all deduped stubs."""
        from repro.obs.trace import get_tracer

        tracer = get_tracer()
        terminals = []
        for node in _terminals(self.program, self.config):
            entry = self._admit(node)
            if entry is not None:
                terminals.append(entry)
        self._levels.append(terminals)
        for depth in range(self.config.max_depth):
            if self.stub_count >= self.config.max_stubs:
                break
            level_span = (
                tracer.begin("enum-level", "enum", level=depth + 1)
                if tracer.enabled
                else None
            )
            new_level: list[StubEntry] = []
            expired = False
            for i, candidate in enumerate(self._grow()):
                if self.stub_count >= self.config.max_stubs:
                    break
                # Graceful degradation: an expired budget stops enumeration
                # with a partial (still sound) library rather than raising.
                if self.budget is not None and i % 32 == 0 and self.budget.expired():
                    expired = True
                    break
                entry = self._admit(candidate)
                if entry is not None:
                    new_level.append(entry)
            if level_span is not None:
                tracer.end(
                    level_span, admitted=len(new_level), stubs=self.stub_count
                )
            if expired:
                return [c.entry for c in self._classes]
            if not new_level:
                break
            self._levels.append(new_level)
        return [c.entry for c in self._classes]

    @property
    def stub_count(self) -> int:
        return len(self._classes)

    # -- internals -------------------------------------------------------------

    def _cost(self, node: Node) -> float:
        # Memoized: _prefer re-prices retained stubs on every duplicate
        # collision.  None of it is a timing run: a model prices each op
        # signature once (CostModel.call_cost).
        cost = self._cost_memo.get(node)
        if cost is None:
            if self.cost_model is not None:
                cost = self.cost_model.program_cost(node)
            else:
                cost = float(node.num_nodes)
            self._cost_memo[node] = cost
        return cost

    def _facts(self, node: Node) -> int:
        """``node``'s fact bits, from its arguments' in O(1) once they are known."""
        facts = self._fact_memo.get(node)
        if facts is None:
            facts = _own_facts(node)
            for arg in node.children():
                facts |= self._facts(arg)
            self._fact_memo[node] = facts
        return facts

    def _prefer(self, new: Node, old: Node) -> bool:
        """Should ``new`` replace the behaviourally-equal ``old`` stub?

        Primarily by cost, but near-ties (within 5% — measured costs are
        noisy) are broken toward *shape-polymorphic* stubs: an embedded shape
        attribute or tensor constant pins the program to the synthesis shapes
        and cannot be transported to the benchmark's real sizes.
        """
        new_cost, old_cost = self._cost(new), self._cost(old)
        if new_cost < 0.95 * old_cost:
            return True
        if new_cost > 1.05 * old_cost:
            return False
        return (self._facts(new) & _PINNED, new.num_nodes, new_cost) < (
            self._facts(old) & _PINNED, old.num_nodes, old_cost
        )

    def _admit(self, node: Node) -> StubEntry | None:
        """Type-check, constant-fold, evaluate, and dedupe.

        Candidates whose arguments all have residue batteries are settled
        **numerically**: :func:`repro.symexec.residues.compose` prices the
        candidate with a few vectorized numpy ops and the value tier decides
        duplicate-vs-new by dict lookup — no symbolic execution, no SymPy.
        Everything else (unsupported ops, irrational values, vanishing
        denominators) is symbolically executed and dedupes in three tiers.
        Tier 0 (raw): SymPy's auto-ordering makes most behavioral duplicates
        *structurally* identical — a dict lookup on the entry tuple settles
        them.  Tier 1 (residues): rational-valued tensors join the same
        value partition the compositional path uses.  Tier 2 (weak):
        everything the battery cannot tokenize (irrational values, booleans,
        vanishing denominators) is refuted by its float value bucket where
        that is unseen, and dedupes by exact canonical key only against the
        classes sharing its bucket (:meth:`_admit_weak`).
        """
        if node in self._seen_nodes:
            return None
        self._seen_nodes.add(node)
        if node.type.size > self.config.max_stub_entries:
            return None
        if isinstance(node, Call) and not self._facts(node) & _HAS_INPUT:
            folded = _fold_constant(node)
            if folded is None:
                return None
            node = folded
            if node in self._seen_nodes:
                return None
            self._seen_nodes.add(node)
        if isinstance(node, Call) and node.op == "divide":
            bump("analysis.prescreen_checks")
            if _prescreen.divides_by_provable_zero(node):
                # The denominator is syntactically zero, so every entry is
                # zoo/nan and the undefined-entry check below would reject
                # the candidate — prune before any residue/symbolic work.
                bump("analysis.prescreen_pruned")
                bump("analysis.prescreen_undefined")
                return None
        if isinstance(node, Call):
            res = self._batteries.compose(node)
            if res is not None:
                return self._admit_value(node, res, None)
            if node.op == "divide" and self._divides_by_zero(node):
                # Every entry of x / 0 executes to zoo (or nan for 0/0), so
                # the undefined-entry check would reject it — skip symexec.
                return None
        try:
            tensor = symbolic_execute(node, cache=self._symexec_cache)
        except Exception:
            return None  # e.g. division by a constant zero
        if any(_has_undefined(e) for e in tensor.entries()):
            return None
        raw = (tensor.shape, tensor.dtype, tuple(tensor.entries()))
        cls = self._by_raw.get(raw)
        if cls is None:
            res = _res.tensor_residues(tensor)
            if res is not None:
                return self._admit_value(node, res, tensor, raw)
            return self._admit_weak(node, tensor, raw)
        self.sketch_sources.append(node)
        self._battle(cls, node, tensor)
        return None

    def _divides_by_zero(self, node: Call) -> bool:
        """True when the denominator stub is the identically-zero tensor.

        An all-zero residue battery flags the candidate; the class champion's
        symbolic tensor (computed once, shared) confirms it is literally zero
        rather than merely vanishing at the battery points.
        """
        den = node.args[1]
        r = self._batteries.get(den)
        if r is None or r.any():
            return False
        cls = self._by_val.get(_res.residue_key(den.type.shape, den.type.dtype, r))
        if cls is None:
            return False
        try:
            return all(e == 0 for e in cls.entry.tensor.entries())
        except Exception:
            return False

    def _admit_value(
        self, node: Node, res, tensor: SymTensor | None, raw: tuple | None = None
    ) -> StubEntry | None:
        """Value-tier dedup: residue-battery bytes settle the candidate.

        Reached compositionally (``tensor is None``: zero SymPy spent) or
        from a symbolically executed tensor whose own battery is defined —
        :func:`~repro.symexec.residues.compose` and
        :func:`~repro.symexec.residues.tensor_residues` agree whenever both
        are defined, so the two entrances index one consistent partition.
        """
        val_key = _res.residue_key(node.type.shape, node.type.dtype, res)
        self.sketch_sources.append(node)
        cls = self._by_val.get(val_key)
        if cls is not None:
            bump("equiv.fingerprint_hits")
            self._battle(cls, node, tensor)
            if raw is not None:
                self._by_raw[raw] = cls
            return None
        # An unseen battery proves the behavior distinct from every admitted
        # stub (Schwartz–Zippel; counted under the metric's historical name).
        bump("equiv.fingerprint_rejects")
        entry = StubEntry(
            node, tensor, res=res, exec_cache=self._symexec_cache
        )
        cls = _StubClass(entry)
        self._by_val[val_key] = cls
        if raw is not None:
            self._by_raw[raw] = cls
        self._classes.append(cls)
        self._batteries.register(node, res)
        return entry

    def _admit_weak(self, node: Node, tensor: SymTensor, raw: tuple) -> StubEntry | None:
        """Battery-weak candidates dedupe exactly, among themselves.

        Their value bucket (:func:`repro.symexec.residues.weak_bucket`) only
        separates: an unseen bucket proves the candidate is no admitted weak
        class, and it joins with its canonical key unset.  A seen bucket
        proves nothing — the candidate's canonical forms are compared with
        those of that bucket's classes entry by entry, and only equal keys
        merge.  A candidate without a bucket is compared with every weak class.
        """
        bump("equiv.fingerprint_weak")
        bucket = _res.weak_bucket(tensor)
        if bucket is None:
            bump("equiv.weak_unbucketed")
            peers = [cls for group in self._weak.values() for cls in group]
        else:
            peers = self._weak.get(bucket, ())
            bump("equiv.weak_confirmed" if peers else "equiv.weak_refuted")
        try:
            same = next((c for c in peers if same_canonical_key(tensor, c.entry.tensor)), None)
        except Exception:
            return None  # a canonical form that cannot be computed
        self.sketch_sources.append(node)
        if same is not None:
            self._battle(same, node, tensor)
            self._by_raw[raw] = same
            return None
        entry = StubEntry(node, tensor)
        cls = _StubClass(entry)
        self._weak.setdefault(bucket, []).append(cls)
        self._by_raw[raw] = cls
        self._classes.append(cls)
        return entry

    def _battle(
        self,
        cls: _StubClass,
        node: Node,
        tensor: SymTensor | None,
    ) -> None:
        """Cost battle against the class champion, replacing it if beaten.

        The class identities (battery, canonical key) transfer to the
        replacement: class membership *means* those agree.  ``tensor`` may be
        None (residue-composed challenger): the replacement entry stays lazy.
        """
        old = cls.entry
        if self._prefer(node, old.node):
            # Same behaviour, better implementation: replace in place so
            # base-case MATCH always returns the best equivalent stub.
            cls.entry = StubEntry(
                node,
                tensor,
                key=old.cached_key,
                res=old.res,
                exec_cache=self._symexec_cache,
            )

    def _grow(self) -> Iterator[Node]:
        terminals = [e.node for e in self._levels[0]]
        new = [e.node for e in self._levels[-1]]
        if self.config.grow_both_args:
            old = [e.node for level in self._levels for e in level]
            base, other = new + old, new + old
        else:
            base, other = new, terminals

        float_new = [n for n in base if n.type.dtype is DType.FLOAT]
        float_other = [n for n in other if n.type.dtype is DType.FLOAT]
        # Conditions for `where` come from the previous level only, and its
        # value operands from terminals: `where` is a masking/selection op, so
        # deep boolean nesting only multiplies the library without adding
        # reachable rewrites.
        bool_pool = [n for n in new if n.type.dtype is DType.BOOL] + [
            n for n in terminals if n.type.dtype is DType.BOOL
        ]
        const_scalars = [
            n
            for n in terminals
            if isinstance(n, Const) and n.type.is_scalar and n.type.dtype is DType.FLOAT
        ]

        def pairs() -> Iterator[tuple[Node, Node]]:
            for a in float_new:
                for b in float_other:
                    yield a, b
                    if a is not b:
                        yield b, a

        binary_ops = ("add", "subtract", "multiply", "divide", "dot") + tuple(
            self.config.extra_grammar_ops
        )
        for a, b in pairs():
            for op in binary_ops:
                yield from self._try(op, (a, b))
            if a.type.rank + b.type.rank == self.program.node.type.rank:
                yield from self._try("tensordot", (a, b), axes=0)
            if self.enable_boolean:
                yield from self._try("less", (a, b))
        for a in float_new:
            for c in const_scalars:
                yield from self._try("power", (a, c))
            yield from self._try("sqrt", (a,))
            yield from self._try("transpose", (a,))
            if self.enable_boolean:
                yield from self._try("triu", (a,))
                yield from self._try("tril", (a,))
            for axis in _axes_for(a.type.rank):
                yield from self._try("sum", (a,), axis=axis)
            if a.type.is_scalar:
                for shape in self.shapes:
                    yield from self._try("full", (a,), shape=shape)
        if self.enable_boolean:
            terminal_floats = [n for n in terminals if n.type.dtype is DType.FLOAT]
            for cond in bool_pool:
                for x in terminal_floats:
                    for y in terminal_floats:
                        yield from self._try("where", (cond, x, y))

    def _try(self, op: str, args: tuple[Node, ...], **attrs) -> Iterator[Node]:
        try:
            yield Call(op, args, **attrs)
        except TypeInferenceError:
            return


def _has_undefined(expr) -> bool:
    try:
        return expr.has(sp.zoo, sp.oo, -sp.oo, sp.nan)
    except (AttributeError, TypeError):
        return False


def _fold_constant(node: Call) -> Node | None:
    """Evaluate a constant-only stub into a :class:`Const` terminal.

    Returns None when evaluation is undefined (division by zero, 0**-1, ...).
    """
    from repro.ir.evaluator import evaluate

    try:
        with np.errstate(all="ignore"):
            value = np.asarray(evaluate(node, {}))
    except Exception:
        return None
    if value.dtype != np.bool_ and not np.all(np.isfinite(value.astype(float))):
        return None
    if value.shape:
        # Folding a tensor-valued constant tree would pin the synthesis
        # shapes into a literal array; keep the op tree (it still dedupes
        # against scalar-broadcast equivalents by canonical key).
        return node
    return Const(value, node.type)
