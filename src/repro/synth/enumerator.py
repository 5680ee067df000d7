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

Goal-directed last level
------------------------

Given the search's goal Φ (:func:`goal_key`), the last level admits a
candidate at once only if it joins Φ's class, and **defers** every other.
When the level ends with Φ's class in the library, the DFS ends at the
root's MATCH, which reads that class alone, so the deferred candidates are
dropped (counted in ``goal_cut``).  When it ends without, they are replayed
through the ordinary admission path in their original order: no candidate
was admitted before them, so the library is the goal-less one, node for node
(DESIGN.md decision 33).  Membership is exact — the composed battery's key,
or the executed tensor's raw entries, battery or canonical key — and a
candidate without a composed battery first meets a refute-only float test
(:meth:`StubEnumerator._refutes_goal`) that spares the symbolic execution
of most non-members.  Deferred candidates count toward ``max_stubs``: a
level that reaches it counts them in ``goal_cut`` too, and
:func:`repro.synth.library.build_library` enumerates again without the goal.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

import numpy as np
import sympy as sp

from repro.cost.base import CostModel
from repro.errors import TypeInferenceError
from repro.ir.evaluator import random_inputs
from repro.ir.nodes import Call, Const, Input, Node
from repro.ir.ops import fill, get_op, has_op
from repro.ir.parser import Program
from repro.ir.types import DType
from repro.obs.metrics import bump
from repro.symexec import residues as _res
from repro.symexec.canonical import canonical_key, same_canonical_key
from repro.symexec.engine import symbolic_execute
from repro.symexec.symtensor import SymTensor, index_class
from repro.synth.config import SynthesisConfig

#: Ops in the input program that signal predicate/masking/extremum structure:
#: the op table's ``boolean_trigger`` column, filled here.
fill("boolean_trigger", "less", "where", "max", "min", "maximum", "minimum", "triu", "tril")(True)

#: Reject stubs whose symbolic tensor has more elements than this.
#: Intermediate blow-ups (e.g. a (24,24) outer product while synthesizing a
#: 24-row unrolled loop) dominate library-build time without ever being
#: usable — no sub-specification can exceed the program spec's size by much.
MAX_STUB_ENTRIES = 128


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


class Goal(NamedTuple):
    """Φ's class as MATCH finds it: by ``key``, Φ's residue key, or, for a Φ
    without a battery (``weak``), its canonical key.  Both start with Φ's
    shape and dtype."""

    key: tuple
    weak: bool


def goal_key(goal: SymTensor | None) -> Goal | None:
    """How the last level recognises the members of Φ's class, the one class
    the root's MATCH reads once it exists; None for no goal or a constant Φ,
    which the DFS builds before any MATCH.  A battery Φ's class is its value
    class.  A weak one's is the weak class of its canonical key, which MATCH
    finds through its bucket: :func:`repro.synth.library.build_library`
    checks that it does."""
    if goal is None or not goal.input_names():
        return None
    res = _res.tensor_residues(goal)
    if res is None:
        return Goal(canonical_key(goal), True)
    return Goal(_res.residue_key(goal.shape, goal.dtype, res), False)


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
        goal: Goal | None = None,
    ) -> None:
        self.program = program
        self.config = config
        self.cost_model = cost_model
        self.budget = budget  # repro.resilience.Budget | None
        #: Φ's class key (:func:`goal_key`; Φ is ``program``'s spec), and its
        #: class once admitted.
        self._goal_key = goal
        self._goal: _StubClass | None = None
        #: The last-level candidates dropped as outside Φ's class; each
        #: might have been a class of its own.
        self.goal_cut = 0
        #: Whether the level admits only Φ's members, and the others, in order.
        self._deferring = False
        self._deferred: list[Node] = []
        #: Float values at one seeded point (None: no value), per node.
        self._floats: dict[Node, np.ndarray | None] = {}
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
        self.enable_boolean = (
            any(get_op(op).boolean_trigger for op in program_ops) or has_bool_input
        )
        for op in config.extra_grammar_ops:
            if not (has_op(op) and get_op(op).arity == 2 and get_op(op).result_dtype is DType.FLOAT):
                raise ValueError(f"extra_grammar_ops: {op!r} is not a registered binary float op")
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
            self._deferring = depth == self.config.max_depth - 1 and self._goal_key is not None
            cut = self.goal_cut
            stop = self._admit_all(self._grow(), new_level, self._admit)
            deferred, self._deferred, self._floats = self._deferred, [], {}
            if stop is None and self._deferring and self._goal is None:
                # No Φ class: the goal-less level, as its candidates came.
                self._deferring = False
                stop = self._admit_all(deferred, new_level, self._settle)
            else:
                # Dropped: MATCH reads Φ's class.  Or capped: counted, so
                # that build_library enumerates again without the goal.
                self.goal_cut += len(deferred)
            self._deferring = False
            if level_span is not None:
                tracer.end(
                    level_span,
                    admitted=len(new_level),
                    stubs=self.stub_count,
                    cut=self.goal_cut - cut,
                )
            # Graceful degradation: an expired budget stops enumeration
            # with a partial (still sound) library rather than raising.
            if stop == "expired" or not new_level:
                break
            self._levels.append(new_level)
        return [c.entry for c in self._classes]

    def _admit_all(self, candidates: Iterable, new_level: list, admit) -> str | None:
        """Pass ``candidates`` to ``admit`` in order, the admitted into
        ``new_level``; ``"capped"`` or ``"expired"`` where that stops early."""
        for i, candidate in enumerate(candidates):
            # Deferred candidates count toward the cap: the goal-less
            # enumeration they stand for might have stopped there.
            if self.stub_count + len(self._deferred) >= self.config.max_stubs:
                return "capped"
            if self.budget is not None and i % 32 == 0 and self.budget.expired():
                return "expired"
            entry = admit(candidate)
            if entry is not None:
                new_level.append(entry)
        return None

    @property
    def stub_count(self) -> int:
        return len(self._classes)

    @property
    def goal_champion(self) -> StubEntry | None:
        """The champion of Φ's class, None while it has none."""
        return None if self._goal is None else self._goal.entry

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
        if node.type.size > MAX_STUB_ENTRIES:
            return None
        if isinstance(node, Call) and not self._facts(node) & _HAS_INPUT:
            folded = _fold_constant(node)
            if folded is None:
                return None
            node = folded
            if node in self._seen_nodes:
                return None
            self._seen_nodes.add(node)
        return self._settle(node)

    def _settle(self, node: Node) -> StubEntry | None:
        """:meth:`_admit` past the seen set and constant folding.  A level that admits
        only Φ's members defers every other candidate as soon as one tier
        shows that it is not one."""
        goal = self._goal_key if self._deferring else None
        if goal is not None and goal.key[:2] != (node.type.shape, node.type.dtype):
            return self._defer(node)
        if isinstance(node, Call):
            res = self._batteries.compose(node)
            if res is not None:
                if goal is not None and not self._joins_goal(node, res):
                    return self._defer(node)
                return self._admit_value(node, res, None)
            if node.op == "divide" and self._divides_by_zero(node):
                # Every entry of x / 0 executes to zoo (or nan for 0/0), so
                # the undefined-entry check would reject it — skip symexec.
                return None if goal is None else self._defer(node)
        if goal is not None and self._refutes_goal(node):
            bump("enum.goal_refuted")
            return self._defer(node)
        try:
            tensor = symbolic_execute(node, cache=self._symexec_cache)
        except Exception:
            return None  # e.g. division by a constant zero
        if _undefined(tensor):
            return None
        raw = (tensor.shape, tensor.dtype, tuple(tensor.entries()))
        cls = self._by_raw.get(raw)
        if cls is None:
            res = _res.tensor_residues(tensor)
            if res is not None:
                if goal is not None and not self._joins_goal(node, res):
                    return self._defer(node)
                return self._admit_value(node, res, tensor, raw)
            if goal is not None and not self._weak_goal(tensor):
                return self._defer(node)
            return self._admit_weak(node, tensor, raw)
        if goal is not None and cls is not self._goal:
            return self._defer(node)
        self.sketch_sources.append(node)
        self._battle(cls, node, tensor)
        return None

    def _defer(self, node: Node) -> None:
        self._deferred.append(node)

    def _joins_goal(self, node: Node, res) -> bool:
        """Whether a candidate of battery ``res`` is in Φ's value class."""
        goal = self._goal_key
        return not goal.weak and _res.residue_key(node.type.shape, node.type.dtype, res) == goal.key

    def _weak_goal(self, tensor: SymTensor) -> bool:
        """Whether a battery-weak tensor has a weak Φ's canonical key."""
        goal = self._goal_key
        try:
            return goal.weak and same_canonical_key(tensor, goal.key)
        except Exception:
            return False  # a canonical form that cannot be computed

    def _float(self, node: Node) -> np.ndarray | None:
        """``node``'s float value at one seeded point in ``[0.5, 2)``, from
        its arguments' (one NumPy op); None on any error."""
        if node in self._floats:
            return self._floats[node]
        value = None
        if isinstance(node, Input):
            value = self._point[node.name]
        elif isinstance(node, Const):
            value = np.asarray(node.value)
        else:
            args = [self._float(a) for a in node.args]
            if all(a is not None for a in args):
                try:
                    with np.errstate(all="ignore"):
                        value = np.asarray(get_op(node.op).eval(args, dict(node.attrs)))
                except Exception:
                    pass
        self._floats[node] = value
        return value

    @cached_property
    def _point(self) -> dict[str, np.ndarray]:
        return random_inputs(self.program.input_types)

    def _refutes_goal(self, node: Node) -> bool:
        """Refute-only: whether ``node``, of Φ's type, differs from Φ (the
        program) at the float point.  Booleans compare exactly, finite floats
        beyond ``1e-6·(1+|Φ|)``; an error, a NaN or an inf is no opinion."""
        value, goal = self._float(node), self._float(self.program.node)
        if value is None or goal is None or value.shape != goal.shape:
            return False
        if value.dtype == np.bool_ or goal.dtype == np.bool_:
            return value.dtype == goal.dtype and bool((value != goal).any())
        if not (np.isfinite(value).all() and np.isfinite(goal).all()):
            return False
        return bool((np.abs(value - goal) > 1e-6 * (1 + np.abs(goal))).any())

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
        if self._deferring or self._goal_key == (val_key, False):
            self._goal = cls  # only Φ's members reach here while deferring
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
        if self._deferring or (
            self._goal is None and self._goal_key is not None and self._weak_goal(tensor)
        ):
            self._goal = cls
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


#: The atoms of an undefined entry: ``zoo``, ``oo``, ``-oo`` and ``nan``.
_UNDEFINED = (type(sp.zoo), type(sp.oo), type(-sp.oo), type(sp.nan))


def _has_undefined(expr) -> bool:
    try:
        return bool(expr.atoms(*_UNDEFINED))
    except (AttributeError, TypeError):
        return False


def _undefined(tensor: SymTensor) -> bool:
    """Whether an entry is undefined; entry 0 speaks for an index-class tensor,
    whose other entries are it renamed."""
    entries = (tensor.item(),) if index_class(tensor) else tensor.entries()
    return any(_has_undefined(e) for e in entries)


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
