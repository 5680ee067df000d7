"""The symbolic algebra solver (paper Section V-A).

Given a sketch with one hole and a target specification Φ, the solver decides
whether there exists an expression for the hole making the sketch equivalent
to Φ — and if so, computes that expression (the *hole specification*):

    ∃ expr . sketch(expr, arg_1, ...) = Φ

The solver walks the path from the sketch root to the hole, inverting one
operation per step.  Each grammar op registers a local inverter; ops whose
inversion is not purely algebraic (``dot``, ``tensordot``, ``sum``) use
coefficient extraction or index-hinted term splitting, each *verified
symbolically* before being returned, so heuristic extraction can never
produce an unsound decomposition.  When no chain of local inverters reaches
the hole, a generic fallback binds the hole to fresh unknowns and calls
``sympy.solve`` on the elementwise equation system.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable

import numpy as np
import sympy as sp
from sympy.polys.fields import FracField
from sympy.polys.polyerrors import CoercionFailed
from sympy.polys.polyutils import _sort_gens

from repro.ir.nodes import Call, Input, Node
from repro.ir.types import DType, TensorType
from repro.obs.metrics import bump
from repro.obs.trace import NULL_TRACER
from repro.resilience import inject
from repro.symexec.canonical import _needs_cancel, canonical, equivalent
from repro.symexec.engine import symbolic_execute
from repro.symexec.symtensor import SymTensor, input_symbols_of, symbol_origin
from repro.synth.config import SynthesisConfig
from repro.synth.sketch import Sketch

# An inverter takes (call, hole_position, sibling values, target, hole_type)
# and returns the target for the hole subtree, as built (SOLVE normalizes it
# afterwards, see _NORMALIZES), or None if no solution exists.
Inverter = Callable[
    [Call, int, list[SymTensor | None], SymTensor, TensorType], SymTensor | None
]

_INVERTERS: dict[str, Inverter] = {}

#: Ops whose inverter builds new entries: SOLVE runs :func:`_normalize` on
#: the hole spec it returns (see :meth:`SketchSolver._derive_raw`).  The others
#: only move or mask the target's entries and hand them back as they are.
_NORMALIZES: set[str] = set()


def _inverter(name: str, normalizes: bool = True):
    def deco(fn):
        _INVERTERS[name] = fn
        if normalizes:
            _NORMALIZES.add(name)
        return fn

    return deco


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _normalize(expr):
    """Light normalization for hole-spec entries.

    ``cancel`` removes the division noise algebraic inversion introduces
    (``(A*B*C)/C -> A*B``) but — unlike full canonicalization — does *not*
    expand: an inverter may produce ``(y+1)**2`` (sqrt inversion), and
    expanding it would stop the re-executed sketch from simplifying back
    (``sqrt(y**2+2y+1)`` does not auto-collapse the way ``sqrt((y+1)**2)``
    does).  Key-based matching canonicalizes separately.
    """
    try:
        if _needs_cancel(expr):
            return _cancel(expr)
    except (AttributeError, TypeError, NotImplementedError):
        pass
    return expr


@lru_cache(maxsize=1 << 14)
def _cancel(expr):
    """SymPy's ``cancel`` of ``expr``, derived once per expression.

    In the rational fragment — sums, products and integer powers of symbols,
    ``log`` atoms and rational numbers — the expression is converted into
    :func:`_field` over its :func:`_generators`, which keeps it reduced by
    construction, and read back with the denominator's leading coefficient
    made positive: the form ``cancel`` gives (DESIGN.md, decision 22).
    Anything else, or anything that fails to convert, is ``sp.cancel``'s.
    """
    gens = _generators(expr)
    if gens is not None:
        try:
            frac = _field(gens).from_expr(expr)
        except (ValueError, CoercionFailed):
            pass
        else:
            bump("solver.cancel_exact")
            numer, denom = frac.numer, frac.denom
            if denom.LC < 0:
                numer, denom = -numer, -denom
            return numer.as_expr() / denom.as_expr()
    bump("solver.cancel_fallback")
    return sp.cancel(expr)


@lru_cache(maxsize=1 << 10)
def _field(gens: tuple) -> FracField:
    return FracField(gens, sp.QQ)


def _generators(expr) -> tuple | None:
    """The polynomial generators ``cancel`` takes for ``expr`` — its symbols
    and ``log`` atoms, in ``cancel``'s own order (``_sort_gens``) — or None
    outside the fragment :func:`_field` computes exactly (a ``Float``, a
    radical, another function, a non-rational constant, or a ``log`` that
    ``cancel`` would rewrite)."""
    if isinstance(expr, sp.log):
        return None  # nothing to cancel; :func:`_keeps_log` asks sp.cancel
    gens, stack = set(), [expr]
    while stack:
        e = stack.pop()
        if e.is_Symbol:
            gens.add(e)
        elif e.is_Add or e.is_Mul:
            stack.extend(e.args)
        elif e.is_Pow and e.exp.is_Integer:
            stack.append(e.base)
        elif isinstance(e, sp.log) and _keeps_log(e):
            gens.add(e)
        elif not e.is_Rational:
            return None
    return _sort_gens(gens) if gens else None


@lru_cache(maxsize=1 << 12)
def _keeps_log(atom) -> bool:
    """Whether ``cancel`` keeps ``atom`` as one generator: its argument is
    symbolic (``log(2)`` is a coefficient to it) and ``cancel``'s rewriting —
    ``expand``'s ``log(A*B) -> log(A) + log(B)``, ``factor_terms``'
    ``log(2*A + 2*B) -> log(2*(A + B))`` — leaves it alone."""
    return bool(atom.args[0].free_symbols) and _cancel(atom) == atom


@lru_cache(maxsize=1 << 14)
def _factored(t):
    """SymPy's ``factor`` of ``t``, once per entry; ``t`` itself where it
    cannot be factored."""
    try:
        return sp.factor(t)
    except (sp.PolynomialError, AttributeError):
        return t


def _normalized(hole_specs: tuple[SymTensor, ...]) -> tuple[SymTensor, ...] | None:
    """Each hole spec through :func:`_normalize`, or None if that raises
    (an unsolvable query, as when an inverter raises)."""
    try:
        return tuple(h.map(_normalize) for h in hole_specs)
    except Exception:
        return None


def _hole_tensor(data: np.ndarray, dtype: DType = DType.FLOAT) -> SymTensor:
    """An inverter's hole spec as built, before :func:`_normalize`."""
    return SymTensor(np.asarray(data, dtype=object), dtype)


def _is_zero(e) -> bool:
    try:
        return bool(e.is_zero)
    except (AttributeError, TypeError):
        return e == 0


def _unbroadcast(full: np.ndarray, target_shape: tuple[int, ...]) -> np.ndarray | None:
    """Collapse a spec-shaped candidate array onto a smaller (broadcastable)
    hole shape.  Returns None when entries that must coincide do not."""
    full = np.asarray(full, dtype=object)
    if full.shape == tuple(target_shape):
        return full
    out = np.empty(target_shape, dtype=object)
    offset = full.ndim - len(target_shape)
    for idx in np.ndindex(*full.shape) if full.shape else [()]:
        tidx = tuple(
            0 if target_shape[i] == 1 else idx[i + offset] for i in range(len(target_shape))
        )
        value = canonical(full[idx]) if hasattr(full[idx], "free_symbols") else full[idx]
        existing = out[tidx] if target_shape else out[()]
        if existing is None or (isinstance(existing, np.ndarray) and existing.dtype == object and existing.item() is None):
            out[tidx] = value
        elif existing != value:
            return None
    # np.empty(object) initializes to None; verify all slots were filled.
    flat = out.reshape(-1) if target_shape else [out.item()]
    if any(v is None for v in flat):
        return None
    return out


# ---------------------------------------------------------------------------
# One inverse table: the arithmetic and outer-product inverters, PRUNE's floor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntryInverse:
    """One row of :data:`INVERSE_TABLE`: ``op`` solved for one hole entry.

    ``f`` gives the hole entry ``h = f(t, o)`` from the spec entry ``t`` and
    the known argument's entry ``o``.  ``gives_up`` names the sides (``"t"``,
    ``"o"``) whose being zero leaves no hole entry: a zero divisor makes the
    sketch produce ``0/0``, not ``t``.  ``zero_literal`` is ``multiply``'s
    ``t = h·0``: a zero ``o`` is solved by the literal ``h = 0`` when ``t`` is
    zero too, and not at all otherwise.
    """

    f: Callable[[object, object], object]
    gives_up: str = ""
    zero_literal: bool = False

    @property
    def multiplicative(self) -> bool:
        """``f`` is a product or a quotient: the rows a zero side is special to."""
        return self.zero_literal or bool(self.gives_up)


def _literal_zero(t, o):
    return sp.S.Zero


_QUOTIENT = EntryInverse(lambda t, o: t / o, zero_literal=True)

#: ``(op, hole position) -> row``: the one place these inverses are written.
#: ``tensordot`` is the outer product (``axes=0``), whose known entry is the
#: :func:`outer_probe`, never zero.
INVERSE_TABLE: dict[tuple[str, int], EntryInverse] = {
    ("add", 0): EntryInverse(lambda t, o: t - o),
    ("add", 1): EntryInverse(lambda t, o: t - o),
    ("subtract", 0): EntryInverse(lambda t, o: t + o),
    ("subtract", 1): EntryInverse(lambda t, o: o - t),
    ("multiply", 0): _QUOTIENT,
    ("multiply", 1): _QUOTIENT,
    ("divide", 0): EntryInverse(lambda t, o: t * o, gives_up="o"),
    ("divide", 1): EntryInverse(lambda t, o: o / t, gives_up="to"),
    ("tensordot", 0): _QUOTIENT,
    ("tensordot", 1): _QUOTIENT,
}


def entry_rule(op: str, pos: int, t, o, is_zero=_is_zero) -> Callable | None:
    """How ``(op, pos)``'s row solves the entry pair ``(t, o)``: with the
    row's ``f``, with the literal zero, or not at all (None).

    ``is_zero`` is the zero test: ``_is_zero`` for SOLVE, an exact-value test
    that answers as it does for PRUNE's floor.
    """
    row = INVERSE_TABLE[op, pos]
    if row.zero_literal and is_zero(o):
        return _literal_zero if is_zero(t) else None
    if ("t" in row.gives_up and is_zero(t)) or ("o" in row.gives_up and is_zero(o)):
        return None
    return row.f


def invert_entry(op: str, pos: int, t, o, is_zero=_is_zero):
    """The hole entry ``h`` for which ``op`` of ``h`` (at ``pos``) and ``o``
    is ``t``, or None."""
    rule = entry_rule(op, pos, t, o, is_zero)
    return None if rule is None else rule(t, o)


def outer_probe(other: SymTensor) -> tuple[int, ...] | None:
    """Index of the first entry of ``other`` not provably zero, or None.

    Inverting the outer product ``tensordot(h, other, axes=0)`` divides one
    slice of the spec by this entry.
    """
    for oidx in np.ndindex(*other.shape):
        if not _is_zero(other.data[oidx]):
            return oidx
    return None


def entry_pairs(
    call: Call, pos: int, target: SymTensor, other: SymTensor, hole_shape: tuple[int, ...]
) -> tuple[tuple[int, ...], list[tuple]] | None:
    """``(shape, pairs)``: the ``(t, o)`` each hole candidate is solved from,
    in C order over ``shape``, or None where the inverter pairs nothing.

    An elementwise root pairs each spec entry with the known argument
    broadcast to the spec's shape (unbroadcast onto ``hole_shape`` after);
    ``tensordot(axes=0)`` pairs each hole entry with its spec entry in the
    :func:`outer_probe` slice.
    """
    if call.op != "tensordot":
        o_data = np.broadcast_to(other.data, target.shape).reshape(-1)
        return target.shape, list(zip(target.entries(), o_data))
    if call.attr("axes", 2) != 0 or len(target.shape) != len(hole_shape) + len(other.shape):
        return None
    probe = outer_probe(other)
    if probe is None:
        return None
    o = other.data[probe]
    return hole_shape, [
        (target.data[hidx + probe if pos == 0 else probe + hidx], o)
        for hidx in np.ndindex(*hole_shape)
    ]


def _invert_entries(
    entry_fn: Callable[[object, object], object | None],
    call: Call,
    pos: int,
    target: SymTensor,
    other: SymTensor,
    hole_type: TensorType,
) -> np.ndarray | None:
    """``entry_fn(t, o)`` over :func:`entry_pairs`, or None if any is None."""
    paired = entry_pairs(call, pos, target, other, hole_type.shape)
    if paired is None:
        return None
    shape, pairs = paired
    out = np.empty(len(pairs), dtype=object)
    for i, (t, o) in enumerate(pairs):
        value = entry_fn(t, o)
        if value is None:
            return None
        out[i] = value
    return out.reshape(shape)


def _elementwise_invert(entry_fn, call, pos, target, other, hole_type) -> SymTensor | None:
    """Generic elementwise inversion with broadcasting on both sides."""
    full = _invert_entries(entry_fn, call, pos, target, other, hole_type)
    if full is None:
        return None
    collapsed = _unbroadcast(full, hole_type.shape)
    if collapsed is None:
        return None
    return _hole_tensor(collapsed)


# ---------------------------------------------------------------------------
# Elementwise inverters
# ---------------------------------------------------------------------------


def _invert_arithmetic(call, pos, args, target, hole_type):
    """``add``/``subtract``/``multiply``/``divide``: one table row per entry."""
    return _elementwise_invert(
        partial(invert_entry, call.op, pos), call, pos, target, args[1 - pos], hole_type
    )


for _op in ("add", "subtract", "multiply", "divide"):
    _inverter(_op)(_invert_arithmetic)


@_inverter("power")
def _invert_power(call, pos, args, target, hole_type):
    if pos == 0:
        exponent = args[1]

        def invert_base(t, o):
            if _is_zero(o):
                return None
            # Factor first so perfect powers collapse: root of the expanded
            # y**2+2y+1 stays opaque, root of (y+1)**2 simplifies to y+1.
            return _factored(t) ** (sp.S.One / o)

        return _elementwise_invert(invert_base, call, pos, target, exponent, hole_type)
    base = args[0]

    def invert_exponent(t, o):
        # log(o) is real only for a provably positive base: ``expand_log``
        # would otherwise surface log(-a) as log(a) + I*pi.
        if not o.is_positive:
            return None
        log_base = sp.expand_log(sp.log(o))
        if _is_zero(log_base):
            return None
        # Element symbols are positive, so expanding both logs is what
        # collapses log(A**5)/log(A) to 5.
        return sp.expand_log(sp.log(t)) / log_base

    return _elementwise_invert(invert_exponent, call, pos, target, base, hole_type)


#: ``op -> f``: the hole entry ``f(t)`` of a unary elementwise op's spec entry ``t``.
UNARY_INVERSES: dict[str, Callable[[object], object]] = {
    "sqrt": lambda t: t**2,
    "negative": operator.neg,
    "exp": sp.log,
    "log": sp.exp,
}


def _invert_unary(call, pos, args, target, hole_type):
    if target.shape != hole_type.shape:
        return None
    return _hole_tensor(np.frompyfunc(UNARY_INVERSES[call.op], 1, 1)(target.data))


for _op in UNARY_INVERSES:
    _inverter(_op)(_invert_unary)


# ---------------------------------------------------------------------------
# Structural inverters
# ---------------------------------------------------------------------------


@_inverter("transpose", normalizes=False)
def _invert_transpose(call, pos, args, target, hole_type):
    axes = call.attr("axes")
    rank = len(hole_type.shape)
    if axes is None:
        perm = tuple(reversed(range(rank)))
    else:
        perm = tuple(ax % rank for ax in axes)
    inverse = [0] * rank
    for i, ax in enumerate(perm):
        inverse[ax] = i
    if len(target.shape) != rank:
        return None
    return SymTensor(np.transpose(target.data, axes=inverse), target.dtype)


@_inverter("reshape", normalizes=False)
def _invert_reshape(call, pos, args, target, hole_type):
    if target.size != hole_type.size:
        return None
    return SymTensor(np.reshape(target.data, hole_type.shape), target.dtype)


@_inverter("triu", normalizes=False)
@_inverter("tril", normalizes=False)
def _invert_triangle(call, pos, args, target, hole_type):
    """The target itself, if it is zero where the op masks (below the
    diagonal for ``triu``, above it for ``tril``)."""
    below = call.op == "triu"
    for idx in np.ndindex(*target.shape):
        i, j = idx[-2], idx[-1]
        if (i > j if below else i < j) and not _is_zero(target.data[idx]):
            return None
    return target


@_inverter("full", normalizes=False)
def _invert_full(call, pos, args, target, hole_type):
    entries = [canonical(e) for e in target.entries()]
    first = entries[0]
    if any(e != first for e in entries[1:]):
        return None
    return SymTensor(np.array(first, dtype=object), target.dtype)


@_inverter("where")
def _invert_where(call, pos, args, target, hole_type):
    if pos == 0:
        return None  # synthesizing conditions is out of scope
    cond = args[0]
    if cond is None or target.shape != hole_type.shape:
        return None
    cond_b = np.broadcast_to(cond.data, target.shape)
    out = np.empty(target.shape, dtype=object)
    it = np.ndindex(*target.shape) if target.shape else [()]
    for idx in it:
        c = cond_b[idx] if target.shape else cond_b.item()
        t = target.data[idx] if target.shape else target.item()
        wanted = (c is sp.true or c is True) if pos == 1 else (c is sp.false or c is False)
        unconstrained = (c is sp.false or c is False) if pos == 1 else (c is sp.true or c is True)
        if wanted:
            value = t
        elif unconstrained:
            value = sp.S.Zero  # don't-care slot: pick zero (lowers density)
        else:
            # Symbolic condition: the spec entry must be a matching Piecewise.
            if not isinstance(t, sp.Piecewise) or len(t.args) != 2:
                return None
            (val_true, tcond), (val_false, _) = t.args
            if tcond != c:
                return None
            value = val_true if pos == 1 else val_false
        if target.shape:
            out[idx] = value
        else:
            out = np.array(value, dtype=object)
    return _hole_tensor(out)


# ---------------------------------------------------------------------------
# Reduction inverter: index-hinted term splitting
# ---------------------------------------------------------------------------


def _term_position_hints(term: sp.Expr, positions: list[tuple[int, ...]],
                         out_index: tuple[int, ...], axis: int | None) -> list[tuple[int, ...]]:
    """Candidate hole positions for one additive term, from symbol origins.

    For ``sum(??, axis=1)`` against ``diag(A @ B)`` the entry at output index
    ``(i,)`` is ``Σ_k A[i,k]·B[k,i]``; the term ``A[i,k]·B[k,i]`` mentions
    ``k`` in its symbols' element indices, which pins it to hole position
    ``(i, k)``.  Symbols are scanned in input-name order so decompositions
    stay coherent across entries (crucial for the subsequent stub match).
    """
    hints: list[tuple[int, ...]] = []
    symbols = sorted(input_symbols_of(term), key=lambda s: s.name)
    position_set = set(positions)
    for s in symbols:
        origin = symbol_origin(s)
        if origin is None:
            continue
        _, oidx = origin
        if axis is None:
            if tuple(oidx) in position_set:
                hints.append(tuple(oidx))
        else:
            # position = out_index with one coordinate inserted at `axis`.
            for p in positions:
                if p[axis:axis + 1] and len(oidx) >= 1 and p[axis] in oidx and p not in hints:
                    hints.append(p)
            break  # a single symbol's coordinates are enough for the axis case
    return hints


@_inverter("sum")
def _invert_sum(call, pos, args, target, hole_type):
    axis = call.attr("axis")
    hole_shape = hole_type.shape
    if axis is not None:
        axis = axis % len(hole_shape)
    out = np.zeros(hole_shape, dtype=object)
    out[...] = sp.S.Zero
    for out_idx in np.ndindex(*target.shape) if target.shape else [()]:
        entry = canonical(target.data[out_idx] if target.shape else target.item())
        if axis is None:
            positions = list(np.ndindex(*hole_shape))
        else:
            positions = [
                out_idx[:axis] + (p,) + out_idx[axis:] for p in range(hole_shape[axis])
            ]
        terms = list(sp.Add.make_args(entry))
        taken: set[tuple[int, ...]] = set()
        fallback_cursor = 0
        for term in terms:
            hints = _term_position_hints(term, positions, out_idx, axis)
            slot = next((h for h in hints if h not in taken), None)
            if slot is None:
                slot = next((h for h in hints), None)
            if slot is None:
                # No index hint: round-robin over free positions.
                free = [p for p in positions if p not in taken]
                slot = free[0] if free else positions[fallback_cursor % len(positions)]
                fallback_cursor += 1
            taken.add(slot)
            out[slot] = out[slot] + term
    # Correct by construction: entries at each output index sum to the spec.
    return _hole_tensor(out)


# ---------------------------------------------------------------------------
# Contraction inverters: coefficient extraction + verification
# ---------------------------------------------------------------------------


def _all_distinct_symbols(t: SymTensor) -> bool:
    entries = list(t.entries())
    return all(isinstance(e, sp.Symbol) for e in entries) and len(set(entries)) == len(entries)


def _verify_tensor_equal(candidate: np.ndarray, target: SymTensor) -> bool:
    cand = np.asarray(candidate, dtype=object)
    if cand.shape != target.shape:
        return False
    it = np.ndindex(*target.shape) if target.shape else [()]
    for idx in it:
        a = cand[idx] if target.shape else cand.item()
        b = target.data[idx] if target.shape else target.item()
        if canonical(sp.expand(a)) != canonical(b):
            return False
    return True


@_inverter("dot")
def _invert_dot(call, pos, args, target, hole_type):
    other = args[1 - pos]
    if other is None:
        return None
    hole_shape = hole_type.shape
    # Scalar-operand dot degenerates to elementwise multiply.
    if other.shape == () or hole_shape == ():
        return _elementwise_invert(
            partial(invert_entry, "multiply", pos), call, pos, target, other, hole_type
        )
    if not _all_distinct_symbols(other):
        return None  # compound known arg: handled by the generic fallback
    diff_cache: dict[tuple, sp.Expr] = {}

    def d(expr: sp.Expr, sym: sp.Symbol) -> sp.Expr:
        key = (expr, sym)
        hit = diff_cache.get(key)
        if hit is None:
            hit = sp.diff(sp.expand(expr), sym)
            diff_cache[key] = hit
        return hit

    hole = np.empty(hole_shape, dtype=object)
    try:
        if pos == 0:
            b = other.data
            k = hole_shape[-1]
            lead = hole_shape[:-1]
            for lidx in np.ndindex(*lead) if lead else [()]:
                for kk in range(k):
                    if b.ndim == 1:
                        t_entry = target.data[lidx] if lead else target.item()
                        hole[lidx + (kk,)] = d(t_entry, b[kk])
                    else:
                        probe = lidx + (0,) * (target.data.ndim - len(lidx))
                        hole[lidx + (kk,)] = d(target.data[probe], b[(kk,) + (0,) * (b.ndim - 1)])
        else:
            a = other.data
            k = hole_shape[0]
            trail = hole_shape[1:]
            for tidx in np.ndindex(*trail) if trail else [()]:
                for kk in range(k):
                    if a.ndim == 1:
                        t_entry = target.data[tidx] if trail else target.item()
                        hole[(kk,) + tidx] = d(t_entry, a[kk])
                    else:
                        probe = (0,) * (a.ndim - 1)
                        t_probe = probe + tidx
                        hole[(kk,) + tidx] = d(
                            target.data[t_probe] if target.shape else target.item(),
                            a[probe + (kk,)],
                        )
    except (IndexError, ValueError):
        return None
    # Extraction is heuristic; verify sketch(hole) == target exactly.
    if pos == 0:
        product = np.dot(hole, other.data)
    else:
        product = np.dot(other.data, hole)
    if not _verify_tensor_equal(product, target):
        return None
    return _hole_tensor(hole)


@_inverter("tensordot")
def _invert_tensordot(call, pos, args, target, hole_type):
    other = args[1 - pos]
    if other is None:
        return None
    # Outer product only (a contracting tensordot has no pairing): a hole
    # entry is its spec entry in the probe slice divided by the probe entry,
    # which is never zero, so the row never gives up.
    hole = _invert_entries(
        lambda t, o: _cancel(invert_entry("tensordot", pos, t, o)),
        call, pos, target, other, hole_type,
    )
    if hole is None:
        return None
    product = np.tensordot(hole if pos == 0 else other.data,
                           other.data if pos == 0 else hole, axes=0)
    if not _verify_tensor_equal(product, target):
        return None
    return _hole_tensor(hole)


# ---------------------------------------------------------------------------
# Generic fallback: fresh unknowns + sympy.solve
# ---------------------------------------------------------------------------


#: Cap on the fresh unknowns of one generic solve.
MAX_UNKNOWNS = 16


def _generic_solve(sketch: Sketch, spec: SymTensor) -> tuple[SymTensor, ...] | None:
    """Bind every hole to fresh unknowns, execute the sketch symbolically,
    and solve the elementwise equation system for the unknowns.

    Handles any number of holes: with several holes, a solution exists only
    when the system pins them all simultaneously (Algorithm 2's general
    multi-hole case)."""
    hole_types = [hole.type for hole in sketch.holes]
    n_unknowns = sum(max(t.size, 1) for t in hole_types)
    if n_unknowns > MAX_UNKNOWNS:
        return None
    flat_syms = [sp.Symbol(f"_u{i}", real=True) for i in range(n_unknowns)]
    bindings = {}
    cursor = 0
    for hole, hole_type in zip(sketch.holes, hole_types):
        count = max(hole_type.size, 1)
        chunk = flat_syms[cursor: cursor + count]
        cursor += count
        unknowns = np.empty(hole_type.shape, dtype=object)
        if hole_type.shape:
            unknowns.reshape(-1)[:] = chunk
        else:
            unknowns = np.array(chunk[0], dtype=object)
        bindings[hole.name] = SymTensor(unknowns, hole_type.dtype)
    try:
        result = symbolic_execute(sketch.root, bindings=bindings)
        eqs = [sp.expand(got - want) for got, want in zip(result.entries(), spec.entries())]
        solutions = sp.solve(eqs, flat_syms, dict=True)
    except Exception:
        return None
    if len(solutions) != 1:
        return None
    sol = solutions[0]
    if len(sol) != len(flat_syms):
        return None  # underdetermined: no canonical hole specification
    values = []
    for s in flat_syms:
        v = sol[s]
        if any(u in v.free_symbols for u in flat_syms):
            return None
        values.append(v)
    out_specs = []
    cursor = 0
    for hole_type in hole_types:
        count = max(hole_type.size, 1)
        chunk = values[cursor: cursor + count]
        cursor += count
        out = np.empty(hole_type.shape, dtype=object)
        if hole_type.shape:
            out.reshape(-1)[:] = chunk
        else:
            out = np.array(chunk[0], dtype=object)
        out_specs.append(_hole_tensor(out))
    return _normalized(tuple(out_specs))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pruned:
    """SOLVE outcome for hole specs PRUNE turned down.

    ``mean_complexity`` is the mean hole complexity of derived, never
    verified hole specs, or a lower bound of it that already reached the
    node's score: PRUNE's floor (:func:`repro.synth.complexity.prune_floor`,
    ``from_floor``), taken before anything was derived, or the exact floor
    (:func:`repro.synth.complexity.exact_floor`, ``before_cancel``), taken
    on hole specs not yet through ``cancel``.  Either way it is all a later asker
    needs to repeat the decision.
    """

    mean_complexity: float
    from_floor: bool = field(default=False, compare=False)
    before_cancel: bool = field(default=False, compare=False)


class SketchSolver:
    """Solves ``sketch(??) = spec`` queries with caching of sibling values.

    ``scope`` names the kernel being synthesized; it keys the ``solver``
    fault-injection site so test plans can target one kernel of a batch.

    ``tracer`` (a :class:`repro.obs.trace.Tracer`, defaulting to the no-op
    tracer) records one span per inverter step and per generic-fallback
    attempt when tracing is on.
    """

    def __init__(
        self,
        config: SynthesisConfig | None = None,
        scope: str = "",
        tracer=None,
    ) -> None:
        self.config = config or SynthesisConfig()
        self.scope = scope
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._value_cache: dict[Node, SymTensor] = {}

    def value(self, node: Node) -> SymTensor:
        """The symbolic value of a known sketch argument, memoised."""
        hit = self._value_cache.get(node)
        if hit is None:
            hit = symbolic_execute(node)
            self._value_cache[node] = hit
        return hit

    def _traced_generic_solve(
        self, sketch: Sketch, spec: SymTensor
    ) -> tuple[SymTensor, ...] | None:
        if not self.tracer.enabled:
            return _generic_solve(sketch, spec)
        start = time.monotonic()
        result = _generic_solve(sketch, spec)
        self.tracer.complete(
            "generic-solve", "solver",
            start=start,
            duration=time.monotonic() - start,
            holes=sketch.num_holes,
            outcome="hit" if result is not None else "miss",
        )
        return result

    def solve_all(
        self,
        sketch: Sketch,
        spec: SymTensor,
        keep: Callable[[tuple[SymTensor, ...]], Pruned | None] | None = None,
        keep_raw: Callable[[tuple[SymTensor, ...]], Pruned | None] | None = None,
    ) -> tuple[SymTensor, ...] | Pruned | None:
        """One hole specification per hole (Algorithm 2's SOLVE), or None.

        ``keep`` sees the derived hole specs *before* they are verified and
        may turn them down by returning a :class:`Pruned`, which is returned
        as is: a caller that would drop the sketch anyway need not pay for
        the proof.  ``keep_raw`` is asked the same even earlier, about hole
        specs whose last inverter step has not been through
        :func:`_normalize` (``cancel``) yet: it may only turn down what
        ``keep`` would turn down after normalizing.  Hole specs that are
        returned have been verified.
        """
        inject("solver", key=self.scope, config=self.config)
        derived = self._derive_raw(sketch, spec)
        if derived is None:
            return None
        hole_specs, pending = derived
        if pending:
            if keep_raw is not None:
                pruned = keep_raw(hole_specs)
                if pruned is not None:
                    return pruned
            hole_specs = _normalized(hole_specs)
            if hole_specs is None:
                return None
        if keep is not None:
            pruned = keep(hole_specs)
            if pruned is not None:
                return pruned
        if not self._decomposition_holds(sketch, hole_specs, spec):
            return None
        return hole_specs

    def solve(self, sketch: Sketch, spec: SymTensor) -> SymTensor | None:
        """Hole specification making a single-hole sketch equal to ``spec``."""
        hole_specs = self.solve_all(sketch, spec)
        return None if hole_specs is None else hole_specs[0]

    def _derive(
        self, sketch: Sketch, spec: SymTensor
    ) -> tuple[SymTensor, ...] | None:
        """Unverified, normalized hole specs, or None.

        A single hole is reached by inverting one op per step of its path;
        several holes, or a path that meets an op without an inverter, go to
        the generic solve.  Either way the result is heuristic until
        :meth:`_decomposition_holds` confirms it.
        """
        derived = self._derive_raw(sketch, spec)
        if derived is None:
            return None
        hole_specs, pending = derived
        return _normalized(hole_specs) if pending else hole_specs

    def _derive_raw(
        self, sketch: Sketch, spec: SymTensor
    ) -> tuple[tuple[SymTensor, ...], bool] | None:
        """:meth:`_derive` with the last step's :func:`_normalize` left
        pending: ``(hole_specs, pending)``, ``pending`` when the last
        inverter on the path is one that normalizes (:data:`_NORMALIZES`)."""
        if sketch.num_holes != 1:
            specs = self._traced_generic_solve(sketch, spec)
            return None if specs is None else (specs, False)
        target = spec
        node: Node = sketch.root
        tracer = self.tracer
        last, pending = len(sketch.hole_path) - 1, False
        for i, step in enumerate(sketch.hole_path):
            if not isinstance(node, Call):
                return None
            inverter = _INVERTERS.get(node.op)
            if inverter is None:
                specs = self._traced_generic_solve(sketch, spec)
                return None if specs is None else (specs, False)
            siblings: list[SymTensor | None] = [
                None if j == step else self.value(arg) for j, arg in enumerate(node.args)
            ]
            hole_like = node.args[step]
            step_start = time.monotonic() if tracer.enabled else 0.0
            try:
                result = inverter(node, step, siblings, target, hole_like.type)
                pending = result is not None and node.op in _NORMALIZES
                if pending and i < last:  # the next inverter's target
                    result, pending = result.map(_normalize), False
            except Exception:
                if tracer.enabled:
                    tracer.complete(
                        "invert", "solver",
                        start=step_start,
                        duration=time.monotonic() - step_start,
                        op=node.op, outcome="error",
                    )
                return None
            if tracer.enabled:
                tracer.complete(
                    "invert", "solver",
                    start=step_start,
                    duration=time.monotonic() - step_start,
                    op=node.op,
                    outcome="hit" if result is not None else "miss",
                )
            if result is None:
                return None
            target = result
            node = node.args[step]
        if target.shape != sketch.hole.type.shape:
            return None
        return (target,), pending

    def _decomposition_holds(
        self, sketch: Sketch, hole_specs: tuple[SymTensor, ...], spec: SymTensor
    ) -> bool:
        """Re-execute the sketch with its holes bound and compare to the spec.

        Local inverters are individually sound, but this end-to-end check is
        the safety net that keeps any heuristic extraction from poisoning
        the branch-and-bound bound with an invalid low-cost candidate.
        """
        bindings = {h.name: s for h, s in zip(sketch.holes, hole_specs)}
        try:
            return equivalent(spec, symbolic_execute(sketch.root, bindings=bindings))
        except Exception:
            return False
