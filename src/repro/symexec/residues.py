"""Residue batteries: value identity for whole tensors, no SymPy rewriting.

Following TF-Coder's value-based pruning, the synthesizer identifies a
candidate by what it evaluates to on a fixed battery of pseudo-random integer
points rather than by its expression tree.  A tensor's **residue battery** is
an ``int64`` ndarray of shape ``(2, R_POINTS) + tensor.shape``: the value of
every entry at :data:`R_POINTS` battery points, reduced mod two primes just
below ``2**25`` (:data:`Q1`, :data:`Q2`).  It is the one value battery of the
equivalence fast path — the enumerator's dedup, the warm library restore,
MATCH's keyed tier, ``SymTensor.density`` and the first tier of
:func:`repro.symexec.canonical.equivalent` all read it.  Two properties make
it the workhorse:

* **Value-determined**: the battery is a function of the mathematical value,
  never of the expression tree, so *different batteries prove two tensors
  inequivalent* and equality of ``res.tobytes()`` is observational
  equivalence up to Schwartz–Zippel collisions across 8 independent tokens
  per entry (≈ ``2**-160`` for the rational fragment — never observed).  The
  enumerator's dedup and MATCH's keyed probe take an equal battery at its
  word, and the emitted program is verified either way; ``equivalent`` only
  lets a battery refute.
* **Compositional**: :func:`compose` computes the battery of ``op(args)``
  directly from the argument batteries with a handful of vectorized numpy
  operations — matching :mod:`repro.symexec.engine` op semantics exactly on
  the rational fragment — so a grammar candidate is priced *without ever
  building its symbolic tensor*.

Points are derived per symbol name via ``blake2b`` (:func:`_point`), so
batteries are deterministic across processes, runs and machines with no
shared registry.  Symbols created by
:func:`repro.symexec.symtensor.element_symbol` are ``positive=True`` and
sample positive values; boolean-carrier symbols (names ending in ``?``,
appearing only under relations) sample a signed range so both branches of a
predicate are exercised across the battery.

The primes sit below ``2**25`` so any product of two reduced residues stays
under ``2**50`` and a contraction of up to ``2**12`` such products fits in a
signed 64-bit accumulator; every stored battery is fully reduced.

Anything the battery cannot represent faithfully returns ``None`` — an op
outside the supported set, an entry outside the rational fragment (``sqrt``,
``exp``/``log``, ``Max``/``Piecewise``, booleans), a division whose
denominator vanishes at a battery point — and the caller falls back to the
exact symbolic path, so residues can never manufacture a wrong verdict on
their own: a *missing* battery only means "no fast opinion".

The **order tier** (:func:`less`, :func:`order_witnesses`) applies the same
rule — values refute cheaply, the symbolic engine is asked only when they
cannot — to ``x < y``.  Both sides are evaluated *exactly* (``Fraction``, the
same walker with ``p=None``) at :data:`O_POINTS` order points per symbol.
The only thing it may conclude is **"undetermined"**: true at one point and
false at another, so no sound prover can fold the relation, and the
unevaluated ``Lt(x, y, evaluate=False)`` SymPy would hand back after failing
to prove the sign of ``x - y`` is built without the attempt.  The same
outcome at every point proves nothing (it is what ``A < A + B`` looks like,
but also ``A < A + B - 1/1000``), so then — and for anything outside the
fragment — ``sp.Lt`` runs as before; the tier never asserts a truth value.
Order points are not battery points: :func:`_point` samples ``[257, 65793)``,
where ``A < A*B`` holds and ``A*A < A`` fails at *every* point, so they are
rationals ``n/d`` with ``n, d`` in ``[1, 97]``, on both sides of 1.  Only
plain ``positive=True`` symbols have them: a witness must lie in the
symbol's domain, and positive rationals say nothing about a boolean carrier,
an integer or a negative symbol.  :func:`splits` asks the same points for a
strict witness each way, ``x < y`` and ``x > y``: then neither side bounds
the other, and ``canonical`` builds ``Max(x, y)`` without SymPy's lattice
search.

The **weak bucket** (:func:`weak_bucket`) is what is left for a tensor with
no battery — ``sqrt``, ``exp``/``log``, ``Max``/``Piecewise``, booleans: each
entry's class index and the values of its index-class representative (every
symbol ``X[p]`` at ``X[0,…]``'s point) in plain Python float/complex
arithmetic at the first :data:`W_POINTS` order points (so ``sqrt(A - B)``
and SymPy's ``I*sqrt(A)`` have a value), rounded well above float noise.
An entry with mixed indices or a boolean carrier is evaluated as it is.
One definition for every tensor, so an index-class tensor costs one
evaluation: its entries are entry 0 renamed.  Floats are not exact, and
on the predicate fragment the value partition is *coarser* than the
canonical one (``A < 1``, ``2*A < 2`` and ``A*B < B`` are one predicate and
three canonical keys), so a bucket **only separates**: different buckets say
two battery-weak tensors are different classes, an equal bucket says
nothing.  No code path merges two stubs, or returns a stub from MATCH, on
bucket equality alone — every merge and every weak MATCH hit still compares
canonical keys, which are computed only where two buckets collide.  A
wrong bucket (a rounding straddle between two spellings of one function) can
therefore cost a redundant class or a slower MATCH, never a wrong merge.

The **dependence values** (:func:`moved_values`) reuse the exact order-point
walker to prove which symbols an expression *must* mention: its ``Fraction``
value at a base point, and again with each of its input symbols moved alone
to another order point.  If moving only ``x`` changes the exact value of a
function, the function depends on ``x``, so every spelling of it — the
``cancel``ed one included — mentions ``x``; and a non-zero exact value proves
a function is not identically zero.  PRUNE's floor
(:func:`repro.synth.complexity.prune_floor`) is built on exactly these two
facts.  Equal values prove nothing (a coincidence of two points), so an
expression outside the rational fragment, over a symbol that is not plainly
positive, or with a denominator vanishing at a point is "no opinion".

One documented exactness edge: SymPy evaluates ``Float`` arithmetic with
53-bit rounding while :func:`compose` is exact over Q.  Composition is
therefore only offered for sub-values whose constants are integer-valued
(where both agree until coefficients exceed ``2**53``); other constants keep
their candidates on the symbolic path.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import operator
from fractions import Fraction
from functools import lru_cache

import numpy as np
import sympy as sp

from repro.ir.nodes import Call, Const, Node
from repro.ir.ops import fill, get_op
from repro.ir.types import DType
from repro.obs.metrics import bump
from repro.symexec.symtensor import (
    SymTensor,
    class_renaming,
    index_class,
    representative,
    symbol_origin,
)

#: Points per prime.  Four points over two primes give eight independent
#: tokens per entry — far beyond any realistic collision budget.
R_POINTS = 4

#: The two battery primes: the largest primes below ``2**25``.
Q1 = 33554393
Q2 = 33554383

_PRIMES = (Q1, Q2)
_NP = len(_PRIMES)
_QS = np.array(_PRIMES, dtype=np.int64)

#: Safe contraction width: ``4096 * Q1 * Q2 < 2**63`` (int64 accumulator).
_MAX_CONTRACTION = 1 << 12

#: Sample range of a battery point: ``[_OFFSET, _OFFSET + _SPAN)``.
_SPAN = 1 << 16
_OFFSET = 257

#: Order points per symbol, and the range their numerator and denominator
#: are drawn from: rationals ``n/d`` with ``n, d`` in ``[1, _ORDER_RANGE]``,
#: so every symbol takes values on both sides of 1.
O_POINTS = 8
_ORDER_RANGE = 97

#: Order points a weak bucket evaluates at, and the precision it keeps:
#: significant digits of a value's magnitude, never finer than 1e-9 — float
#: noise left by a cancellation (``1e-16`` of the terms) rounds to zero.
W_POINTS = 4
_W_DIGITS = 9

#: What ``element_symbol`` creates: the only symbols the order tier samples.
_POSITIVE = sp.Symbol("_", positive=True).assumptions0

_UNSET = object()


# ---------------------------------------------------------------------------
# The points and their scalar evaluator (rational fragment; mod a prime or exact)
# ---------------------------------------------------------------------------


class _NonRational(Exception):
    """Subtree outside {Add, Mul, Pow^int, Integer, Rational, Float, Symbol}."""


class _WeakPoint(Exception):
    """Value undefined at this point (division by zero, mod the prime or exact)."""


@lru_cache(maxsize=None)
def _point(name: str, i: int) -> int:
    """Deterministic sample value for symbol ``name`` at battery point ``i``."""
    digest = hashlib.blake2b(f"{i}|{name}".encode(), digest_size=8).digest()
    value = _OFFSET + (int.from_bytes(digest, "big") % _SPAN)
    if name.endswith("?"):
        # Boolean carriers appear only as `sym > 0`: straddle zero so the
        # battery exercises both predicate branches.
        return value - _SPAN // 2
    return value


@lru_cache(maxsize=None)
def _order_point(symbol: sp.Symbol, i: int) -> Fraction:
    """Deterministic positive rational for ``symbol`` at order point ``i``.

    Only a plain ``positive=True`` symbol has order points: they are witnesses
    about *its* domain, and a boolean carrier, an integer or a negative symbol
    ranges over another one.
    """
    if symbol.assumptions0 != _POSITIVE:
        raise _NonRational
    digest = hashlib.blake2b(f"ord|{i}|{symbol.name}".encode(), digest_size=8).digest()
    n, d = divmod(int.from_bytes(digest, "big") % _ORDER_RANGE**2, _ORDER_RANGE)
    return Fraction(n + 1, d + 1)


def _inv(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise _WeakPoint
    return pow(a, p - 2, p)


def _eval(expr, i: int, memo: dict, p: int | None):
    """Evaluate ``expr`` at point ``i`` over F_p, or exactly over Q (``p=None``).

    Mod a prime the symbols take their battery points (:func:`_point`) and the
    result is a reduced ``int``; with ``p=None`` they take their *order*
    points (:func:`_order_point`) and the arithmetic is exact (``Fraction``).
    Raises :class:`_NonRational` for any op outside the fragment — in exact
    mode also for a ``Float`` (SymPy rounds its arithmetic to 53 bits, so an
    exact value is not SymPy's) and for a symbol that is not a plain
    ``positive=True`` one — and :class:`_WeakPoint` on division by zero.
    """
    hit = memo.get(expr, _UNSET)
    if hit is not _UNSET:
        return hit
    exact = p is None
    if expr.is_Symbol:
        value = _order_point(expr, i) if exact else _point(expr.name, i)
    elif expr.is_Integer:
        value = int(expr)
    elif expr.is_Rational:
        if exact:
            value = Fraction(int(expr.p), int(expr.q))
        else:
            value = int(expr.p) * _inv(int(expr.q), p)
    elif expr.is_Float and not exact:
        q = sp.Rational(expr)  # exact binary expansion
        value = int(q.p) * _inv(int(q.q), p)
    elif expr.is_Add:
        value = 0
        for arg in expr.args:
            value += _eval(arg, i, memo, p)
    elif expr.is_Mul:
        value = 1
        for arg in expr.args:
            value *= _eval(arg, i, memo, p)
    elif expr.is_Pow and expr.exp.is_Integer:
        base = _eval(expr.base, i, memo, p)
        k = int(expr.exp)
        if k < 0 and base == 0:
            raise _WeakPoint
        value = Fraction(base) ** k if exact else pow(base, k, p)
    else:
        raise _NonRational
    if not exact:
        value %= p
    memo[expr] = value
    return value


# ---------------------------------------------------------------------------
# The order tier: refute ``x < y`` at exact points before SymPy tries to prove
# ---------------------------------------------------------------------------


def order_witnesses(x, y) -> tuple[int, int] | None:
    """Order points ``(i, j)`` with ``x < y`` true at ``i`` and false at ``j``.

    ``None`` is "no opinion": the same outcome at all :data:`O_POINTS`
    points, or a side the exact walker cannot evaluate (outside the rational
    fragment, a ``Float``, a symbol that is not plainly positive, a
    denominator vanishing at a point).
    """
    seen: dict[bool, int] = {}
    try:
        for i in range(O_POINTS):
            memo: dict = {}
            seen.setdefault(_eval(x, i, memo, None) < _eval(y, i, memo, None), i)
            if len(seen) == 2:
                return seen[True], seen[False]
    except (_NonRational, _WeakPoint, AttributeError, TypeError):
        pass
    return None


@lru_cache(maxsize=1 << 14)
def _witnessed(x, y) -> bool:
    return order_witnesses(x, y) is not None


@lru_cache(maxsize=1 << 14)
def _proved(x, y):
    return sp.Lt(x, y)


def less(x, y):
    """``x < y`` as SymPy would build it — the one place ``symexec`` and ``synth`` do.

    ``sp.Lt`` asks SymPy's assumption system to prove the sign of ``x - y``
    and returns ``Lt(x, y, evaluate=False)`` when it cannot.  Two witnesses
    with opposite outcomes show that no sound prover can, so that object is
    built directly; without them SymPy is asked, on the pair's index-class
    representative where it has one (``equiv.order_by_class``).  The tier never
    asserts a truth value.  Witnesses are memoised per pair, proofs per representative,
    bounded (a prover error is not cached); ``equiv.order_*`` count every call.
    """
    if _witnessed(x, y):
        bump("equiv.order_refuted")
        return sp.Lt(x, y, evaluate=False)
    bump("equiv.order_asked")
    found = representative((x, y))
    if found is None:
        return _proved(x, y)
    bump("equiv.order_by_class")
    answer = _proved(*found[0])
    return answer if answer in (sp.true, sp.false) else sp.Lt(x, y, evaluate=False)


#: Order points :func:`splits` searches: any positive point is a witness, and
#: a pair like ``B`` and ``2`` is one-sided at all eight of ``B[0,0]``'s.
_SPLIT_POINTS = 4 * O_POINTS


@lru_cache(maxsize=1 << 14)
def _split(x, y) -> bool:
    seen = set()
    try:
        for i in range(_SPLIT_POINTS):
            memo: dict = {}
            a, b = _eval(x, i, memo, None), _eval(y, i, memo, None)
            if a != b:
                seen.add(a < b)
                if len(seen) == 2:
                    return True
    except (_NonRational, _WeakPoint, AttributeError, TypeError):
        pass
    return False


def splits(x, y) -> bool:
    """Whether order points exist with ``x < y`` and with ``x > y``, both strict.

    Then neither ``x >= y`` nor ``y >= x`` holds on the positive domain, so no
    sound prover shows either.  ``False`` is "no opinion": one-sided or tied
    at every point, or a side the exact walker cannot evaluate.  Decided on
    the pair's index-class representative where it has one, memoised there.
    """
    found = representative((x, y))
    return _split(*(found[0] if found is not None else (x, y)))


def clear_less_memo() -> None:
    """Forget every memoised :func:`less`, :func:`splits` and ``where`` answer (for
    tests that force the tier)."""
    from repro.symexec.engine import _piecewise  # engine imports this module

    for memo in (_witnessed, _proved, _split, _piecewise):
        memo.cache_clear()


# ---------------------------------------------------------------------------
# Dependence values: which symbols every spelling of a function must mention
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _moved_point(symbol: sp.Symbol) -> Fraction:
    """The first order point of ``symbol`` other than its base point (point 0)."""
    base = _order_point(symbol, 0)
    for i in range(1, O_POINTS):
        value = _order_point(symbol, i)
        if value != base:
            return value
    raise _NonRational


@lru_cache(maxsize=1 << 14)
def moved_values(expr) -> tuple[Fraction, dict] | None:
    """``expr`` exactly at the base order point, and with each symbol moved alone.

    Returns ``(base, moved)``: ``base`` is the value with every symbol at its
    order point 0, ``moved[x]`` the value with only ``x`` at its next distinct
    order point.  ``moved[x] != base`` proves ``expr`` depends on ``x`` — so
    every expression equal to it mentions ``x`` — and any non-zero value
    proves it is not identically zero (see the module docstring).  ``None``
    is "no opinion": outside the rational fragment (or a ``Float``), a symbol
    that is not plainly positive (a boolean carrier), a denominator that
    vanishes at one of the points.  Memoised per expression, bounded; the
    ``moved`` dict is shared and must not be mutated.
    """
    try:
        base = _eval(expr, 0, {}, None)
        moved = {}
        for symbol in expr.free_symbols:
            moved[symbol] = _eval(expr, 0, {symbol: _moved_point(symbol)}, None)
    except (_NonRational, _WeakPoint, ZeroDivisionError, AttributeError, TypeError):
        return None
    return base, moved


# ---------------------------------------------------------------------------
# The weak bucket: float values that tell battery-weak tensors apart
# ---------------------------------------------------------------------------

_ORDER_RELATIONS = {
    sp.StrictLessThan: operator.lt,
    sp.LessThan: operator.le,
    sp.StrictGreaterThan: operator.gt,
    sp.GreaterThan: operator.ge,
}


def _value(expr, i: int, memo: dict):
    """``expr`` at order point ``i`` as a Python ``float``, ``complex`` or ``bool``.

    Positive symbols take their order point, boolean carriers (``name?``)
    their signed battery point.  Raises :class:`_NonRational` for anything
    outside the arms below and :class:`_WeakPoint` for a ``Piecewise`` with
    no true arm; Python raises for the rest (``log(0)``, an overflow, an
    order comparison of complex values).
    """
    hit = memo.get(expr, _UNSET)
    if hit is not _UNSET:
        return hit
    if expr.is_Symbol:
        if expr.name.endswith("?"):
            value = float(_point(expr.name, i))
        else:
            value = float(_order_point(expr, i))
    elif expr.is_Rational:
        value = int(expr.p) / int(expr.q)
    elif expr.is_Float:
        value = float(expr)
    elif expr.is_Add:
        value = 0.0
        for arg in expr.args:
            value += _value(arg, i, memo)
    elif expr.is_Mul:
        value = 1.0
        for arg in expr.args:
            value *= _value(arg, i, memo)
    elif expr.is_Pow:
        # A negative base under a fractional exponent is Python's (and
        # SymPy's) principal complex root.
        value = _value(expr.base, i, memo) ** _value(expr.exp, i, memo)
    elif expr is sp.I:
        value = 1j
    elif expr is sp.true or expr is sp.false:
        value = expr is sp.true
    elif isinstance(expr, sp.Max):
        value = max(_value(arg, i, memo) for arg in expr.args)
    elif isinstance(expr, sp.Min):
        value = min(_value(arg, i, memo) for arg in expr.args)
    elif isinstance(expr, sp.Piecewise):
        for arm, cond in expr.args:
            if _value(cond, i, memo):
                value = _value(arm, i, memo)
                break
        else:
            raise _WeakPoint
    elif type(expr) in _ORDER_RELATIONS:
        value = _ORDER_RELATIONS[type(expr)](
            _value(expr.lhs, i, memo), _value(expr.rhs, i, memo)
        )
    elif isinstance(expr, sp.And):
        value = all(_value(arg, i, memo) for arg in expr.args)
    elif isinstance(expr, sp.Or):
        value = any(_value(arg, i, memo) for arg in expr.args)
    elif isinstance(expr, sp.Not):
        value = not _value(expr.args[0], i, memo)
    elif isinstance(expr, sp.exp):
        arg = _value(expr.args[0], i, memo)
        value = math.exp(arg) if isinstance(arg, float) else cmath.exp(arg)
    elif isinstance(expr, sp.log):
        arg = _value(expr.args[0], i, memo)
        value = math.log(arg) if isinstance(arg, float) and arg > 0 else cmath.log(arg)
    elif isinstance(expr, sp.Abs):
        value = abs(_value(expr.args[0], i, memo))
    else:
        raise _NonRational
    if type(value) is complex and value.imag == 0.0:
        value = value.real
    memo[expr] = value
    return value


def _rounded(value):
    """``value`` at :data:`_W_DIGITS` digits of its magnitude (a bool as is)."""
    if value is True or value is False:
        return value
    size = abs(value)
    if not math.isfinite(size):
        raise _WeakPoint
    decimals = _W_DIGITS - 1 - math.floor(math.log10(max(size, 0.1)))
    if type(value) is complex:
        return complex(round(value.real, decimals), round(value.imag, decimals))
    return round(value, decimals)


def weak_bucket(tensor: SymTensor) -> tuple | None:
    """Value bucket of an *executed* tensor, or ``None`` for "no opinion".

    ``(shape, dtype, values, indices)``: every entry's index-class
    representative evaluated by :func:`_value` at :data:`W_POINTS` order
    points and rounded, and every entry's class index
    (:func:`_bucket_values`).  Canonically equal tensors share a bucket, so
    two different buckets prove two tensors are different classes; an equal
    bucket proves nothing (see the module docstring) and callers then
    compare canonical keys.  ``None`` — an entry outside the evaluator's
    arms, a ``nan``, an overflow, a ``Piecewise`` with no true arm — sends
    the caller to the keys straight away.  Memoised on the tensor like
    ``_residues``.
    """
    memo = tensor.__dict__.get("_weak_bucket", _UNSET)
    if memo is not _UNSET:
        return memo
    try:
        out = (tensor.shape, tensor.dtype) + _bucket_values(tensor)
    except (_NonRational, _WeakPoint, ArithmeticError, ValueError, TypeError, AttributeError):
        out = None
    object.__setattr__(tensor, "_weak_bucket", out)
    return out


def _bucket_values(tensor: SymTensor) -> tuple[tuple, tuple]:
    """Each entry's rounded values at the :data:`W_POINTS` order points, taken on
    its index-class representative (every symbol ``X[p]`` at ``X[0,…]``'s
    point), and each entry's class index.

    The indices tell ``sqrt(A)`` from its transpose, whose representatives
    agree.  An entry without a representative (:func:`class_renaming` has no
    opinion) has index ``None`` and is evaluated as it is.  An index-class
    tensor's entries are entry 0 renamed, so entry 0's values stand for
    every entry.
    """
    if index_class(tensor):
        head = tensor.item()
        values = tuple(_rounded(_value(head, i, {})) for i in range(W_POINTS)) * tensor.size
        if not head.free_symbols:
            return values, ((),) * tensor.size
        return values, tuple(np.ndindex(*tensor.shape))
    own: list[dict] = [{} for _ in range(W_POINTS)]
    by_class: list[dict] = [{} for _ in range(W_POINTS)]
    values, indices = [], []
    for e in tensor.entries():
        renaming = class_renaming((e,))
        if renaming is None:
            memos, index = own, None
        else:
            memos = by_class
            index = symbol_origin(next(iter(renaming)))[1] if renaming else ()
        indices.append(index)
        for i in range(W_POINTS):
            for symbol, zero in (renaming or {}).items():
                memos[i][symbol] = float(_order_point(zero, i))
            values.append(_rounded(_value(e, i, memos[i])))
    return tuple(values), tuple(indices)


_QCOLS: dict[int, np.ndarray] = {}


def _qcol(ndim: int) -> np.ndarray:
    """The prime vector shaped to broadcast over a rank-``ndim`` battery."""
    col = _QCOLS.get(ndim)
    if col is None:
        col = _QS.reshape((_NP,) + (1,) * (ndim - 1))
        _QCOLS[ndim] = col
    return col


def _mod(a: np.ndarray) -> np.ndarray:
    """Reduce ``a`` mod the prime column, in place (``a`` must be fresh)."""
    a %= _qcol(a.ndim)
    return a


class _Unsupported(Exception):
    """The battery cannot represent this op application faithfully."""


# ---------------------------------------------------------------------------
# Direct evaluation: battery of an existing symbolic tensor
# ---------------------------------------------------------------------------


def tensor_residues(tensor: SymTensor) -> np.ndarray | None:
    """Residue battery of ``tensor``, or ``None`` if it has no faithful one.

    Memoized on the tensor instance (tensors are immutable).  Non-``None``
    exactly when every entry lies in the rational fragment and every
    division is invertible mod both primes at all battery points.
    """
    memo = tensor.__dict__.get("_residues", _UNSET)
    if memo is not _UNSET:
        return memo
    out: np.ndarray | None = None
    if tensor.dtype is DType.FLOAT:
        arr = np.empty((_NP, R_POINTS) + tensor.shape, dtype=np.int64)
        flat = arr.reshape(_NP, R_POINTS, -1)
        memos = [[{} for _ in range(R_POINTS)] for _ in range(_NP)]
        try:
            for j, e in enumerate(tensor.entries()):
                for k, q in enumerate(_PRIMES):
                    row = memos[k]
                    for i in range(R_POINTS):
                        flat[k, i, j] = _eval(e, i, row[i], q)
            out = arr
            bump("equiv.residue_batteries")
        except (_NonRational, _WeakPoint, AttributeError, TypeError):
            out = None
    object.__setattr__(tensor, "_residues", out)
    return out


def residue_key(shape: tuple, dtype: DType, res: np.ndarray) -> tuple:
    """Hashable identity of a battery: ``(shape, dtype, reduced bytes)``."""
    return (shape, dtype, res.tobytes())


# ---------------------------------------------------------------------------
# Compositional evaluation, mirroring repro.symexec.engine op semantics
# ---------------------------------------------------------------------------


def _bcast(*args: np.ndarray) -> list[np.ndarray]:
    """Numpy trailing-dim broadcasting over the entry dims (prefix fixed)."""
    rank = max(a.ndim for a in args)
    return [
        a if a.ndim == rank else a.reshape(a.shape[:2] + (1,) * (rank - a.ndim) + a.shape[2:])
        for a in args
    ]


def _pow_mod(b: np.ndarray, exponents) -> np.ndarray:
    """``b ** exponents[k]`` mod the ``k``-th prime on its slab (square-and-multiply)."""
    out = np.ones_like(b)
    sq = b.copy()
    for k, (q, e) in enumerate(zip(_PRIMES, exponents)):
        acc, s = out[k], sq[k]
        while e:
            if e & 1:
                acc *= s
                acc %= q
            e >>= 1
            if e:
                s *= s
                s %= q
    return out


def _inv_battery(b: np.ndarray) -> np.ndarray:
    """Vectorized modular inverse per prime slab (Fermat: ``b ** (q - 2)``).

    Callers must already have checked ``b.all()``: a zero residue has no
    inverse and makes the whole battery unrepresentable.
    """
    return _pow_mod(b, [q - 2 for q in _PRIMES])


# Each battery rule takes ``(args, attrs, arg_nodes, inverse)``: the argument
# batteries, the call's attrs, its argument nodes (None when unknown) and
# ``inverse(k)``, the modular inverse of ``args[k]``.  It raises
# :class:`_Unsupported` where the battery cannot be composed.


def _c_elementwise(op: str):
    """``add`` / ``subtract`` / ``multiply`` / ``negative``: the registry rule, reduced."""
    rule = get_op(op).eval
    return lambda args, attrs, arg_nodes=None, inverse=None: _mod(rule(_bcast(*args), attrs))


for _op in ("add", "subtract", "multiply", "negative"):
    fill("battery", _op)(_c_elementwise(_op))
_c_multiply = get_op("multiply").battery


@fill("battery", "divide")
def _c_divide(args, attrs, arg_nodes, inverse):
    """``a * inverse(1)``: one inverse per denominator node, shared (``BatteryTable``)."""
    if not args[1].all():
        # A vanishing denominator residue: the symbolic entry is either
        # genuinely undefined or merely weak at this point — both are for
        # the exact path to decide.
        raise _Unsupported
    return _c_multiply([args[0], inverse(1)], {})


@fill("battery", "dot")
def _c_dot(args, attrs, arg_nodes, inverse):
    a, b = args
    ra, rb = a.ndim - 2, b.ndim - 2
    if ra == 0 or rb == 0:
        # np.dot multiplies elementwise when either side is scalar.
        return _c_multiply(args, attrs)
    if ra > 2 or rb > 2:
        raise _Unsupported  # np.dot's stacked-axes semantics: not mirrored
    x = a if ra == 2 else a.reshape(a.shape[:2] + (1,) + a.shape[2:])
    y = b if rb == 2 else b.reshape(b.shape[:2] + b.shape[2:] + (1,))
    if x.shape[-1] != y.shape[-2] or x.shape[-1] > _MAX_CONTRACTION:
        raise _Unsupported
    out = np.matmul(x, y)
    if rb == 1:
        out = out[..., 0]
    if ra == 1:
        out = out[..., 0, :] if rb == 2 else out[..., 0]
    return _mod(out)


@fill("battery", "tensordot")
def _c_tensordot(args, attrs, arg_nodes, inverse):
    if attrs.get("axes", 2) != 0:
        raise _Unsupported
    a, b = args
    sa, sb = a.shape[2:], b.shape[2:]
    x = a.reshape(a.shape[:2] + sa + (1,) * len(sb))
    y = b.reshape(b.shape[:2] + (1,) * len(sa) + sb)
    return _mod(x * y)


@fill("battery", "transpose")
def _c_transpose(args, attrs, arg_nodes, inverse):
    a = args[0]
    r = a.ndim - 2
    axes = attrs.get("axes")
    if axes is None:
        perm = (0, 1) + tuple(2 + r - 1 - i for i in range(r))
    else:
        perm = (0, 1) + tuple(2 + (ax % r) for ax in axes)
    return np.ascontiguousarray(np.transpose(a, perm))


@fill("battery", "sum")
def _c_sum(args, attrs, arg_nodes, inverse):
    a = args[0]
    r = a.ndim - 2
    axis = attrs.get("axis")
    if axis is None:
        reduce_over = tuple(range(2, a.ndim))
    else:
        reduce_over = (2 + (axis % r),)
    n = 1
    for d in reduce_over:
        n *= a.shape[d]
    if n > _MAX_CONTRACTION:
        raise _Unsupported
    return _mod(a.sum(axis=reduce_over))


@fill("battery", "power")
def _c_power(args, attrs, arg_nodes, inverse):
    """``power`` composes only for a literal scalar integer exponent.

    The exponent must be the *actual* integer, not its residue: ``x**e`` is
    not a function of ``e mod q`` (Fermat), so only a ``Const`` node whose
    true value is visible qualifies — the same integer-valued gate as
    residue registration.  Negative exponents invert the base battery
    (``inverse(0)``: the same shared inverse ``divide`` uses), so a
    vanishing base residue falls back (engine: ``zoo`` → rejected).
    """
    if arg_nodes is None:
        raise _Unsupported
    exp_node = arg_nodes[1]
    if not isinstance(exp_node, Const) or not exp_node.is_scalar:
        raise _Unsupported
    v = exp_node.scalar()
    if not (np.isfinite(v) and v == int(v) and abs(v) < 1 << 20):
        raise _Unsupported
    c = int(v)
    base = args[0]
    if c < 0:
        if not base.all():
            raise _Unsupported
        base = inverse(0)
        c = -c
    return _pow_mod(base, [c] * _NP)


@fill("battery", "full")
def _c_full(args, attrs, arg_nodes, inverse):
    shape = tuple(attrs["shape"])
    a = args[0]
    return np.ascontiguousarray(
        np.broadcast_to(a.reshape(a.shape + (1,) * len(shape)), a.shape + shape)
    )


def compose(
    op: str, attrs: dict, args: list[np.ndarray], arg_nodes=None, inverse=None
) -> np.ndarray | None:
    """Battery of ``op(*args)`` from argument batteries, or ``None``.

    ``None`` (no ``battery`` rule in the op's row, zero denominator,
    oversized contraction) means the caller must build the symbolic tensor
    and take the exact path — exactly the set of candidates whose *own*
    ``tensor_residues`` could disagree with composition, so the two entry
    points always agree whenever both are defined.

    ``arg_nodes`` optionally passes the argument IR nodes alongside their
    batteries; ops whose result is not a function of residues alone
    (``power``: the literal exponent matters) require it.  ``inverse(k)``,
    the modular inverse of ``args[k]``, is computed afresh unless supplied.
    """
    rule = get_op(op).battery
    if rule is None:
        return None
    if inverse is None:
        def inverse(k):
            return _inv_battery(args[k])
    try:
        out = rule(args, attrs, arg_nodes, inverse)
    except _Unsupported:
        return None
    bump("equiv.residue_batteries")
    return out


_NO_ATTRS: dict = {}


class BatteryTable:
    """Batteries of *residue-safe* IR nodes: what :func:`compose` may read.

    The one gate between "this node has a battery" and "candidates built on
    this node may be priced from it without symbolic execution".  The cold
    enumerator and the persistent cache's library restore both go through
    it, so a restored battery is the composition the cold run performed.

    Residue-safe means: inputs, integer-valued constants (where SymPy's
    53-bit ``Float`` arithmetic and exact mod-q arithmetic agree), and calls
    whose arguments are all themselves in the table.  Batteries over other
    constants stay out, so their dependants keep taking the symbolic route
    and a composed battery always matches what :func:`tensor_residues` of
    the executed tensor would produce.
    """

    def __init__(self) -> None:
        self._by_node: dict[Node, np.ndarray] = {}
        #: Modular inverse of a registered node's battery, computed the first
        #: time a ``divide`` or negative ``power`` needs it.
        self._inverses: dict[Node, np.ndarray] = {}

    def get(self, node: Node) -> np.ndarray | None:
        return self._by_node.get(node)

    def _inverse(self, node: Node) -> np.ndarray:
        inv = self._inverses.get(node)
        if inv is None:
            inv = self._inverses[node] = _inv_battery(self._by_node[node])
        return inv

    def compose(self, node: Call) -> np.ndarray | None:
        """Battery of ``node`` from its arguments' batteries (None = no-go)."""
        args = []
        for a in node.args:
            r = self._by_node.get(a)
            if r is None:
                return None
            args.append(r)
        # Compose rules only read attrs; share one empty dict for the common
        # attr-less candidate instead of allocating per candidate.
        attrs = dict(node.attrs) if node.attrs else _NO_ATTRS
        res = compose(
            node.op, attrs, args, arg_nodes=node.args,
            inverse=lambda k: self._inverse(node.args[k]),
        )
        if res is not None and res.shape[2:] != node.type.shape:
            return None  # defensive: semantics drift falls back to symexec
        return res

    def register(self, node: Node, res: np.ndarray) -> None:
        """Expose ``node``'s battery to :meth:`compose` if it is residue-safe."""
        if isinstance(node, Const):
            v = node.value
            try:
                ok = bool(
                    np.all(np.isfinite(v))
                    and np.all(v == np.round(v))
                    and np.all(np.abs(v) < 1 << 20)
                )
            except TypeError:
                ok = False
        elif isinstance(node, Call):
            by_node = self._by_node
            ok = all(a in by_node for a in node.args)
        else:
            ok = True  # Input
        if ok:
            self._by_node[node] = res
