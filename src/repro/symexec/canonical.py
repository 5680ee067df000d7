"""Canonicalization and equivalence of symbolic expressions.

:func:`equivalent` is the one tiered decision of "same function?" for two
symbolic tensors; each tier only settles what it can settle soundly and hands
the rest down:

1. **residue batteries** (:mod:`repro.symexec.residues`) — both tensors have
   one and they differ: inequivalent, without any SymPy rewriting.  A missing
   or an equal battery decides nothing;
2. **hash-consed canonical forms** (:mod:`repro.symexec.interning`) — the
   cheap normal form (``cancel`` + ``expand`` + min/max normalization) is
   computed at most once per expression identity; equal forms are equal
   functions, and forms over different free symbols are different ones;
3. the **radical tier** — one side is a root ``q**(1/k)``: it equals the
   other side ``p`` if ``p`` is provably non-negative and ``p**k`` expands to
   ``q`` (``equiv.radical_confirmed``), and differs from it if ``p**k`` and
   ``q`` differ exactly at an order point (``equiv.radical_refuted``); any
   other pair, and a root neither settles, is handed down;
4. a ``simplify``-based **SymPy fallback** for entries whose canonical forms
   differ over the same symbols — its invocation count is tracked as the
   ``equiv.sympy_fallbacks`` metric (court of last resort).

Order has its own value tier: a top-level ``x < y`` is canonicalised by
expanding both sides and rebuilding it through
:func:`repro.symexec.residues.less`, which lets two exact witnesses refute
the relation before SymPy's assumption system is asked to prove it
(``equiv.order_refuted`` / ``equiv.order_asked``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import sympy as sp

from repro.obs.metrics import bump
from repro.obs.trace import get_tracer
from repro.symexec import residues
from repro.symexec.interning import TABLE as _INTERN
from repro.symexec.residues import tensor_residues
from repro.symexec.symtensor import SymTensor


def _piecewise_to_minmax(expr: sp.Expr) -> sp.Expr:
    """Rewrite two-branch relational Piecewise terms into Min/Max.

    ``np.where(np.less(A, B), B, A)`` symbolically executes to
    ``Piecewise((B, A < B), (A, True))`` while ``np.max(np.stack([A, B]))``
    executes to ``Max(A, B)``.  Both denote the same function; Min/Max is the
    canonical spelling.
    """
    if not expr.has(sp.Piecewise):
        return expr

    def rewrite(pw: sp.Piecewise) -> sp.Expr:
        if len(pw.args) != 2:
            return pw
        (val_true, cond), (val_false, cond2) = pw.args
        if cond2 is not sp.true:
            return pw
        lhs, rhs, flipped = None, None, False
        if isinstance(cond, sp.StrictLessThan) or isinstance(cond, sp.LessThan):
            lhs, rhs = cond.lhs, cond.rhs
        elif isinstance(cond, sp.StrictGreaterThan) or isinstance(cond, sp.GreaterThan):
            lhs, rhs, flipped = cond.lhs, cond.rhs, True
        else:
            return pw
        small, large = (rhs, lhs) if flipped else (lhs, rhs)
        # cond is (small < large): picking `large` when true is Max, `small` is Min.
        if val_true == large and val_false == small:
            return sp.Max(small, large)
        if val_true == small and val_false == large:
            return sp.Min(small, large)
        return pw

    return expr.replace(lambda e: isinstance(e, sp.Piecewise), rewrite)


def _needs_cancel(expr: sp.Expr) -> bool:
    """``cancel`` is expensive; only genuine quotients benefit.

    Positive-integer powers expand fine without it.  Positive *fractional*
    powers (radicals) don't need it either: ``cancel`` treats ``x**(1/2)``
    as an opaque polynomial generator and hands back the same expression
    ``expand`` alone produces — and SymPy already merges same-base radical
    products at construction.  Only exponents that are (or could be)
    negative — actual division — trigger cancellation.
    """
    try:
        for p in expr.atoms(sp.Pow):
            e = p.exp
            if e.is_Rational and e.is_positive:
                continue
            return True
    except (AttributeError, TypeError):
        return False
    return False


def _canonical_impl(expr: sp.Expr) -> sp.Expr:
    if isinstance(expr, sp.StrictLessThan):
        # ``cancel`` leaves a relational alone and ``Relational.expand`` is
        # ``Lt(*expanded sides)``: build that through the order tier, so the
        # sign proof the engine's ``less`` rule was spared is not attempted here.
        try:
            out = residues.less(sp.expand(expr.lhs), sp.expand(expr.rhs))
        except (AttributeError, NotImplementedError):
            out = expr
        return _piecewise_to_minmax(out)
    out = expr
    if _needs_cancel(expr):
        try:
            out = sp.cancel(expr)
        except (sp.PolynomialError, AttributeError, NotImplementedError, TypeError):
            out = expr
    try:
        out = sp.expand(out)
    except (AttributeError, NotImplementedError):
        pass
    return _piecewise_to_minmax(out)


def canonical(expr: sp.Expr) -> sp.Expr:
    """Cheap interned normal form used for key-based matching."""
    return _INTERN.canonical_of(expr, _canonical_impl)


def _srepr(expr: sp.Expr) -> str:
    return _INTERN.srepr_of(expr)


#: Public alias: memoized ``sp.srepr`` shared with cache serialization.
cached_srepr = _srepr


def canonical_key(tensor: SymTensor) -> tuple:
    """Hashable structural key of a symbolic tensor's canonical form."""
    return (
        tensor.shape,
        tensor.dtype,
        tuple(_srepr(canonical(e)) for e in tensor.entries()),
    )


def same_canonical_key(tensor: SymTensor, other: SymTensor | tuple) -> bool:
    """``canonical_key(tensor) == other`` (a key, or a tensor's key), compared entry by
    entry and canonicalised no further than the first entry that differs."""
    if isinstance(other, SymTensor):
        other = (other.shape, other.dtype, (_srepr(canonical(e)) for e in other.entries()))
    return (tensor.shape, tensor.dtype) == tuple(other[:2]) and all(
        _srepr(canonical(e)) == k for e, k in zip(tensor.entries(), other[2])
    )


#: What a SymPy rewrite may raise on an expression it cannot handle: the
#: answer is then "not proven equal".
_REWRITE_ERRORS = (TypeError, NotImplementedError, AttributeError, sp.PolynomialError)


@lru_cache(maxsize=100_000)
def _equivalent_exprs_slow(a: sp.Expr, b: sp.Expr) -> bool:
    try:
        diff = sp.simplify(a - b)
    except _REWRITE_ERRORS:
        return False
    if diff == 0 or diff.is_zero:
        return True
    # simplify does not factor under radicals (sqrt(y^2+2y+1) vs y+1); a
    # factor pass catches perfect powers.
    try:
        diff = sp.simplify(diff.replace(
            lambda e: e.is_Pow and not e.exp.is_Integer,
            lambda e: sp.factor(e.base) ** e.exp,
        ))
    except _REWRITE_ERRORS:
        return False
    return bool(diff == 0 or diff.is_zero)


def _differ_exactly(x: sp.Expr, y: sp.Expr) -> bool:
    """``x`` and ``y`` take different exact values at an order point (the
    base point, or one symbol moved: :func:`residues.moved_values`)."""
    xv, yv = residues.moved_values(x), residues.moved_values(y)
    if xv is None or yv is None:
        return False
    (x0, x_moved), (y0, y_moved) = xv, yv
    return x0 != y0 or any(
        x_moved.get(s, x0) != y_moved.get(s, y0) for s in x_moved.keys() | y_moved.keys()
    )


def _radical_tier(ca: sp.Expr, cb: sp.Expr) -> bool | None:
    """``q**(1/k) == p`` decided by powering, or None (no opinion).

    Confirmed when ``p`` is provably non-negative and ``p**k`` expands to
    ``q``'s canonical form: then ``q**(1/k)`` is the principal root of
    ``p**k``, which is ``p``.  Refuted when ``p**k`` and ``q`` differ exactly
    at an order point: equal functions would give ``q = (q**(1/k))**k = p**k``
    there, whatever the sign of ``p``.  Anything else goes to ``simplify``.
    """
    for root, p in ((ca, cb), (cb, ca)):
        if not (root.is_Pow and root.exp.is_Rational and root.exp.p == 1 and root.exp.q > 1):
            continue
        q, power = root.base, sp.expand(p ** root.exp.q)
        if _differ_exactly(power, q):
            bump("equiv.radical_refuted")
            return False
        if p.is_nonnegative is True and canonical(power) == canonical(q):
            bump("equiv.radical_confirmed")
            return True
    return None


def _sympy_fallback(ca: sp.Expr, cb: sp.Expr) -> bool:
    """Tier 4: exact ``simplify``-based equivalence, counted and traced."""
    bump("equiv.sympy_fallbacks")
    tracer = get_tracer()
    if tracer.enabled:
        tracer.instant("sympy-fallback", "equiv")
    return _equivalent_exprs_slow(ca, cb)


def equivalent_exprs(a: sp.Expr, b: sp.Expr) -> bool:
    """Decide semantic equality of two expressions (sound, may be slow)."""
    ca, cb = canonical(a), canonical(b)
    if ca == cb:
        return True
    if ca.free_symbols != cb.free_symbols:
        return False
    radical = _radical_tier(ca, cb)
    if radical is not None:
        return radical
    return _sympy_fallback(ca, cb)


def equivalent(a: SymTensor, b: SymTensor) -> bool:
    """Decide elementwise semantic equality of two symbolic tensors.

    ``b``'s battery is only asked for when ``a`` has one, so callers put the
    tensor whose battery is already memoised (the spec) first.
    """
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    ra = tensor_residues(a)
    if ra is not None:
        rb = tensor_residues(b)
        if rb is not None and not np.array_equal(ra, rb):
            bump("equiv.fingerprint_rejects")
            return False
    return all(equivalent_exprs(ea, eb) for ea, eb in zip(a.entries(), b.entries()))
