"""Value fingerprints: fast probabilistic inequivalence for symbolic tensors.

The synthesizer's dominant cost is deciding whether two symbolic expressions
denote the same function (``canonical``/``equivalent``, both SymPy-heavy).
Following TF-Coder's value-based pruning, this module evaluates every
expression on a fixed battery of :data:`N_POINTS` pseudo-random integer
points, with arithmetic carried out mod the Mersenne prime ``P = 2**61 - 1``.
The resulting token tuple is the expression's *fingerprint*:

* **different fingerprints ⇒ definitely inequivalent** (sound rejection) —
  callers skip ``expand``/``simplify`` entirely;
* equal fingerprints mean *probably equivalent*: by Schwartz–Zippel the
  collision probability per point for the rational fragment is bounded by
  ``deg/P ≈ 2**-61``; callers confirm through the exact canonical/simplify
  path only on such collisions.

Fingerprints are **value-determined**: the token at each point is a function
of the mathematical value, never of the expression tree.  Rational values
(including those reached through ``sqrt``/``Max``/``Piecewise`` that SymPy
auto-evaluates at integer points, and rational-valued unevaluated forms like
``log(17**5)/log(17)`` — recovered by a high-precision rational rescue)
all map to the same mod-``P`` residue; irrational values map to a 30-digit
decimal token computed from a 50-digit evaluation (20 guard digits).
Whenever a point cannot be tokenized faithfully — division by zero mod ``P``,
``zoo``/``nan``, an evaluation failure — the whole fingerprint is *weak*
(``None``) and callers must fall back to the exact path, so weak points can
never cause a false "inequivalent" verdict.

Points are derived per symbol name via ``blake2b``, so fingerprints are
deterministic across processes, runs, and machines with no shared registry.
Symbols created by :func:`repro.symexec.symtensor.element_symbol` are
``positive=True``; their sample values are positive.  Boolean-carrier
symbols (names ending in ``?``, appearing only under relations) sample a
signed range so both branches of predicates are exercised across the
battery.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from functools import lru_cache

import sympy as sp

from repro.symexec.symtensor import SymTensor

#: The Mersenne prime 2**61 - 1: fast reduction, negligible collision rate.
P = (1 << 61) - 1

#: Battery size.  Collision probability is per-point independent, so eight
#: points push the rational-fragment bound to ~2**-488 per comparison.
N_POINTS = 8

#: Sample magnitude: small enough that depth-2 polynomial values stay far
#: below ``P`` (no accidental wrap), large enough to separate candidates.
_SPAN = 1 << 16
_OFFSET = 257

_UNSET = object()

#: Per-tier event counters; sampled as deltas into ``SearchStats`` by the
#: superoptimizer so they land in the run's metrics rollup.
COUNTERS: dict[str, int] = {
    "residue_batteries": 0,
    "fingerprint_computed": 0,
    "fingerprint_weak": 0,
    "fingerprint_rejects": 0,
    "fingerprint_hits": 0,
    "fingerprint_collisions": 0,
    "sympy_fallbacks": 0,
    "solver_prescreened": 0,
}


def bump(name: str, n: int = 1) -> None:
    COUNTERS[name] = COUNTERS.get(name, 0) + n


def counters_snapshot() -> dict[str, int]:
    """Current counter values, including the intern table's hit/miss stats."""
    from repro.symexec.interning import TABLE

    snap = dict(COUNTERS)
    snap["intern_hits"] = TABLE.hits
    snap["intern_misses"] = TABLE.misses
    return snap


def counters_delta(base: dict[str, int]) -> dict[str, int]:
    """Events since ``base`` (an earlier :func:`counters_snapshot`)."""
    now = counters_snapshot()
    return {k: v - base.get(k, 0) for k, v in now.items() if v - base.get(k, 0)}


# ---------------------------------------------------------------------------
# The point battery
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Fast evaluator for the rational fragment, mod P
# ---------------------------------------------------------------------------


class _NonRational(Exception):
    """Subtree outside {Add, Mul, Pow^int, Integer, Rational, Float, Symbol}."""


class _WeakPoint(Exception):
    """Token undefined at this point (division by zero mod P, ``zoo``, ...)."""


def _inv(a: int, p: int = P) -> int:
    a %= p
    if a == 0:
        raise _WeakPoint
    return pow(a, p - 2, p)


def _eval(expr, i: int, memo: dict, overrides: dict | None = None, p: int = P) -> int:
    """Evaluate ``expr`` at battery point ``i`` over F_p (rational fragment).

    ``overrides`` maps symbols (e.g. solver unknowns) to explicit residues,
    taking precedence over the battery.  ``p`` defaults to the fingerprint
    prime; :mod:`repro.symexec.residues` reuses the same semantics with its
    small vectorization-friendly primes.  Raises :class:`_NonRational` for
    any op outside the fragment and :class:`_WeakPoint` on division by zero.
    """
    hit = memo.get(expr, _UNSET)
    if hit is not _UNSET:
        return hit
    if expr.is_Symbol:
        if overrides is not None:
            v = overrides.get(expr)
            if v is not None:
                return v % p
        value = _point(expr.name, i) % p
    elif expr.is_Integer:
        value = int(expr) % p
    elif expr.is_Rational:
        value = (int(expr.p) % p) * _inv(int(expr.q), p) % p
    elif expr.is_Float:
        q = sp.Rational(expr)  # exact binary expansion
        value = (int(q.p) % p) * _inv(int(q.q), p) % p
    elif expr.is_Add:
        value = 0
        for arg in expr.args:
            value = (value + _eval(arg, i, memo, overrides, p)) % p
    elif expr.is_Mul:
        value = 1
        for arg in expr.args:
            value = value * _eval(arg, i, memo, overrides, p) % p
    elif expr.is_Pow and expr.exp.is_Integer:
        base = _eval(expr.base, i, memo, overrides, p)
        k = int(expr.exp)
        if k < 0 and base == 0:
            raise _WeakPoint
        value = pow(base, k, p)
    else:
        raise _NonRational
    memo[expr] = value
    return value


# ---------------------------------------------------------------------------
# Exact substitution path for the non-rational fragment
# ---------------------------------------------------------------------------


_UNDEFINED = (sp.zoo, sp.nan, sp.oo, -sp.oo)


def _rational_token(num: int, den: int) -> int:
    den %= P
    if den == 0:
        raise _WeakPoint
    return (num % P) * pow(den, P - 2, P) % P


@lru_cache(maxsize=100_000)
def _numeric_token(value: sp.Expr):
    """Value-determined token for an irrational-looking constant.

    A 50-digit evaluation feeds (a) a *rational rescue* — constants whose
    tree SymPy cannot collapse but whose value is rational with a small
    denominator (``log(17**5)/log(17)`` = 5) get the same mod-P token as
    their rational twins — and (b) otherwise a 30-digit decimal string
    token (20 guard digits make the rounding value-determined in practice).
    Returns None when the value cannot be tokenized (weak point).
    """
    try:
        ev = sp.N(value, 50)
    except Exception:
        return None
    if not getattr(ev, "is_Number", False) or getattr(ev, "is_real", None) is False:
        return None
    try:
        f = Fraction(str(ev))
    except (ValueError, ZeroDivisionError):
        return None
    candidate = f.limit_denominator(1 << 30)
    tolerance = (abs(f) + 1) / 10**40
    if abs(f - candidate) <= tolerance:
        try:
            return _rational_token(candidate.numerator, candidate.denominator)
        except _WeakPoint:
            return None
    return ("f", str(sp.Float(ev, 30)))


def _exact_token(expr, i: int):
    """Token via exact substitution + SymPy auto-evaluation (None = weak)."""
    try:
        subs = {s: sp.Integer(_point(s.name, i)) for s in expr.free_symbols}
        value = expr.xreplace(subs) if subs else expr
    except Exception:
        return None
    if value is sp.true or value is sp.false:
        return ("b", value is sp.true)
    try:
        if value.is_Rational:
            return _rational_token(int(value.p), int(value.q))
        if value.is_Float:
            q = sp.Rational(value)
            return _rational_token(int(q.p), int(q.q))
        if value.has(*_UNDEFINED):
            return None
        if value.free_symbols:
            return None
        if isinstance(value, sp.logic.boolalg.Boolean):
            return None  # unresolved relation: cannot tokenize faithfully
    except (_WeakPoint, AttributeError, TypeError):
        return None
    return _numeric_token(value)


# ---------------------------------------------------------------------------
# Public fingerprints
# ---------------------------------------------------------------------------


@lru_cache(maxsize=400_000)
def _expr_fingerprint_cached(expr) -> tuple | None:
    COUNTERS["fingerprint_computed"] += 1
    tokens = []
    for i in range(N_POINTS):
        try:
            tokens.append(_eval(expr, i, {}))
            continue
        except _WeakPoint:
            COUNTERS["fingerprint_weak"] += 1
            return None
        except _NonRational:
            pass
        token = _exact_token(expr, i)
        if token is None:
            COUNTERS["fingerprint_weak"] += 1
            return None
        tokens.append(token)
    return tuple(tokens)


def expr_fingerprint(expr) -> tuple | None:
    """Fingerprint of one expression: a tuple of :data:`N_POINTS` tokens.

    ``None`` means *weak* — the expression could not be tokenized faithfully
    at some point and the caller must use the exact equivalence path.
    Distinct non-None fingerprints prove the expressions inequivalent.
    """
    if not isinstance(expr, sp.Basic):
        try:
            expr = sp.sympify(expr)
        except (sp.SympifyError, TypeError, ValueError):
            return None
    return _expr_fingerprint_cached(expr)


def tensor_fingerprint(tensor: SymTensor) -> tuple | None:
    """Fingerprint of a whole tensor: ``(shape, dtype, entry fingerprints)``.

    Memoized on the tensor instance (tensors are immutable).  ``None`` when
    any entry is weak.
    """
    memo = tensor.__dict__.get("_fingerprint", _UNSET)
    if memo is not _UNSET:
        return memo
    entry_fps = []
    out: tuple | None
    for e in tensor.entries():
        f = expr_fingerprint(e)
        if f is None:
            entry_fps = None
            break
        entry_fps.append(f)
    out = None if entry_fps is None else (tensor.shape, tensor.dtype, tuple(entry_fps))
    object.__setattr__(tensor, "_fingerprint", out)
    return out


# ---------------------------------------------------------------------------
# Generic-solve pre-screen: linear feasibility over F_P
# ---------------------------------------------------------------------------


def _solvable_mod_p(rows: list[list[int]], n: int) -> bool:
    """Is the system ``Σ_j coeff[j]·u_j + const = 0`` consistent over F_P?

    ``rows`` holds ``[coeff_0 .. coeff_{n-1}, const]`` per equation.
    """
    mat = [row[:] for row in rows]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], P - 2, P)
        mat[rank] = [x * inv % P for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [(x - factor * y) % P for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return all(mat[r][n] == 0 for r in range(rank, len(mat)))


def linear_system_infeasible(eqs: list, unknowns: list) -> bool:
    """Pre-screen for the generic solver: ``True`` ⇒ skip ``sp.solve``.

    Evaluates each equation (``expr == 0``) at every battery point with the
    program symbols bound to their sample values, detects linearity in the
    ``unknowns`` by a probe evaluation, and Gaussian-eliminates the residual
    linear system over F_P.  Rejects only when the system is infeasible at
    *all* points: a symbolic solution specializes to a mod-P solution at any
    point where it is defined, so all-points infeasibility means no solution
    exists (up to ~2**-61 bad events per point, and solutions undefined at a
    sample point only shift which points witness feasibility).

    Returns ``False`` (no screening) for nonlinear or non-rational systems.
    """
    if not unknowns:
        return False
    # ``sp.solve(eqs, unknowns)`` silently ignores equations that contain
    # none of the requested unknowns — even unsatisfiable ones (residual
    # sketch rows outside the hole).  Match that semantics exactly: screening
    # on those rows would reject systems ``sp.solve`` goes on to solve.
    unknown_set = set(unknowns)
    eqs = [eq for eq in eqs if unknown_set & eq.free_symbols]
    if not eqs:
        return False
    try:
        for i in range(N_POINTS):
            rows = []
            for eq in eqs:
                memo: dict = {}
                zero = {u: 0 for u in unknowns}
                base = _eval(eq, i, memo, zero)
                coeffs = []
                for u in unknowns:
                    one = dict(zero)
                    one[u] = 1
                    coeffs.append((_eval(eq, i, {}, one) - base) % P)
                probe = {
                    u: _point(f"~probe:{j}", i) for j, u in enumerate(unknowns)
                }
                got = _eval(eq, i, {}, probe)
                want = (
                    base + sum(c * probe[u] for c, u in zip(coeffs, unknowns))
                ) % P
                if got != want:
                    return False  # nonlinear in the unknowns: cannot screen
                rows.append([*coeffs, base % P])
            if _solvable_mod_p(rows, len(unknowns)):
                return False  # feasible at this point: cannot rule out
    except (_NonRational, _WeakPoint, AttributeError, TypeError):
        return False
    return True
