"""Specification complexity — the simplification objective of Section V-A.

The paper estimates how complex a specification is as
``|var(Φ)| * density(Φ)``: the number of unique program inputs referenced by
the symbolic tensor, scaled by the ratio of non-zero elements.

We support two readings of ``|var(Φ)|``:

* ``per_entry`` (default): the *mean* number of unique input element symbols
  per tensor entry.  This is the reading under which reduction sketches
  (``np.sum(??, axis=k)``) are monotone simplifications: the hole of
  ``sum(??, axis=1)`` against ``diag(A @ B)`` has the same *global* symbol
  set as the spec, but each of its entries mentions only 2 symbols instead of
  2n — exactly the progress the search needs to reach
  ``sum(A * B.T, axis=1)``.
* ``global``: the literal whole-tensor unique-symbol count of the paper's
  formula, provided for the ablation benchmarks.

:func:`prune_floor` bounds the complexity of a hole spec from below *before*
SOLVE derives it, so PRUNE can turn a sketch down without the derivation;
:func:`exact_floor` bounds it from the derived hole spec *before*
``cancel`` normalizes it, so PRUNE can turn a sketch down without the
``cancel``.
"""

from __future__ import annotations

from typing import Callable

from repro.ir.nodes import Node
from repro.symexec.residues import moved_values
from repro.symexec.symtensor import SymTensor, input_symbols_of
from repro.synth.sketch import Sketch
from repro.synth.solver import INVERSE_TABLE, Pruned, _is_zero, entry_pairs, entry_rule


def _complexity(symbol_sets: list[set], density: float, mode: str) -> float:
    """``|var| * density`` from the input symbols of each entry."""
    if mode == "global":
        nvars = float(len(set().union(*symbol_sets)))
    elif mode == "per_entry":
        nvars = sum(map(len, symbol_sets)) / len(symbol_sets) if symbol_sets else 0.0
    else:
        raise ValueError(f"unknown complexity mode {mode!r}")
    return nvars * density


def spec_complexity(spec: SymTensor, mode: str = "per_entry") -> float:
    """Complexity of a specification under the given mode (lower = simpler)."""
    return _complexity([input_symbols_of(e) for e in spec.entries()], spec.density(), mode)


def prune_verdict(
    hole_specs: list[SymTensor], current: float, mode: str = "per_entry"
) -> tuple[list[float], Pruned | None]:
    """The paper's PRUNE criterion: each hole spec's complexity, and the
    verdict — None (the sketch survives) iff the *average* complexity of its
    hole specifications is strictly below the current specification
    complexity, else ``Pruned(mean)``."""
    scores = [spec_complexity(h, mode) for h in hole_specs]
    if not scores:
        return scores, None
    mean = sum(scores) / len(scores)
    return scores, (Pruned(mean) if mean >= current else None)


# ---------------------------------------------------------------------------
# PRUNE's floor
# ---------------------------------------------------------------------------


def _nonzero_value(values) -> bool:
    """Some exact value is non-zero: the function is not identically zero."""
    base, moved = values
    return base != 0 or any(v != 0 for v in moved.values())


def _pair_rule(values, symbols) -> tuple[set, bool]:
    """The symbols among ``symbols`` whose move alone changes the exact value
    (every spelling of the function mentions them), and whether some value is
    non-zero (``density`` counts the entry).  ``values`` is ``(base, moved)``
    as :func:`~repro.symexec.residues.moved_values` gives it; a symbol absent
    from ``moved`` has no opinion."""
    base, moved = values
    return {x for x in symbols if moved.get(x, base) != base}, _nonzero_value(values)


def _is_zero_entry(expr) -> bool:
    """The inverters' ``_is_zero``, answered without SymPy by a non-zero value."""
    values = moved_values(expr)
    if values is not None and _nonzero_value(values):
        return False
    return _is_zero(expr)


def _keeps_dependence(expr, values, multiplicative: bool) -> bool:
    """Whether combining with ``expr`` keeps a dependence ``expr`` lacks:
    ``expr`` is finite (a rational function with exact values is; ``zoo``
    would swallow the other side) and, under ``*`` and ``/``, not
    identically zero."""
    if values is not None:
        return not multiplicative or _nonzero_value(values)
    if getattr(expr, "is_finite", None) is not True:
        return False
    return not multiplicative or expr.is_zero is False


def _entry_floor(t, o, f, multiplicative: bool) -> tuple[set, bool]:
    """Symbols every spelling of ``h = f(t, o)`` mentions, and whether ``h``
    is provably not zero.

    Pair rule: a symbol counts if the exact value of ``h`` changes when only
    it moves.  Set rule, for the symbols the pair rule cannot decide (a side
    with no opinion, a vanishing denominator): a proven dependence of one
    side on a symbol the other side does not mention survives ``f`` if the
    other side is provably finite — and, under ``*`` and ``/``, provably not
    zero (:func:`_keeps_dependence`).
    """
    t_vals, o_vals = moved_values(t), moved_values(o)
    t_syms, o_syms = input_symbols_of(t), input_symbols_of(o)
    proven: set = set()
    nonzero = False
    if t_vals is not None and o_vals is not None:
        (t0, t_moved), (o0, o_moved) = t_vals, o_vals
        try:
            h0 = f(t0, o0)
        except ZeroDivisionError:
            h0 = None
        if h0 is not None:
            h_moved = {}
            for x in t_syms | o_syms:
                try:
                    h_moved[x] = f(t_moved.get(x, t0), o_moved.get(x, o0))
                except ZeroDivisionError:
                    pass
            proven, nonzero = _pair_rule((h0, h_moved), h_moved)
    for vals, syms, other, other_vals, other_syms in (
        (t_vals, t_syms, o, o_vals, o_syms),
        (o_vals, o_syms, t, t_vals, t_syms),
    ):
        if vals is None:
            continue
        base, moved = vals
        dependent = {x for x in syms - other_syms - proven if moved[x] != base}
        if dependent and _keeps_dependence(other, other_vals, multiplicative):
            proven |= dependent
    return proven, nonzero or bool(proven)


def prune_floor(
    sketch: Sketch,
    spec: SymTensor,
    value: Callable[[Node], SymTensor],
    mode: str = "per_entry",
) -> float | None:
    """A lower bound on the mean hole complexity PRUNE would score, or None.

    Computed before SOLVE derives anything, for a single-hole sketch whose
    hole is a direct argument of a root with a row in the solver's
    :data:`~repro.synth.solver.INVERSE_TABLE` (``add``/``subtract``/
    ``multiply``/``divide`` without unbroadcasting, ``tensordot(axes=0)``).
    It pairs entries as the inverter does (:func:`entry_pairs`) and takes
    each hole entry's rule from the same row (:func:`entry_rule`, with an
    exact-value zero test); per hole entry ``h = f(t, o)`` it counts the
    symbols exact evaluation proves ``h`` depends on and the entries it
    proves non-zero (:func:`_entry_floor`).  Every spelling of ``h`` — the
    ``cancel``ed hole spec PRUNE would score included — mentions each such
    symbol, and ``density`` counts each such entry, so the bound holds for
    any normal form.  ``value`` gives the known argument's symbolic value.

    ``None`` is "no opinion": any other op, a multi-step hole path, several
    holes, or a query the inverter would give up on (a zero divisor, no
    outer-product probe, an index it cannot reach) or unbroadcast.
    """
    if sketch.num_holes != 1 or len(sketch.hole_path) != 1:
        return None
    root, pos = sketch.root, sketch.hole_path[0]
    row = INVERSE_TABLE.get((root.op, pos))
    if row is None:
        return None
    hole_shape = root.args[pos].type.shape
    try:
        paired = entry_pairs(root, pos, spec, value(root.args[1 - pos]), hole_shape)
    except (ValueError, IndexError):
        return None
    if paired is None or paired[0] != hole_shape or not paired[1]:
        return None  # no pairing, one the inverter unbroadcasts, no entries
    symbol_sets: list[set] = []
    nonzero = 0
    for t, o in paired[1]:
        rule = entry_rule(root.op, pos, t, o, _is_zero_entry)
        if rule is None:
            return None
        proven, is_nonzero = _entry_floor(t, o, rule, row.multiplicative)
        symbol_sets.append(proven)
        nonzero += is_nonzero
    return _complexity(symbol_sets, nonzero / len(symbol_sets), mode)


def exact_floor(hole_specs, mode: str = "per_entry") -> float:
    """A lower bound on the mean hole complexity PRUNE would score, taken on
    hole specs whose last inverter step has not been through ``cancel`` yet.

    ``cancel`` changes the spelling of an entry, not its value, so
    :func:`_pair_rule` on the entry's exact values
    (:func:`~repro.symexec.residues.moved_values`) holds for the normalized
    entry: each symbol whose move changes the value is mentioned, and an
    entry with a non-zero value is counted by ``density``.  An entry with no
    exact values (outside the rational fragment, a vanishing denominator)
    counts nothing, which keeps the bound a bound.
    """
    scores = []
    for spec in hole_specs:
        symbol_sets: list[set] = []
        nonzero = 0
        for e in spec.entries():
            values = moved_values(e)
            if values is None:
                symbol_sets.append(set())
                continue
            proven, is_nonzero = _pair_rule(values, input_symbols_of(e))
            symbol_sets.append(proven)
            nonzero += is_nonzero
        density = nonzero / len(symbol_sets) if symbol_sets else 0.0
        scores.append(_complexity(symbol_sets, density, mode))
    return sum(scores) / len(scores)
