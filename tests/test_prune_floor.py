"""PRUNE's floor: a sketch is turned down before SOLVE derives anything.

``complexity.prune_floor`` bounds the mean hole complexity of the hole spec
SOLVE would derive from below, from exact values alone
(``residues.moved_values``): a symbol whose move changes an entry's value is
mentioned by every spelling of it, a non-zero value is counted by
``density``.  The oracle throughout is the derivation itself —
``SketchSolver._derive`` and ``spec_complexity`` of what it produces.

(a) the floor never exceeds the exact mean, and never cuts a query that would
be solved, on every SOLVE query of the suite_search kernels (and
``vec_lerp``); the same holds for ``complexity.exact_floor``, asked on the
derived hole spec before ``cancel`` normalizes it; (b) a proven dependence
survives every rewrite, a random floor (and a random exact floor) is below
its derivation, and every row of the inverse table the floor shares with the
inverters solves its op; (c) a forced no-opinion floor and a
forced zero floor reproduce every outcome; (d) what has no opinion; (e) ``global``
mode; and the trace says why a floor-pruned sketch was dropped.
"""

import operator
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.bench.suite import get_benchmark
from repro.cost import make_cost_model
from repro.ir.nodes import Call, Const, Input
from repro.ir.types import DType, TensorType
from repro.obs.trace import Tracer, install_tracer
from repro.symexec import residues
from repro.symexec.canonical import canonical
from repro.symexec.residues import _order_point, moved_values
from repro.symexec.symtensor import SymTensor, element_symbol
from repro.synth import SynthesisConfig, search
from repro.synth.complexity import exact_floor, prune_floor, spec_complexity
from repro.synth.sketch import Hole, Sketch
from repro.synth.solver import (
    INVERSE_TABLE,
    SketchSolver,
    _is_zero,
    _normalized,
    invert_entry,
)
from repro.synth.superoptimizer import superoptimize_program, superoptimize_source

CONFIG = SynthesisConfig(timeout_seconds=300)
SQUARE = {"A": (2, 2), "B": (2, 2)}

A0, A1 = element_symbol("A", (0,)), element_symbol("A", (1,))
B0, B1 = element_symbol("B", (0,)), element_symbol("B", (1,))
C = element_symbol("C", (0,), boolean=True)  # the relational ``C[0]? > 0``


#: Kernels outside the suite: ``(source, shapes)``.  ``common_factor`` asks
#: ``multiply(A, ??)`` of ``A*B*C + A*C``, whose hole entry
#: ``(A*B*C + A*C)/A`` mentions ``A`` only until ``cancel`` runs.
_SOURCES = {
    "diag_dot_2x2": ("np.diag(np.dot(A, B))", SQUARE),
    "common_factor": ("A * B * C + A * C", {"A": (2,), "B": (2,), "C": (2,)}),
}


def _run(kernel, config=CONFIG):
    if kernel in _SOURCES:
        source, shapes = _SOURCES[kernel]
        return superoptimize_source(source, shapes, config=config)
    bench = get_benchmark(kernel)
    model = make_cost_model("flops", dim_map=bench.dim_map)
    return superoptimize_program(bench.parse_synth(), cost_model=model, config=config)


def _counter(result, name):
    return result.stats.metrics.snapshot()["counters"].get(name, 0)


def _tensor(*entries, shape=None) -> SymTensor:
    data = np.array(entries, dtype=object)
    return SymTensor(data.reshape(shape) if shape else data, DType.FLOAT)


def _sketch(op, pos, hole_shape, other_shape, **attrs) -> Sketch:
    """``op`` with a hole at ``pos`` and a known input ``K`` at the other side."""
    hole = Hole(0, TensorType(DType.FLOAT, hole_shape))
    known = Input("K", TensorType(DType.FLOAT, other_shape))
    args = [known, known]
    args[pos] = hole
    return Sketch(root=Call(op, args, **attrs), holes=(hole,), hole_paths=((pos,),))


def _exact_mean(sketch, spec, other, mode="per_entry"):
    """What PRUNE scores: ``spec_complexity`` of the derived hole spec, or None."""
    solver = SketchSolver(CONFIG)
    solver.value = lambda node: other
    derived = solver._derive(sketch, spec)
    if derived is None:
        return None
    return sum(spec_complexity(h, mode) for h in derived) / len(derived)


# -- (a) the oracle on every SOLVE query ---------------------------------------------


def _install_oracle(monkeypatch):
    """Check every floor the search asks for against the derivation it skips."""
    seen = {"queries": 0, "floored": 0}
    real = search.SearchContext._floor_prune

    def checked(self, sketch, spec, score):
        mode = self.config.complexity_mode
        floor = prune_floor(sketch, spec, self.solver.value, mode)
        derived = self.solver._derive(sketch, spec)
        mean = None
        if derived is not None:
            mean = sum(spec_complexity(h, mode) for h in derived) / len(derived)
            assert floor is None or floor <= mean, (sketch, floor, mean)
        pruned = real(self, sketch, spec, score)
        seen["queries"] += 1
        if pruned is not None:
            # Only what exact PRUNE turns down, or SOLVE cannot solve, is cut.
            assert mean is None or mean >= score, (sketch, pruned, mean, score)
            assert pruned.mean_complexity == floor >= score
            seen["floored"] += 1
        return pruned

    monkeypatch.setattr(search.SearchContext, "_floor_prune", checked)
    return seen


@pytest.mark.parametrize(
    "kernel",
    ["synth_11", "synth_12", "synth_1", "diag_dot_2x2"]
    + [pytest.param(k, marks=pytest.mark.slow)
       for k in ("synth_5", "sum_diag_dot", "diag_dot", "vec_lerp")],
)
def test_floor_never_exceeds_the_exact_mean(kernel, monkeypatch):
    seen = _install_oracle(monkeypatch)
    result = _run(kernel)
    assert result.improved
    assert seen["floored"] == _counter(result, "solver.floor_pruned") > 0
    # Every query missed the (absent) cache: each was floor-pruned or solved.
    assert seen["queries"] == result.stats.solver_calls + seen["floored"]


def _install_cancel_oracle(monkeypatch):
    """Check every floor taken before ``cancel`` against the normalized hole
    specs it spares, and every cut against exact PRUNE on them."""
    seen = {"checked": 0, "cut": 0}
    real = SketchSolver.solve_all

    def checked_solve_all(self, sketch, spec, keep=None, keep_raw=None):
        def checked(hole_specs):
            floor = exact_floor(hole_specs, self.config.complexity_mode)
            normalized = _normalized(hole_specs)
            if normalized is not None:
                mean = sum(
                    spec_complexity(h, self.config.complexity_mode) for h in normalized
                ) / len(normalized)
                assert floor <= mean, (sketch, floor, mean)
            pruned = keep_raw(hole_specs)
            seen["checked"] += 1
            if pruned is not None:
                # Only what exact PRUNE turns down, or SOLVE cannot solve, is cut.
                assert normalized is None or keep(normalized) is not None, (sketch, pruned)
                assert pruned.mean_complexity == floor and pruned.before_cancel
                seen["cut"] += 1
            return pruned

        return real(self, sketch, spec, keep, checked if keep_raw else None)

    monkeypatch.setattr(SketchSolver, "solve_all", checked_solve_all)
    return seen


@pytest.mark.parametrize(
    "kernel",
    ["synth_11", "synth_12", "synth_1", "diag_dot_2x2"]
    + [pytest.param(k, marks=pytest.mark.slow)
       for k in ("synth_5", "sum_diag_dot", "diag_dot", "common_factor")],
)
def test_floor_before_cancel_never_exceeds_the_exact_mean(kernel, monkeypatch):
    seen = _install_cancel_oracle(monkeypatch)
    result = _run(kernel)
    assert result.improved
    assert seen["cut"] == _counter(result, "solver.pruned_before_cancel") > 0
    assert seen["checked"] <= result.stats.solver_calls
    counters = result.stats.metrics.snapshot()["counters"]
    for total in ("solver.pruned_before_cancel", "solver.floor_pruned"):
        per_op = [v for k, v in counters.items() if k.startswith(total + ".")]
        assert sum(per_op) == counters.get(total, 0), total


# -- (b) properties ------------------------------------------------------------------

_LEAVES = st.sampled_from(
    [A0, A1, B0, B1, sp.Integer(1), sp.Integer(2), sp.Integer(-3), sp.Rational(1, 2)]
)


def _grow(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        pairs.map(lambda p: p[0] + p[1]),
        pairs.map(lambda p: p[0] - p[1]),
        pairs.map(lambda p: p[0] * p[1]),
        pairs.map(lambda p: p[0] / p[1]),
        children.map(lambda e: e**2),
    )


_EXPRS = st.recursive(_LEAVES, _grow, max_leaves=6)
#: With a leaf outside the rational fragment: the set rule's ground.
_MIXED = st.recursive(_LEAVES | st.just(sp.sqrt(B1)), _grow, max_leaves=6)
_PROPERTY = settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@_PROPERTY
@given(_EXPRS)
def test_a_proven_dependence_survives_every_rewrite(expr):
    values = moved_values(expr)
    assume(values is not None)
    base, moved = values
    proven = {x for x, v in moved.items() if v != base}
    nonzero = base != 0 or any(v != 0 for v in moved.values())
    for form in (sp.cancel(expr), sp.expand(expr), sp.factor(expr), canonical(expr)):
        assert proven <= form.free_symbols, form
        if nonzero:
            assert not _is_zero(form), form


_ROOTS = [(op, pos) for op in ("add", "subtract", "multiply", "divide") for pos in (0, 1)]


@_PROPERTY
@given(_MIXED, _MIXED)
def test_a_random_floor_is_below_its_derivation(t, o):
    other = _tensor(o)
    for op, pos in _ROOTS + [("tensordot", 0), ("tensordot", 1)]:
        if op == "tensordot":
            sketch, spec = _sketch(op, pos, (1,), (1,), axes=0), _tensor(t, shape=(1, 1))
        else:
            sketch, spec = _sketch(op, pos, (1,), (1,)), _tensor(t)
        floor = prune_floor(sketch, spec, lambda node: other)
        mean = _exact_mean(sketch, spec, other)
        if floor is not None and mean is not None:
            assert floor <= mean, (op, pos, t, o, floor, mean)


#: A quotient whose denominator divides its expanded numerator, as an
#: inverter builds it: ``(A0*B0 + B0)/B0`` mentions ``B0`` only until ``cancel``.
_UNCANCELLED = st.tuples(_MIXED, _MIXED).map(lambda ab: sp.expand(ab[0] * ab[1]) / ab[1])


@_PROPERTY
@given(_UNCANCELLED | _MIXED, _UNCANCELLED)
def test_a_random_exact_floor_is_below_its_normalization(e1, e2):
    """``exact_floor`` on entries as an inverter builds them, against PRUNE's
    score of them after ``cancel``."""
    raw = (_tensor(e1, e2),)
    normalized = _normalized(raw)
    assume(normalized is not None)
    for mode in ("per_entry", "global"):
        assert exact_floor(raw, mode) <= spec_complexity(normalized[0], mode), (e1, e2, mode)


#: Each table op applied to its operands in hole order (``tensordot(axes=0)``
#: is a product per entry).
_OP = {"add": operator.add, "subtract": operator.sub, "multiply": operator.mul,
       "divide": operator.truediv, "tensordot": operator.mul}


#: Rational entries with exact values (no ``zoo``), zero among them.
_RATIONAL = (_EXPRS | st.just(sp.S.Zero)).filter(lambda e: moved_values(e) is not None)


@_PROPERTY
@given(_RATIONAL, _RATIONAL)
def test_every_table_row_is_an_inverse(t, o):
    """The one table SOLVE and PRUNE's floor read: ``h`` solves ``op`` for the
    entry, and its exact values are the row's ``f`` of the operands' values."""
    zero = {side for side, e in (("t", t), ("o", o)) if _is_zero(e)}
    for (op, pos), row in INVERSE_TABLE.items():
        h = invert_entry(op, pos, t, o)
        if row.zero_literal and "o" in zero:
            assert (h is None) if "t" not in zero else (h == 0), (op, pos, t, o, h)
            continue
        if zero & set(row.gives_up):
            assert h is None, (op, pos, t, o, h)
            continue
        args = (h, o) if pos == 0 else (o, h)
        assert sp.cancel(_OP[op](*args) - t) == 0, (op, pos, t, o, h)
        if moved_values(h) is None:
            continue  # a denominator of h vanishes at an order point
        (h0, h_moved), (t0, t_moved), (o0, o_moved) = map(moved_values, (h, t, o))
        for x in {None} | set(h_moved) | set(t_moved) | set(o_moved):  # None: base point
            try:
                expected = row.f(Fraction(t_moved.get(x, t0)), Fraction(o_moved.get(x, o0)))
            except ZeroDivisionError:
                continue
            assert h_moved.get(x, h0) == expected, (op, pos, t, o, h, x)


# -- (c) forcing the floor changes no outcome ----------------------------------------


@pytest.mark.parametrize(
    "kernel",
    ["synth_11", "synth_12", "synth_1", "diag_dot_2x2",
     pytest.param("synth_5", marks=pytest.mark.slow),
     pytest.param("sum_diag_dot", marks=pytest.mark.slow)],
)
def test_forced_floors_reproduce_every_outcome(kernel, monkeypatch):
    results = {"as is": _run(kernel)}
    for name, forced in (("None", None), ("0.0", 0.0)):
        monkeypatch.setattr(search, "prune_floor", lambda *a, forced=forced, **k: forced)
        residues.clear_less_memo()  # each forcing re-derives its relationals
        results[name] = _run(kernel)
    base = results["as is"]
    for name, other in results.items():
        assert other.optimized_source == base.optimized_source, name
        assert (other.original_cost, other.optimized_cost, other.improved) == (
            base.original_cost, base.optimized_cost, base.improved), name
        for count in ("search.nodes_expanded", "search.prune.bound",
                      "search.base_case_matches", "search.memo_hits", "solver.verified"):
            assert _counter(other, count) == _counter(base, count), (name, count)
    unfloored = results["None"]
    assert _counter(unfloored, "solver.floor_pruned") == 0
    assert unfloored.stats.solver_calls == (
        base.stats.solver_calls + base.stats.solver_floor_pruned
    )
    # The floor only turns unsolvable queries into pruned ones, never a solved one.
    assert base.stats.pruned_simplification >= unfloored.stats.pruned_simplification


# -- (d) what has no opinion ---------------------------------------------------------


def _vanishing_at(symbol, i):
    return 1 / (symbol - _order_point(symbol, i))


@pytest.mark.parametrize(
    "expr",
    [
        sp.sqrt(A0),
        sp.exp(A0),
        sp.log(A0 + 1),
        sp.Piecewise((A0, C), (B0, True)),
        C,
        sp.Symbol("C[0]?", real=True),  # a boolean carrier alone
        sp.Symbol("u", real=True),  # not plainly positive
        sp.Float(0.5) * A0,
        _vanishing_at(A0, 0) + B0,  # the denominator vanishes at the base point
    ],
    ids=["sqrt", "exp", "log", "piecewise", "relational", "carrier", "real-symbol",
         "float", "base-pole"],
)
def test_no_opinion_entries(expr):
    assert moved_values(expr) is None


def test_a_denominator_vanishing_at_the_moved_point_has_no_opinion():
    moved = next(i for i in range(1, 8) if _order_point(A0, i) != _order_point(A0, 0))
    assert moved_values(_vanishing_at(A0, moved)) is None
    assert moved_values(_vanishing_at(A0, moved) + sp.sqrt(B0)) is None


def test_rational_entries_have_an_opinion():
    base, moved = moved_values(A0 * B0 + 3)
    assert set(moved) == {A0, B0} and all(v != base for v in moved.values())
    base, moved = moved_values(A0 / A0 + B0 - B0 + 5)  # SymPy folds it to 6
    assert (base, moved) == (6, {})
    base, moved = moved_values(sp.Rational(1, 2) * A0**-2)
    assert moved[A0] != base


@pytest.mark.parametrize(
    "sketch,spec,other",
    [
        (_sketch("dot", 0, (2,), (2,)), _tensor(A0 * B0 + A1 * B1, shape=()), _tensor(B0, B1)),
        (_sketch("add", 0, (), (2,)), _tensor(A0, A1), _tensor(B0, B1)),  # unbroadcast
        (_sketch("tensordot", 0, (1,), (1,), axes=1), _tensor(A0 * B0, shape=()), _tensor(B0)),
        (_sketch("divide", 0, (1,), (1,)), _tensor(A0), _tensor(sp.S.Zero)),  # zero divisor
        (_sketch("divide", 1, (1,), (1,)), _tensor(sp.S.Zero), _tensor(A0)),  # 0 = o / h
        (_sketch("multiply", 0, (1,), (1,)), _tensor(A0), _tensor(sp.S.Zero)),  # h * 0 = A
        (_sketch("tensordot", 0, (1,), (1,), axes=0), _tensor(A0, shape=(1, 1)),
         _tensor(sp.S.Zero)),  # no outer-product probe
    ],
    ids=["dot", "unbroadcast", "contracting-tensordot", "zero-divisor", "zero-quotient",
         "zero-factor", "no-probe"],
)
def test_no_opinion_sketches(sketch, spec, other):
    assert prune_floor(sketch, spec, lambda node: other) is None


def test_multi_step_paths_and_two_holes_have_no_opinion():
    typ = TensorType(DType.FLOAT, (1,))
    hole, known = Hole(0, typ), Input("K", typ)
    nested = Sketch(Call("add", [Call("sqrt", [hole]), known]), (hole,), ((0, 0),))
    two = Sketch(Call("add", [hole, Hole(1, typ)]), (hole, Hole(1, typ)), ((0,), (1,)))
    spec = _tensor(A0 + B0)
    assert prune_floor(nested, spec, lambda node: _tensor(B0)) is None
    assert prune_floor(two, spec, lambda node: _tensor(B0)) is None


def test_zero_times_zero_is_the_inverters_literal_zero():
    sketch = _sketch("multiply", 0, (2,), (2,))
    spec, other = _tensor(sp.S.Zero, A0 * B1), _tensor(sp.S.Zero, B1)
    # h = [0, A0]: half a symbol per entry, half the entries non-zero.
    assert prune_floor(sketch, spec, lambda node: other) == 0.25 == _exact_mean(sketch, spec, other)


def test_set_rule_when_a_side_has_no_opinion():
    # h = sqrt(A0) - B0: the spec side has no opinion, B0 is proven by the
    # known side alone; sqrt(A0) is never zero, so the quotient keeps it too.
    spec, other = _tensor(sp.sqrt(A0)), _tensor(B0)
    for op in ("add", "multiply"):
        sketch = _sketch(op, 0, (1,), (1,))
        assert prune_floor(sketch, spec, lambda node: other) == 1.0
        assert _exact_mean(sketch, spec, other) == 2.0


def test_an_infinite_side_keeps_no_dependence():
    # A0 - zoo and A0 / zoo collapse to zoo and 0: nothing is mentioned.
    spec, other = _tensor(A0), _tensor(sp.zoo)
    for op in ("add", "multiply"):
        sketch = _sketch(op, 0, (1,), (1,))
        assert prune_floor(sketch, spec, lambda node: other) == 0.0 == _exact_mean(sketch, spec, other)


def test_pair_rule_sees_through_shared_symbols():
    # h = (A0*B0 + B0) / B0 = A0 + 1: B0 occurs on both sides and cancels.
    sketch = _sketch("multiply", 0, (1,), (1,))
    spec, other = _tensor(A0 * B0 + B0), _tensor(B0)
    assert prune_floor(sketch, spec, lambda node: other) == 1.0 == _exact_mean(sketch, spec, other)


def test_known_constant_broadcasts_like_the_inverter():
    hole = Hole(0, TensorType(DType.FLOAT, (2,)))
    sketch = Sketch(Call("subtract", [hole, Const(2.0)]), (hole,), ((0,),))
    spec, other = _tensor(A0 * B0 - 2, A1 - 2), _tensor(sp.Integer(2), shape=())
    assert prune_floor(sketch, spec, lambda node: other) == 1.5 == _exact_mean(sketch, spec, other)


# -- (e) global mode -------------------------------------------------------------------


def test_global_mode_counts_the_union_of_proven_symbols():
    sketch = _sketch("add", 0, (2,), (2,))
    spec, other = _tensor(A0 + B0, A1 + B1), _tensor(B0, B1)
    assert prune_floor(sketch, spec, lambda node: other, "global") == 2.0
    assert prune_floor(sketch, spec, lambda node: other, "per_entry") == 1.0
    assert _exact_mean(sketch, spec, other, "global") == 2.0


@pytest.mark.parametrize(
    "kernel", ["synth_1", "synth_11", pytest.param("diag_dot_2x2", marks=pytest.mark.slow)]
)
def test_global_mode_floor_never_exceeds_the_exact_mean(kernel, monkeypatch):
    seen = _install_oracle(monkeypatch)
    result = _run(kernel, CONFIG.replace(complexity_mode="global"))
    assert seen["floored"] == _counter(result, "solver.floor_pruned") > 0


# -- the trace says why a sketch was dropped -------------------------------------------


def test_floor_prunes_are_traced_without_a_solve_span():
    tracer = install_tracer(Tracer())
    try:
        result = _run("synth_1")
    finally:
        install_tracer(None)
    events = tracer.events()
    floors = [e for e in events if e["name"] == "prune" and e["args"]["reason"] == "floor"]
    assert len(floors) == result.stats.solver_floor_pruned > 0
    for e in floors:
        assert e["args"]["floor"] >= e["args"]["complexity"]
    spans = [e for e in events if e["name"] == "solver-floor"]
    assert len(spans) == len(floors)
    assert all(e["args"]["outcome"] == "pruned" for e in spans)
    assert sum(e["name"] == "solve" for e in events) == result.stats.solver_calls


def test_prunes_before_cancel_are_traced_as_simplification():
    tracer = install_tracer(Tracer())
    try:
        result = _run("synth_1")
    finally:
        install_tracer(None)
    prunes = [e for e in tracer.events() if e["name"] == "prune"]
    early = [e for e in prunes if e["args"].get("before_cancel")]
    assert len(early) == _counter(result, "solver.pruned_before_cancel") > 0
    for e in early:
        assert e["args"]["reason"] == "simplification"
        assert e["args"]["hole_complexity"] >= e["args"]["complexity"]
    simplification = [e for e in prunes if e["args"]["reason"] in ("simplification", "floor")]
    assert len(simplification) == result.stats.pruned_simplification
