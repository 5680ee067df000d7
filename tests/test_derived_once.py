"""Every fact the enumerator derives about a candidate is derived once — and is the fresh one.

Five pure functions of a candidate are memoised, each keyed by exactly what
it depends on:

* a denominator's modular inverse, per node on the ``BatteryTable``
  (``divide`` and negative-exponent ``power`` compositions share it);
* an op's cost, per op signature on the cost model (``CostModel.call_cost``);
* a candidate's const-tree and shape-pinned bits, from its arguments' bits
  (``StubEnumerator._facts``);
* ``residues.less``: its witnesses per ``(x, y)``, its proof per index-class
  representative (``symtensor.representative``);
* every elementwise op over index-class tensors — ``less`` and ``where``
  included — executed once per class and renamed into the other entries
  (DESIGN.md, decision 26).

The weak tier compares canonical forms entry by entry instead of whole keys.
The oracle throughout is the unmemoised computation: ``_inv_battery``
afresh, a fresh model's ``_price``, the tree walks the bits replaced,
``sp.Lt`` and ``sp.Piecewise`` built on the entry itself, and eager
``canonical_key`` equality.  (a)–(d) check each fact on every library node,
pair or entry of three suite kernels; (e) builds their libraries with the
``candidate-fact-memos`` row of ``tests/refuters.py`` off (every memo
bypassed, execution entry by entry), which ``tests/test_refuters.py`` runs on
every suite kernel.

SOLVE's normal forms are derived once too (DESIGN.md, decision 22):
``solver._cancel`` memoises ``cancel`` per expression and computes it in a
fraction field, ``solver._factored`` memoises ``power``'s ``factor``, and
MATCH refutes a stub by its IR inputs before executing it.  (f) checks
``_cancel`` against ``sp.cancel`` on random rational expressions; the
``solve-memos`` row runs the search kernels with all three bypassed.
"""

import hashlib

import numpy as np
import pytest
import sympy as sp

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.suite import get_benchmark
from repro.cost import MeasuredCostModel, make_cost_model
from repro.cost.measured import _signature
from repro.ir import float_tensor, parse
from repro.ir.nodes import Call, Const
from repro.obs.metrics import PROCESS_COUNTERS
from repro.symexec import engine, residues, symtensor
from repro.symexec.residues import Q1, Q2, _inv_battery, compose, order_witnesses
from repro.synth import solver
from repro.synth.enumerator import _HAS_INPUT, _PINNED
from tests.refuters import REFUTERS, run, run_off, walked_facts

#: The tier-1 subset: negative powers, divisions by stubs, the boolean grammar.
QUICK = ["power_neg", "synth_7", "max_stack"]


@pytest.fixture(scope="module")
def memoised():
    """Each QUICK kernel enumerated once with the memos on.

    Every ``less`` pair and every ``where`` triple asked entry by entry is
    recorded with what the memoised path returned for it, and every
    ``less`` / ``where`` tensor executed class-wise with its arguments.
    """
    runs, pairs, triples, classwise = {}, {}, {}, []
    real_less, real_where, real_classwise = residues.less, engine._symbolic_where, engine._classwise

    def recording_less(x, y):
        out = pairs[(x, y)] = real_less(x, y)
        return out

    def recording_where(cond, x, y):
        out = triples[(cond, x, y)] = real_where(cond, x, y)
        return out

    def recording_classwise(op, args, attrs, type):
        out = real_classwise(op, args, attrs, type)
        if out is not None and op in ("less", "where"):
            classwise.append((op, args, out))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(residues, "less", recording_less)
        patch.setattr(engine, "_symbolic_where", recording_where)
        patch.setattr(engine, "_classwise", recording_classwise)
        for kernel in QUICK:
            runs[kernel] = run(kernel, enumeration_only=True)
    return runs, pairs, triples, classwise


def _classwise_entries(classwise, op):
    """``(arguments at p, entry p)`` of every ``op`` tensor executed class-wise."""
    for name, args, out in classwise:
        if name != op:
            continue
        assert symtensor.index_class(out)
        for idx in np.ndindex(*out.shape):
            yield tuple(a.data[idx] if a.shape else a.item() for a in args), out.data[idx]


def _library_nodes(enumerator) -> list:
    """Every library node: the champions, every candidate, and their subtrees."""
    seen: dict = {}
    for root in [c.entry.node for c in enumerator._classes] + enumerator.sketch_sources:
        for node in root.walk():
            seen.setdefault(node)
    return list(seen)


# -- (a) the inverse per denominator node -------------------------------------------


@pytest.mark.parametrize("kernel", QUICK)
def test_every_inverse_is_the_fresh_one(memoised, kernel):
    enumerator = memoised[0][kernel].enumerator
    table = enumerator._batteries
    inverted = 0
    for node in _library_nodes(enumerator):
        if not (isinstance(node, Call) and node.op in ("divide", "power")):
            continue
        args = [table.get(a) for a in node.args]
        if any(r is None for r in args):
            continue
        fresh = compose(node.op, dict(node.attrs), args, arg_nodes=node.args)
        shared = table.compose(node)
        assert (fresh is None) == (shared is None), node
        if shared is not None:
            assert np.array_equal(fresh, shared), node
            inverted += node.op == "divide" or node.args[1].scalar() < 0
    assert inverted > 0 and table._inverses
    for node, inv in table._inverses.items():
        battery = table.get(node)
        assert np.array_equal(inv, _inv_battery(battery)), node
        for k, q in enumerate((Q1, Q2)):
            assert ((inv[k] * battery[k]) % q == 1).all(), node


# -- (b) the op cost per signature ----------------------------------------------------


def _hashed_measure(self, op, arg_types, attrs):
    """A deterministic stand-in for a timing run, distinct per signature."""
    digest = hashlib.blake2b(_signature(op, arg_types, attrs).encode(), digest_size=4).digest()
    return 1.0 + int.from_bytes(digest, "big") / 1e3


def _must_not_time(self, op, arg_types, attrs):
    raise AssertionError(f"the preloaded table misses {op}")


def _models(kind, dim_map, calls, tmp_path):
    """Two models of ``kind``: one to memoise, one to recompute afresh."""
    if kind != "measured":
        return make_cost_model(kind, dim_map=dim_map), make_cost_model(kind, dim_map=dim_map)
    path = tmp_path / "table.json"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MeasuredCostModel, "_measure", _hashed_measure)
        loader = MeasuredCostModel(dim_map=dim_map, cache_path=path)
        for node in calls:
            loader._price(node)
        loader.save()
    return tuple(MeasuredCostModel(dim_map=dim_map, cache_path=path) for _ in range(2))


@pytest.mark.parametrize("kind", ["flops", "roofline", "measured"])
@pytest.mark.parametrize("mapped", [False, True], ids=["identity", "dim_map"])
def test_every_op_cost_is_the_fresh_one(memoised, kind, mapped, tmp_path, monkeypatch):
    calls = [
        node
        for kernel in QUICK
        for node in _library_nodes(memoised[0][kernel].enumerator)
        if isinstance(node, Call)
    ]
    dim_map = get_benchmark("power_neg").dim_map if mapped else None
    monkeypatch.setattr(MeasuredCostModel, "_measure", _must_not_time)
    model, fresh = _models(kind, dim_map, calls, tmp_path)
    assert model.mapper.is_identity is not mapped
    for node in calls:
        assert model.call_cost(node) == fresh._price(node), node
    # Memoised: distinct calls share signatures, and each was priced once.
    assert len(model._op_memo) < len(calls) // 5
    assert any(isinstance(a, Const) for key in model._op_memo for a in key[2])


# -- (c) const-tree and shape-pinned bits from the arguments' ----------------------------


@pytest.mark.parametrize("kernel", QUICK)
def test_every_fact_is_the_tree_walk(memoised, kernel):
    enumerator = memoised[0][kernel].enumerator
    nodes = _library_nodes(enumerator)
    memo = enumerator._fact_memo
    assert len(memo) > len(enumerator._classes)
    for node in nodes:
        assert enumerator._facts(node) == walked_facts(node), node
    for node, facts in memo.items():
        assert facts == walked_facts(node), node
    assert {f & _PINNED for f in memo.values()} == {0, _PINNED}
    assert {f & _HAS_INPUT for f in memo.values()} == {0, _HAS_INPUT}


# -- (d) less and where per index class ---------------------------------------------------


def test_every_memoised_relational_is_sp_lt(memoised):
    """Every pair ``less`` saw, witnessed or proved, per pair or per class,
    and every entry of a class-wise ``less``."""
    pairs, classwise = memoised[1], memoised[3]
    assert len(pairs) > 1000
    refuted = by_class = 0
    for (x, y), got in pairs.items():
        witnessed = order_witnesses(x, y) is not None
        assert residues._witnessed(x, y) is witnessed, (x, y)
        assert sp.srepr(got) == sp.srepr(sp.Lt(x, y)), (x, y)
        refuted += witnessed
        by_class += not witnessed and symtensor.representative((x, y)) is not None
    assert 0 < refuted < len(pairs) and by_class > 100
    renamed = 0
    for (x, y), got in _classwise_entries(classwise, "less"):
        assert sp.srepr(got) == sp.srepr(sp.Lt(x, y)), (x, y)
        renamed += 1
    assert renamed > 1000


def test_every_selection_is_the_direct_piecewise(memoised):
    """Every ``where`` entry, against ``sp.Piecewise`` built on the entry itself.

    Each is executed class-wise: built once on the class's entry 0 and
    renamed, so no triple reaches ``where`` off index 0.
    """
    triples, classwise = memoised[2], memoised[3]
    assert triples and not any(symtensor.representative(t) for t in triples)
    entries = 0
    for (cond, x, y), got in _classwise_entries(classwise, "where"):
        want = x if cond is sp.true else y if cond is sp.false else sp.Piecewise((x, cond), (y, True))
        assert sp.srepr(got) == sp.srepr(want), (cond, x, y)
        entries += 1
    assert entries > 1000 and entries >= 10 * len(triples)


def test_a_class_is_decided_once():
    """One SymPy proof and one ``Piecewise`` for the six entries of a (2, 3) class.

    Asked entry by entry, ``less`` proves on the representative; executed,
    ``less`` and ``where`` run once, on entry 0, and are renamed into the rest.
    """
    residues.clear_less_memo()
    before = dict(PROCESS_COUNTERS)
    for idx in np.ndindex(2, 3):
        a, b = symtensor.element_symbol("A", idx), symtensor.element_symbol("B", idx)
        assert residues.less(a, a + b) is sp.true  # no witness: proved
    moved = {k: v - before.get(k, 0) for k, v in PROCESS_COUNTERS.items()}
    assert moved["equiv.order_by_class"] == 5
    assert residues._proved.cache_info().currsize == 1
    residues.clear_less_memo()
    before = dict(PROCESS_COUNTERS)
    types = {"A": float_tensor(2, 3), "B": float_tensor(2, 3)}
    got = engine.symbolic_execute(parse("np.where(np.less(A, B), A, B)", types).node)
    moved = {k: v - before.get(k, 0) for k, v in PROCESS_COUNTERS.items()}
    assert moved["symexec.classwise"] == 2 and not moved.get("symexec.entrywise")
    assert moved["equiv.order_refuted"] == 1 and not moved.get("equiv.order_asked")  # witnessed
    assert engine._piecewise.cache_info().currsize == 1
    for idx in np.ndindex(2, 3):
        a, b = symtensor.element_symbol("A", idx), symtensor.element_symbol("B", idx)
        assert sp.srepr(got.data[idx]) == sp.srepr(sp.Piecewise((a, a < b), (b, True))), idx


def test_less_counts_every_call_and_caches_no_prover_error():
    A = sp.Symbol("A", positive=True)
    residues.clear_less_memo()
    before = dict(PROCESS_COUNTERS)
    for _ in range(3):
        residues.less(A, A * A)  # refuted at the order points
        residues.less(A, A + 1)  # proved by SymPy
        with pytest.raises(TypeError):
            residues.less(sp.I * A, A)
    moved = {k: v - before.get(k, 0) for k, v in PROCESS_COUNTERS.items()}
    assert moved["equiv.order_refuted"] == 3 and moved["equiv.order_asked"] == 6
    assert residues._proved.cache_info().currsize == 1


# -- (e) the library without the memos --------------------------------------------------


@pytest.mark.parametrize("kernel", QUICK)
def test_library_is_the_one_without_memos(memoised, kernel):
    on = memoised[0][kernel]
    off = run_off(REFUTERS["candidate-fact-memos"], kernel, on)
    # Every kernel executes class-wise; only the boolean grammar also asks
    # ``less`` off index 0.  Bypassed, nothing is shared.
    assert on.enumerated["symexec.classwise"] > 0
    assert (on.enumerated.get("equiv.order_by_class", 0) > 0) is (kernel == "max_stack")
    assert not any(off.enumerated.get(k) for k in ("symexec.classwise", "equiv.order_by_class"))


# -- (f) cancel in a fraction field -----------------------------------------------------


_X = [symtensor.element_symbol(name, (i,)) for name in "AB" for i in range(2)]
A0, A1, B0, B1 = _X
#: ``log`` atoms ``cancel`` keeps as generators, then ones it rewrites
#: (``expand`` splits products and powers, ``factor_terms`` pulls out content)
#: and ``log(2)``, a coefficient to it: those take the fallback.
_LOGS = [sp.log(x) for x in _X] + [
    sp.log(A0 + B1), sp.log(2 * B0 + A1**2), sp.log(-A0 + 2 * B1), sp.log(A0 / B0 + 1),
]
_REWRITTEN_LOGS = [
    sp.log(A0 * B0), sp.log(A0**2), sp.log(2 * A0 + 2 * B0), sp.log(A0 * B0 + A0 * B1),
    sp.log(3 * A0 - 6), sp.log(-A0 - B0), sp.log(2),
]
#: Outside the rational fragment: a ``Float``, radicals, another function, a constant.
_OUTSIDE = [sp.Float(0.5), sp.sqrt(A0), 1 / sp.sqrt(B0), sp.exp(B1), sp.pi]
_CONTENT = st.sampled_from([1, -1, 2, -3, 6, -4, sp.Rational(1, 2), sp.Rational(-2, 3)])


def _quotients(atoms):
    """Quotients of sums of signed products, some sharing a factor with their
    denominator, and quotients of those."""
    products = st.tuples(_CONTENT, st.lists(atoms, max_size=3)).map(lambda c: c[0] * sp.Mul(*c[1]))
    sums = st.lists(products, min_size=1, max_size=3).map(lambda terms: sp.Add(*terms))
    quotients = st.tuples(sums, sums, sums).filter(lambda t: t[1] != 0 and t[2] != 0).map(
        lambda t: sp.expand(t[0] * t[1]) / (t[1] * t[2])
    )
    nested = st.tuples(quotients, quotients, st.sampled_from("+*/")).filter(lambda t: t[1] != 0).map(
        lambda t: t[0] + t[1] if t[2] == "+" else t[0] * t[1] if t[2] == "*" else t[0] / t[1]
    )
    return quotients | nested


def _outside(expr) -> bool:
    """Whether ``expr`` holds a rewritten ``log``, a ``Float``, a radical, ``exp`` or ``pi``."""
    return (
        expr.has(*_REWRITTEN_LOGS)
        or bool(expr.atoms(sp.Float, sp.exp, sp.NumberSymbol))
        or any(not p.exp.is_Integer for p in expr.atoms(sp.Pow))
    )


_RATIONAL = _quotients(st.sampled_from(_X + _LOGS))
#: A rational quotient with one atom outside the fragment, in both halves.
_FALLBACK = st.tuples(_RATIONAL, st.sampled_from(_REWRITTEN_LOGS + _OUTSIDE)).map(lambda t: t[0] / t[1] + t[1])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_RATIONAL | _FALLBACK)
def test_cancel_is_sp_cancel(expr):
    """Equal and spelled alike; the field derives exactly the expressions
    with a symbol, nothing outside its fragment, and more than one atom."""
    got, want = solver._cancel(expr), sp.cancel(expr)
    assert got == want and sp.srepr(got) == sp.srepr(want), (expr, got, want)
    fallback = _outside(expr) or not expr.free_symbols or isinstance(expr, sp.log)
    assert (solver._generators(expr) is None) is fallback, expr


def test_a_negative_leading_denominator_is_negated():
    """A negative power is the one field operation that does not normalize
    the sign: the field keeps ``1/(B0 - A0)`` as built, ``cancel`` gives
    ``-1/(A0 - B0)`` (``A0`` leads)."""
    for expr in (1 / (B0 - A0), (B0 - A0) ** -3, A1 / (B0 - A0) + 1 / A0):
        want = sp.cancel(expr)
        assert sp.srepr(solver._cancel(expr)) == sp.srepr(want), expr
        assert sp.Poly(sp.denom(want), A0, B0).LC() > 0


def test_each_normal_form_is_derived_once():
    solver._cancel.cache_clear()
    solver._factored.cache_clear()
    before = dict(PROCESS_COUNTERS)
    quotient, root = (A0 * B0 + A0) / A0, A0**2 + 2 * A0 + 1
    for _ in range(3):
        assert solver._cancel(quotient) == B0 + 1
        assert solver._cancel(sp.sqrt(A0) / A0) == sp.cancel(sp.sqrt(A0) / A0)
        assert solver._factored(root) == (A0 + 1) ** 2
    moved = {k: v - before.get(k, 0) for k, v in PROCESS_COUNTERS.items()}
    assert moved["solver.cancel_exact"] == 1 and moved["solver.cancel_fallback"] == 1
    assert solver._factored.cache_info().misses == 1
