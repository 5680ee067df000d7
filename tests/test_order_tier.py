"""The order tier: ``residues.less`` only ever *withholds* a proof attempt.

``residues.less(x, y)`` evaluates ``x < y`` exactly at a few positive
rational points; opposite outcomes at two of them mean no sound prover can
fold the relation, so it builds ``Lt(x, y, evaluate=False)`` without entering
SymPy's assumption system.  The oracle throughout is plain ``sp.Lt`` (and,
for ``canonical``, the former ``_piecewise_to_minmax(sp.expand(rel))``): the
tier must be invisible in every object it returns.
"""

import importlib
from fractions import Fraction

import pytest
import sympy as sp

from repro.bench.store import CONFIGS
from repro.bench.suite import get_benchmark
from repro.cost import FlopsCostModel
from repro.ir import float_tensor, parse
from repro.obs.metrics import PROCESS_COUNTERS
from repro.symexec import INTERN_TABLE, engine, residues
from repro.symexec.residues import O_POINTS, R_POINTS, _order_point, _point, less, order_witnesses
from repro.synth import SynthesisConfig
from repro.synth.enumerator import StubEnumerator

canonical_mod = importlib.import_module("repro.symexec.canonical")

A, B = sp.symbols("A B", positive=True)


def _enumerate(kind: str):
    """One cold enumeration: (entries, sketch_sources)."""
    # Canonical forms and relationals must be rebuilt, not recalled: a
    # memoised pair would skip whatever ``less`` is forced to here.
    INTERN_TABLE.clear()
    residues.clear_less_memo()
    if kind == "max_stack":
        bench = get_benchmark("max_stack")
        enumerator = StubEnumerator(
            bench.parse_synth(), CONFIGS["default"],
            cost_model=FlopsCostModel(dim_map=bench.dim_map),
        )
    else:
        types = {"A": float_tensor(2, 2), "B": float_tensor(2, 2)}
        enumerator = StubEnumerator(
            parse(kind, types), SynthesisConfig(max_depth=1), cost_model=FlopsCostModel()
        )
    return enumerator.enumerate(), enumerator.sketch_sources


def _identity(run) -> tuple:
    entries, sources = run
    return (
        [e.node for e in entries],
        [e.res.tobytes() if e.res is not None else e.key for e in entries],
        list(sources),
    )


class _Spy:
    """Records what both call sites hand to / get from the tier."""

    def __init__(self, monkeypatch):
        self.less_pairs: dict = {}  # (x, y) from the engine's less rule -> result
        self.less_calls = 0
        self.canonical_rels: dict = {}  # top-level relational -> canonical form
        self.canonical_lts = 0
        self._in_canonical = False
        real_less, real_impl = residues.less, canonical_mod._canonical_impl

        def spy_less(x, y):
            out = real_less(x, y)
            if not self._in_canonical:
                self.less_calls += 1
                self.less_pairs[(x, y)] = out
            return out

        def spy_impl(expr):
            if not isinstance(expr, sp.Rel):
                return real_impl(expr)
            self.canonical_lts += isinstance(expr, sp.StrictLessThan)
            self._in_canonical = True
            try:
                out = self.canonical_rels[expr] = real_impl(expr)
            finally:
                self._in_canonical = False
            return out

        monkeypatch.setattr(residues, "less", spy_less)
        monkeypatch.setattr(canonical_mod, "_canonical_impl", spy_impl)


PROGRAMS = [
    pytest.param("max_stack", id="max_stack"),
    pytest.param("np.where(np.less(A, B), B, A)", id="where_max"),
    pytest.param("np.where(np.less(A, B), A, B)", id="where_min"),  # test_residues' where_less
]


@pytest.fixture(scope="module")
def spied():
    """Each program enumerated once through the tier, with both sites spied."""
    runs = {}
    with pytest.MonkeyPatch.context() as patch:
        spy = _Spy(patch)
        # Entry by entry, so ``less`` sees every entry's pair; class-wise
        # execution asks it once per class (tests/refuters.py holds the two equal).
        patch.setattr(engine, "_classwise", lambda *args: None)
        before = dict(PROCESS_COUNTERS)
        for kind in (p.values[0] for p in PROGRAMS):
            runs[kind] = _identity(_enumerate(kind))
        bumped = {
            k: PROCESS_COUNTERS.get(k, 0) - before.get(k, 0)
            for k in ("equiv.order_refuted", "equiv.order_asked")
        }
    return spy, runs, bumped


# -- (a) structural identity ---------------------------------------------------


def test_less_returns_what_sp_lt_returns(spied):
    spy, _, _ = spied
    assert spy.less_calls >= 9000
    refuted = 0
    for (x, y), got in spy.less_pairs.items():
        assert sp.srepr(got) == sp.srepr(sp.Lt(x, y)), (x, y)
        refuted += order_witnesses(x, y) is not None
    assert refuted > 1000  # the tier did take part


def test_canonical_of_a_relational_is_what_expand_gave(spied):
    spy, _, _ = spied
    assert len(spy.canonical_rels) > 1000
    for rel, got in spy.canonical_rels.items():
        want = canonical_mod._piecewise_to_minmax(sp.expand(rel))
        assert sp.srepr(got) == sp.srepr(want), rel


def test_counters_account_for_every_relational(spied):
    spy, _, bumped = spied
    assert bumped["equiv.order_refuted"] > 0 and bumped["equiv.order_asked"] > 0
    assert sum(bumped.values()) == spy.less_calls + spy.canonical_lts


# -- (b) witnesses ---------------------------------------------------------------


def _holds_at(x, y, i: int):
    point = {
        s: sp.Rational(*_order_point(s, i).as_integer_ratio())
        for s in x.free_symbols | y.free_symbols
    }
    return sp.Lt(x.subs(point), y.subs(point))


def test_every_refutation_names_two_opposite_points(spied):
    spy, _, _ = spied
    refuted = [pair for pair in spy.less_pairs if order_witnesses(*pair) is not None]
    for x, y in refuted:
        i, j = order_witnesses(x, y)
        assert _holds_at(x, y, i) is sp.true and _holds_at(x, y, j) is sp.false, (x, y)


# -- (c) never refutes a provable relation ----------------------------------------


@pytest.mark.parametrize(
    "x, y, folded",
    [(A, A + B, sp.true), (A + B, A, sp.false), (A * B, A * B + 1, sp.true), (2 * A, 3 * A, sp.true)],
)
def test_provable_relations_reach_sympy_and_fold(x, y, folded):
    assert order_witnesses(x, y) is None
    assert less(x, y) is folded


@pytest.mark.parametrize("x, y", [(A, A * B), (A * A, A), (A, B / 2)])
def test_undetermined_relations_are_refuted(x, y):
    assert order_witnesses(x, y) is not None
    got = less(x, y)
    assert isinstance(got, sp.StrictLessThan) and (got.lhs, got.rhs) == (x, y)
    assert sp.srepr(got) == sp.srepr(sp.Lt(x, y))


@pytest.mark.parametrize("x, y, outcome", [(A, A * B, True), (A * A, A, False)])
def test_battery_points_would_not_refute(x, y, outcome):
    """Why the order points straddle 1: the residue battery samples
    ``[257, 65793)``, where ``A < A*B`` holds and ``A*A < A`` fails at every
    point — values there would call both relations settled."""
    for i in range(max(R_POINTS, O_POINTS)):
        point = {s: _point(s.name, i) for s in (A, B)}
        assert bool(x.subs(point) < y.subs(point)) is outcome
    assert {_order_point(B, i) < 1 for i in range(O_POINTS)} == {True, False}


# -- (d) no opinion ------------------------------------------------------------


@pytest.mark.parametrize(
    "x, y",
    [
        pytest.param(sp.sqrt(A), B, id="sqrt"),
        pytest.param(sp.Max(A, B), A * B, id="max"),
        pytest.param(sp.Piecewise((A, A < B), (B, True), evaluate=False), A * B, id="piecewise"),
        pytest.param(sp.Symbol("r", real=True), A * B, id="real-symbol"),
        pytest.param(sp.Symbol("n", positive=True, integer=True), A * B, id="integer-symbol"),
        pytest.param(sp.Symbol("X?", real=True), sp.Integer(0), id="boolean-carrier"),
        pytest.param(sp.Float(0.5) * A, B, id="float"),
        pytest.param(B / (A - sp.Rational(13, 8)), A * B, id="zero-denominator"),
    ],
)
def test_outside_the_fragment_falls_through_to_sympy(x, y):
    assert order_witnesses(x, y) is None
    assert sp.srepr(less(x, y)) == sp.srepr(sp.Lt(x, y))


def test_zero_denominator_case_is_what_it_claims():
    assert _order_point(A, 0) == Fraction(13, 8)


# -- (e) partition parity --------------------------------------------------------


@pytest.mark.parametrize("kind", PROGRAMS)
def test_library_is_the_one_plain_sp_lt_builds(spied, kind, monkeypatch):
    _, runs, _ = spied
    monkeypatch.setattr(residues, "less", sp.Lt)
    nodes, ids, sources = _identity(_enumerate(kind))
    assert any(not isinstance(i, bytes) for i in ids)  # the weak tier took part
    assert (nodes, ids, sources) == runs[kind]
