"""Focused unit tests for canonicalization internals and SymTensor helpers."""

import importlib

import numpy as np
import pytest
import sympy as sp
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ir.types import DType, TensorType, float_tensor
from repro.symexec import residues
from repro.symexec.canonical import (
    _equivalent_exprs_slow,
    _lattice,
    _needs_cancel,
    _piecewise_to_minmax,
    _radical_tier,
    canonical,
)
from repro.symexec.symtensor import (
    SymTensor,
    element_symbol,
    input_symbols_of,
    symbols_by_input,
)

a, b = element_symbol("a", ()), element_symbol("b", ())


class TestLattice:
    """``_lattice`` builds ``Max``/``Min`` unevaluated only where SymPy's
    lattice search provably keeps both arguments; the oracle is ``sp.Max``."""

    A, B = element_symbol("A", (1, 2)), element_symbol("B", (1, 2))

    @pytest.mark.parametrize("cls", [sp.Max, sp.Min])
    def test_split_pairs_are_sympys_object(self, cls):
        A, B = self.A, self.B
        for x, y in [(A, B), (B, A), (A, A * A), (A * B, A + 1), (sp.Integer(2), B), (A / B, B - A)]:
            assert residues.splits(x, y), (x, y)
            got = _lattice(cls, x, y)
            assert sp.srepr(got) == sp.srepr(cls(x, y)), (x, y)
            assert got.args == cls(x, y).args

    def test_one_sided_pair_asks_sympy(self):
        A, B = self.A, self.B
        assert _lattice(sp.Max, A, A + B) == A + B
        assert _lattice(sp.Min, A, A + B) == A

    def test_tied_pair_asks_sympy(self):
        """Equal functions, spelled apart: SymPy keeps one of them."""
        A, B = self.A, self.B
        assert not residues.splits(A * B + A, A * (B + 1))
        assert _lattice(sp.Max, A * B + A, A * (B + 1)) == A * B + A

    def test_nested_min_asks_sympy(self, monkeypatch):
        """Absorption needs SymPy's evaluation, whatever the witnesses say."""
        A, B = self.A, self.B
        monkeypatch.setattr(residues, "splits", lambda x, y: True)
        assert _lattice(sp.Max, sp.Min(A, B), A) == A
        assert _lattice(sp.Min, A, sp.Max(A, B)) == A

    def test_through_the_piecewise_rewrite(self):
        A, B = self.A, self.B
        pw = sp.Piecewise((B, sp.Lt(A, B, evaluate=False)), (A, True))
        assert sp.srepr(_piecewise_to_minmax(pw)) == sp.srepr(sp.Max(A, B))
        one_sided = sp.Piecewise((A + B, sp.Lt(A, A + B, evaluate=False)), (A, True))
        assert _piecewise_to_minmax(one_sided) == A + B


class TestPiecewiseToMinMax:
    def test_lt_max(self):
        pw = sp.Piecewise((b, sp.Lt(a, b)), (a, True))
        assert _piecewise_to_minmax(pw) == sp.Max(a, b)

    def test_lt_min(self):
        pw = sp.Piecewise((a, sp.Lt(a, b)), (b, True))
        assert _piecewise_to_minmax(pw) == sp.Min(a, b)

    def test_gt_max(self):
        pw = sp.Piecewise((a, sp.Gt(a, b)), (b, True))
        assert _piecewise_to_minmax(pw) == sp.Max(a, b)

    def test_unrelated_branches_untouched(self):
        pw = sp.Piecewise((a + 1, sp.Lt(a, b)), (b, True))
        assert _piecewise_to_minmax(pw) == pw

    def test_three_branches_untouched(self):
        pw = sp.Piecewise((a, sp.Lt(a, 1)), (b, sp.Lt(a, 2)), (a * b, True))
        assert _piecewise_to_minmax(pw) == pw

    def test_nested_inside_expression(self):
        expr = 2 * sp.Piecewise((b, sp.Lt(a, b)), (a, True)) + 1
        assert _piecewise_to_minmax(expr) == 2 * sp.Max(a, b) + 1


class TestNeedsCancel:
    def test_polynomial_skips(self):
        assert not _needs_cancel(a**2 + 2 * a * b)

    def test_division_triggers(self):
        assert _needs_cancel(a / b)

    def test_sqrt_skips(self):
        # Positive radicals are opaque generators to `cancel`: it returns
        # exactly what `expand` alone produces, so they skip the expense.
        assert not _needs_cancel(sp.sqrt(a))
        assert not _needs_cancel(sp.sqrt(a**2 + 2 * a + 1) * b)

    def test_negative_radical_triggers(self):
        assert _needs_cancel(a ** sp.Rational(-1, 2))
        assert _needs_cancel(sp.sqrt(a) / b)

    def test_plain_symbol_skips(self):
        assert not _needs_cancel(a)


class TestCanonical:
    def test_expands(self):
        assert canonical((a + b) ** 2) == a**2 + 2 * a * b + b**2

    def test_cancels_division(self):
        assert canonical((a * b) / b) == a

    def test_idempotent(self):
        e = (a + b) * (a - b) / (a + b)
        once = canonical(e)
        assert canonical(once) == once


class TestSymTensorHelpers:
    def test_symbols_by_input(self):
        t = SymTensor.from_input("Q", float_tensor(2))
        grouped = symbols_by_input(t.input_symbols())
        assert set(grouped) == {"Q"}
        assert len(grouped["Q"]) == 2

    def test_input_symbols_of_ignores_foreign(self):
        foreign = sp.Symbol("zzz")
        assert input_symbols_of(foreign + a) == {a}

    def test_from_value_rationalizes(self):
        t = SymTensor.from_value(np.array([0.5, 2.0]))
        entries = list(t.entries())
        assert entries[0] == sp.Rational(1, 2)
        assert entries[1] == sp.Integer(2)

    def test_bool_from_value(self):
        t = SymTensor.from_value(np.array([True, False]), DType.BOOL)
        assert list(t.entries()) == [sp.true, sp.false]

    def test_map_preserves_shape(self):
        t = SymTensor.from_input("R", float_tensor(2, 2))
        doubled = t.map(lambda e: 2 * e)
        assert doubled.shape == (2, 2)
        assert list(doubled.entries())[0] == 2 * element_symbol("R", (0, 0))

    def test_scalar_tensor(self):
        t = SymTensor.from_input("s", float_tensor())
        assert t.shape == ()
        assert t.item() == element_symbol("s", ())
        assert t.density() == 1.0


# ---------------------------------------------------------------------------
# The battery tier can never change ``equivalent``'s answer
# ---------------------------------------------------------------------------

_X, _Y = element_symbol("X", (0,)), element_symbol("Y", (0,))
_LT = sp.Lt(_X, _Y)


def _grammar_exprs() -> st.SearchStrategy:
    """Entries the grammar's operators produce: rational, sqrt, Max / where."""
    leaves = st.sampled_from([_X, _Y, sp.Integer(2), sp.Rational(1, 2)])

    def combine(children):
        pair = st.tuples(children, children)
        return st.one_of(
            pair.map(lambda ab: ab[0] + ab[1]),
            pair.map(lambda ab: ab[0] - ab[1]),
            pair.map(lambda ab: ab[0] * ab[1]),
            pair.map(lambda ab: ab[0] / (ab[1] * ab[1] + 1)),
            children.map(lambda a: a**2),
            children.map(lambda a: sp.sqrt(a * a + 1)),
            pair.map(lambda ab: sp.Max(ab[0], ab[1])),
            pair.map(lambda ab: sp.Piecewise((ab[0], _LT), (ab[1], True))),
        )

    return st.recursive(leaves, combine, max_leaves=5)


_REWRITES = (sp.expand, sp.factor, sp.together, lambda e: e + _X - _X, lambda e: e + 1)


def _same_function(a: SymTensor, b: SymTensor) -> bool:
    """Test-local oracle: ``simplify(a - b) == 0`` entry by entry.

    Relations cannot be subtracted; like ``equivalent``, the oracle takes two
    of them for the same predicate only when they are the same relation."""
    if a.shape != b.shape or a.dtype != b.dtype:
        return False

    def same(ea, eb):
        if ea == eb:
            return True
        try:
            return sp.simplify(ea - eb) == 0
        except TypeError:
            return False

    return all(same(ea, eb) for ea, eb in zip(a.entries(), b.entries()))


def _verdicts(a: SymTensor, b: SymTensor, monkeypatch) -> list[bool]:
    """``equivalent(a, b)`` with batteries as they are, absent, and colliding."""
    # ``repro.symexec.canonical`` the attribute is the function; get the module.
    canonical_mod = importlib.import_module("repro.symexec.canonical")
    collision = np.zeros((2, 4), dtype=np.int64)
    out = [canonical_mod.equivalent(a, b)]
    for forced in (lambda t: None, lambda t: collision):
        with monkeypatch.context() as patch:
            patch.setattr(canonical_mod, "tensor_residues", forced)
            out.append(canonical_mod.equivalent(a, b))
    return out


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(_grammar_exprs(), _grammar_exprs(), st.sampled_from(_REWRITES), st.booleans())
def test_battery_tier_never_changes_the_verdict(monkeypatch, e1, e2, rewrite, boolean):
    try:
        twin = rewrite(e1)
    except (sp.PolynomialError, NotImplementedError):
        twin = e1
    if boolean:
        # ``less`` outputs: a relation over the generated entries.
        pairs = [([sp.Lt(e1, e2)], [sp.Lt(e1, e2)]), ([sp.Lt(e1, e2)], [sp.Lt(e2, e1)])]
        dtype = DType.BOOL
    else:
        pairs = [([e1, e2], [twin, e2]), ([e1, e2], [e2, e1]), ([e1], [e1, e2])]
        dtype = DType.FLOAT
    for left, right in pairs:
        a = SymTensor(np.array(left, dtype=object), dtype)
        b = SymTensor(np.array(right, dtype=object), dtype)
        as_is, absent, colliding = _verdicts(a, b, monkeypatch)
        assert as_is == absent == colliding == _same_function(a, b), (left, right)


@pytest.mark.parametrize("kernel", ["diag_dot", "synth_11"])
def test_battery_tier_never_changes_a_match_scan_verdict(kernel, monkeypatch):
    """Every (spec, stub) pair MATCH's slow scan hands to ``equivalent``."""
    from repro.bench.suite import get_benchmark
    from repro.cost import make_cost_model
    from repro.synth import SynthesisConfig, search
    from repro.synth.superoptimizer import superoptimize_program

    scanned = []
    real = search.equivalent

    def recording(spec, stub):
        scanned.append((spec, stub))
        return real(spec, stub)

    bench = get_benchmark(kernel)
    with monkeypatch.context() as patch:
        patch.setattr(search, "equivalent", recording)
        result = superoptimize_program(
            bench.parse_synth(),
            cost_model=make_cost_model("flops", dim_map=bench.dim_map),
            config=SynthesisConfig(timeout_seconds=120),
        )
    assert result.improved and scanned
    for spec, stub in scanned:
        as_is, absent, colliding = _verdicts(spec, stub, monkeypatch)
        assert as_is == absent == colliding == _same_function(spec, stub)


# ---------------------------------------------------------------------------
# The radical tier never disagrees with simplify
# ---------------------------------------------------------------------------


def _polynomials() -> st.SearchStrategy:
    """Radicands' roots ``p``, some not provably non-negative (``X - Y``, ``-1``)."""
    leaves = st.sampled_from([_X, _Y, sp.Integer(1), sp.Integer(-1), sp.Rational(1, 2)])

    def combine(children):
        pair = st.tuples(children, children)
        return st.one_of(
            pair.map(lambda ab: ab[0] + ab[1]),
            pair.map(lambda ab: ab[0] - ab[1]),
            pair.map(lambda ab: ab[0] * ab[1]),
        )

    return st.recursive(leaves, combine, max_leaves=4)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    _polynomials(),
    st.sampled_from([2, 3]),
    st.sampled_from([sp.S.Zero, sp.S.One, sp.Rational(-1, 2), _X, _X * _Y]),
    st.booleans(),
)
def test_radical_tier_never_disagrees_with_simplify(p, k, delta, swap):
    """``q**(1/k)`` against ``p`` for ``q = expand(p**k) + delta``: whatever the
    tier decides, ``simplify`` (the court it spares) decides the same."""
    root = (sp.expand(p**k) + delta) ** sp.Rational(1, k)
    ca, cb = canonical(root), canonical(p)
    if swap:
        ca, cb = cb, ca
    if ca == cb or ca.free_symbols != cb.free_symbols:
        return  # settled before the tier
    verdict = _radical_tier(ca, cb)
    if verdict is not None:
        assert verdict == _equivalent_exprs_slow(ca, cb), (ca, cb)


def test_radical_tier_confirms_and_refutes():
    s = _X * _Y + _X
    assert _radical_tier(sp.sqrt(sp.expand(s**2)), s) is True
    assert _radical_tier(s, sp.sqrt(sp.expand(s**2))) is True
    assert _radical_tier(_X**5, sp.sqrt(_X)) is False  # synth_11's MATCH pair
    assert _radical_tier(sp.cbrt(sp.expand(s**3) + 1), s) is False
    # X - Y may be negative: sqrt((X - Y)**2) is |X - Y|, which powering cannot see.
    assert _radical_tier(sp.sqrt(sp.expand((_X - _Y) ** 2)), _X - _Y) is None
    assert _radical_tier(sp.exp(_X), _X) is None
