"""The weak bucket only separates: it decides where ``canonical_key`` runs, never a class.

``residues.weak_bucket`` gives a battery-weak tensor (``sqrt``, ``Max`` /
``Piecewise``, relationals) a float value per entry at four order points.  An
unseen bucket admits a candidate with its key unset; a seen one sends it to
the exact path against that bucket's members only.  The oracle throughout is
the admission this replaced — ``canonical_key`` of every weak candidate, one
dict — the ``eager-weak-keys`` row of ``tests/refuters.py``.
"""

import numpy as np
import pytest
import sympy as sp
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cost import FlopsCostModel
from repro.ir import float_tensor, parse
from repro.ir.types import DType
from repro.obs.metrics import PROCESS_COUNTERS
from repro.symexec import canonical_key, residues, symbolic_execute
from repro.symexec.canonical import canonical
from repro.symexec.residues import W_POINTS, weak_bucket
from repro.symexec.symtensor import SymTensor, element_symbol, index_class
from repro.synth import SynthesisConfig, build_library
from repro.synth import library as library_mod
from repro.synth.enumerator import StubEnumerator
from repro.synth.search import SearchContext, _match_base_case
from tests.refuters import REFUTERS, cold, run, run_off
from tests.test_canonical_units import _grammar_exprs

A, B = element_symbol("A", (0,)), element_symbol("B", (0,))
C = element_symbol("C", (0,), boolean=True)  # the relational ``C[0]? > 0``
TYPES = {"A": float_tensor(2, 2), "B": float_tensor(2, 2)}
WEAK_COUNTERS = ("equiv.weak_refuted", "equiv.weak_confirmed", "equiv.weak_unbucketed")


def _tensor(*entries, dtype=DType.FLOAT) -> SymTensor:
    return SymTensor(np.array(entries, dtype=object), dtype)


def _values(expr, dtype=DType.FLOAT):
    bucket = weak_bucket(_tensor(expr, dtype=dtype))
    return None if bucket is None else bucket[2]


# -- (a) the evaluator's arms -----------------------------------------------------


class TestEvaluatorArms:
    def test_bucket_carries_signature_and_one_value_per_entry_and_point(self):
        shape, dtype, values, indices = weak_bucket(_tensor(sp.sqrt(A), sp.sqrt(B)))
        assert (shape, dtype, len(values)) == ((2,), DType.FLOAT, 2 * W_POINTS)
        assert indices == ((0,), (0,))  # and one class index per entry

    def test_sqrt_of_a_negative_is_the_principal_complex_root(self):
        values = _values(sp.sqrt(A - B - 1000))
        assert all(isinstance(v, complex) and v.real == 0 and v.imag > 0 for v in values)
        # SymPy pulls the sign out as ``I*sqrt(A)``: the same value either way.
        assert _values(sp.sqrt(-A)) == _values(sp.I * sp.sqrt(A))

    def test_fractional_power(self):
        assert _values(A ** sp.Rational(3, 2)) == _values(A * sp.sqrt(A))
        assert _values(A ** sp.Rational(3, 2)) != _values(A ** sp.Rational(5, 2))

    def test_max_and_piecewise_spell_one_function(self):
        as_max = _values(sp.Max(A, B))
        assert as_max == _values(sp.Piecewise((B, A < B), (A, True)))
        assert as_max == _values(sp.Piecewise((A, A > B), (B, True)))
        assert as_max != _values(sp.Min(A, B))

    def test_relationals_and_connectives_are_bools(self):
        lt = _values(sp.Lt(A, B, evaluate=False), DType.BOOL)
        assert all(isinstance(v, bool) for v in lt)
        assert _values(sp.Ge(A, B, evaluate=False), DType.BOOL) == tuple(not v for v in lt)
        assert _values(sp.Not(sp.Lt(A, B, evaluate=False)), DType.BOOL) == tuple(not v for v in lt)
        assert _values(sp.And(A < B, B < A), DType.BOOL) == (False,) * W_POINTS
        assert _values(sp.Or(A < B, B <= A), DType.BOOL) == (True,) * W_POINTS
        assert _values(sp.true, DType.BOOL) == (True,) * W_POINTS
        # A boolean carrier samples a signed range: both outcomes occur.
        assert set(_values(C, DType.BOOL)) == {True, False}

    def test_exp_log_abs(self):
        assert _values(sp.exp(sp.log(A + B))) == _values(A + B)
        assert _values(sp.Abs(A - B)) == _values(sp.Max(A - B, B - A))
        assert all(isinstance(v, complex) for v in _values(sp.log(-A)))

    def test_float_noise_rounds_away(self):
        # (sqrt(A) + 1)**2 - 2*sqrt(A) - 1 is A up to the last float digits.
        assert _values((sp.sqrt(A) + 1) ** 2 - 2 * sp.sqrt(A) - 1) == _values(A)

    @pytest.mark.parametrize(
        "expr",
        [
            pytest.param(sp.Function("f")(A), id="unknown-function"),
            pytest.param(sp.zoo, id="zoo"),
            pytest.param(sp.nan, id="nan"),
            pytest.param(sp.log(A - A, evaluate=False), id="log-of-zero"),
            pytest.param(sp.exp(sp.exp(sp.exp(A + 20))), id="overflow"),
            pytest.param(sp.Piecewise((A, sp.Lt(A, -1, evaluate=False))), id="no-true-arm"),
            pytest.param(sp.Max(A, sp.sqrt(A - B - 1000)), id="order-of-complex"),
            pytest.param(sp.Symbol("free"), id="not-an-input-symbol"),
        ],
    )
    def test_no_opinion(self, expr):
        assert weak_bucket(_tensor(expr)) is None

    def test_memoised_on_the_tensor(self):
        tensor = _tensor(sp.sqrt(A))
        assert weak_bucket(tensor) is weak_bucket(tensor)
        assert tensor.__dict__["_weak_bucket"] is weak_bucket(tensor)


# -- (b) canonically equal tensors share a bucket ------------------------------------


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_grammar_exprs(), st.sampled_from([sp.expand, sp.cancel, canonical]))
def test_a_rewrite_canonical_sees_through_keeps_the_bucket(expr, rewrite):
    try:
        twin = rewrite(expr)
    except (sp.PolynomialError, NotImplementedError):
        twin = expr
    ours, theirs = weak_bucket(_tensor(expr)), weak_bucket(_tensor(twin))
    assert ours is not None and ours == theirs, (expr, twin)


@pytest.mark.parametrize(
    "left, right",
    [
        ("np.sqrt(A) + B", "B + np.sqrt(A)"),
        ("np.sqrt(A) * (A + B)", "A * np.sqrt(A) + np.sqrt(A) * B"),
        ("np.where(A < B, B, A)", "np.maximum(A, B)"),
        ("np.where(A < B, A, B)", "np.minimum(B, A)"),
        ("np.max(np.stack([A, B]), axis=0)", "np.maximum(B, A)"),
    ],
)
def test_equal_canonical_keys_share_a_bucket(left, right):
    a, b = (symbolic_execute(parse(src, TYPES).node) for src in (left, right))
    assert canonical_key(a) == canonical_key(b)
    assert weak_bucket(a) is not None and weak_bucket(a) == weak_bucket(b)


def test_an_index_class_tensor_is_bucketed_as_its_entries():
    """Entry 0 evaluated once stands for every entry: an unmarked copy, read
    entry by entry, has the same bucket.  Its transpose has the same values
    and other class indices."""
    got = symbolic_execute(parse("np.sqrt(A * B) + A", TYPES).node)
    assert index_class(got)
    assert weak_bucket(got) == weak_bucket(SymTensor(got.data.copy(), got.dtype))
    transposed = symbolic_execute(parse("np.transpose(np.sqrt(A * B) + A)", TYPES).node)
    assert weak_bucket(transposed)[2] == weak_bucket(got)[2]
    assert weak_bucket(transposed)[3] == ((0, 0), (1, 0), (0, 1), (1, 1)) != weak_bucket(got)[3]


# -- the oracle: every weak candidate keyed on arrival (the eager-weak-keys row) --------


def _library(program, config, model):
    """A cold enumeration: (champion nodes in admission order, sketch sources, weak-tier counters)."""
    cold()  # each forcing re-derives its relationals
    before = dict(PROCESS_COUNTERS)
    enumerator = StubEnumerator(program, config, cost_model=model)
    stubs = enumerator.enumerate()
    weak = WEAK_COUNTERS + ("equiv.fingerprint_weak",)
    counts = {k: PROCESS_COUNTERS.get(k, 0) - before.get(k, 0) for k in weak}
    return [e.node for e in stubs], list(enumerator.sketch_sources), counts


# -- (c) whatever the bucket says, the library is the same -----------------------------


@pytest.mark.parametrize(
    "source",
    [
        pytest.param("np.sqrt(A * A + B)", id="sqrt"),
        pytest.param("np.where(np.less(A, B), A, B)", id="where_less"),
    ],
)
def test_forcing_the_bucket_never_changes_the_library(source, monkeypatch):
    program, config, model = parse(source, TYPES), SynthesisConfig(max_depth=1), FlopsCostModel()
    as_is = _library(program, config, model)
    weak = as_is[2]["equiv.fingerprint_weak"]
    assert weak > 0 and as_is[2]["equiv.weak_unbucketed"] == 0
    assert sum(as_is[2][k] for k in WEAK_COUNTERS) == weak

    # No opinion: every candidate is keyed against every weak class.
    monkeypatch.setattr(residues, "weak_bucket", lambda tensor: None)
    absent = _library(program, config, model)
    assert absent[2]["equiv.weak_unbucketed"] == weak

    # One bucket for everything: only equal keys may merge, so nothing changes.
    monkeypatch.setattr(residues, "weak_bucket", lambda tensor: ("same",))
    colliding = _library(program, config, model)
    assert (colliding[2]["equiv.weak_refuted"], colliding[2]["equiv.weak_confirmed"]) == (1, weak - 1)

    REFUTERS["eager-weak-keys"].off(monkeypatch)
    eager = _library(program, config, model)
    assert as_is[:2] == absent[:2] == colliding[:2] == eager[:2]


# -- (d) library identity against the eager-key oracle ----------------------------------


@pytest.mark.parametrize(
    "kernel", ["sum_stack", "synth_7", "euclidian_dist", "log_exp_1", "power_neg"]
)
def test_library_is_what_eager_keys_produce(kernel):
    """All suite kernels, with every counter: ``tests/test_refuters.py``."""
    on = run(kernel, enumeration_only=True)
    counts = on.enumerated
    assert not counts.get("equiv.weak_unbucketed")
    assert sum(counts.get(k, 0) for k in WEAK_COUNTERS) == counts["equiv.fingerprint_weak"] > 0
    run_off(REFUTERS["eager-weak-keys"], kernel, on)


# -- (e) MATCH on a weak spec ---------------------------------------------------------


VEC = {"A": float_tensor(2), "B": float_tensor(2)}
MAX_STACK = "np.max(np.stack([A, B]), axis=0)"


@pytest.mark.parametrize(
    "program_source, depth, spec_source",
    [
        ("np.dot(A, B)", 1, "np.sqrt(A)"),
        (MAX_STACK, 2, MAX_STACK),
        (MAX_STACK, 2, "np.less(A * B, B)"),
    ],
)
def test_match_returns_the_stub_the_key_probe_returns(
    program_source, depth, spec_source, monkeypatch
):
    config, model = SynthesisConfig(max_depth=depth), FlopsCostModel()
    cold = build_library(parse(program_source, VEC), config, model)
    spec = symbolic_execute(parse(spec_source, VEC).node)
    key = canonical_key(spec)
    expected = cold.weak_by_key[key]

    def restored():
        stubs = library_mod._restore_stubs([e.node for e in cold.stubs])
        assert not any(e.cached_key for e in stubs)  # a restore never keys
        return library_mod._assemble_library(stubs, cold.sketch_sources, model)

    lib = restored()
    matched = _match_base_case(spec, key, SearchContext(lib, model, config, float("inf")))
    assert matched is not None and matched.node == expected.node
    # Only the stubs in the spec's bucket were keyed to find it.
    keyed = [e for e in lib.stubs if e.cached_key is not None]
    assert matched in keyed and all(e in lib.weak_by_bucket[weak_bucket(spec)] for e in keyed)
    assert len(keyed) < sum(e.res is None for e in lib.stubs)

    # An equal bucket is never a hit: a spec that shares every stub's bucket
    # but no stub's key matches nothing, and the real one still matches.
    monkeypatch.setattr(library_mod, "weak_bucket", lambda tensor: ("same",))
    lib = restored()
    assert lib.match_weak(spec, key).node == expected.node
    assert lib.match_weak(spec, ("no", "such", "key")) is None
    # ... and a spec without a bucket goes to the keys directly.
    monkeypatch.setattr(library_mod, "weak_bucket", lambda tensor: None)
    assert lib.match_weak(spec, key).node == expected.node
