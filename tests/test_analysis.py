"""Tests for the abstract-interpretation analyzer (repro.analysis).

Covers the interval domain, the IR abstract interpreter, the SymPy entry
walker, the synthesis pre-screen, and the contract that the pre-screen's
proofs never change an outcome, end to end.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    Hazard,
    Interval,
    abstract_eval,
    expr_interval,
    node_hazards,
    tensors_disjoint,
)
from repro.analysis.domains import POSITIVE, TOP
from repro.analysis.prescreen import PRESCREEN_BOX
from repro.ir.evaluator import evaluate
from repro.ir.nodes import Call, Const, Input, Node
from repro.ir.types import float_tensor
from repro.ir.parser import parse
from repro.symexec.engine import symbolic_execute
from repro.synth.config import SynthesisConfig
from repro.synth.enumerator import StubEnumerator
from tests.refuters import REFUTERS

A = Input("A", float_tensor(3))
B = Input("B", float_tensor(3))
AM = Input("A", float_tensor(3, 3))
BM = Input("B", float_tensor(3, 3))


# ---------------------------------------------------------------------------
# Interval domain
# ---------------------------------------------------------------------------


class TestInterval:
    def test_point_and_contains(self):
        p = Interval.point(2.0)
        assert p.is_point
        assert p.contains(2.0)
        assert not p.contains(2.5)

    def test_add_sub(self):
        a, b = Interval(1.0, 2.0), Interval(-1.0, 3.0)
        assert (a + b) == Interval(0.0, 5.0)
        assert (a - b) == Interval(-2.0, 3.0)

    def test_mul_signs(self):
        assert Interval(-2.0, 3.0) * Interval(-1.0, 4.0) == Interval(-8.0, 12.0)
        assert Interval(2.0, 3.0) * Interval(-4.0, -1.0) == Interval(-12.0, -2.0)

    def test_recip_spanning_zero_is_top(self):
        assert Interval(-1.0, 1.0).recip() == TOP

    def test_recip_positive(self):
        r = Interval(0.5, 2.0).recip()
        assert r == Interval(0.5, 2.0)

    def test_open_endpoints_propagate(self):
        # (0, inf) stays open at 0 through sqrt: sqrt never attains 0.
        s = POSITIVE.sqrt()
        assert s.lo == 0.0 and s.lo_open
        assert not s.contains_zero()

    def test_sqrt_clamps_negative(self):
        s = Interval(-4.0, 9.0).sqrt()
        assert s.lo == 0.0 and not s.lo_open
        assert s.hi == 3.0

    def test_pow_const(self):
        assert Interval(-2.0, 3.0).pow_const(2.0) == Interval(0.0, 9.0)
        assert Interval(-2.0, 3.0).pow_const(3.0) == Interval(-8.0, 27.0)
        assert Interval(1.0, 2.0).pow_const(0.0) == Interval.point(1.0)
        assert Interval(2.0, 4.0).pow_const(-1.0) == Interval(0.25, 0.5)

    def test_even_pow_high_exponent_terminates(self):
        # Regression: even exponents >= 4 must not recurse.
        assert Interval(-2.0, 1.0).pow_const(4.0) == Interval(0.0, 16.0)

    def test_hull(self):
        assert Interval(0.0, 1.0).hull(Interval(3.0, 4.0)) == Interval(0.0, 4.0)

    def test_disjoint(self):
        assert Interval(0.0, 1.0).disjoint(Interval(2.0, 3.0))
        assert not Interval(0.0, 2.0).disjoint(Interval(1.0, 3.0))
        # Touching closed endpoints intersect.
        assert not Interval(0.0, 1.0).disjoint(Interval(1.0, 2.0))
        # An open boundary separates.
        assert Interval(0.0, 1.0, hi_open=True).disjoint(Interval(1.0, 2.0))

    def test_disjoint_margin(self):
        a, b = Interval(0.0, 1.0), Interval(1.0 + 1e-12, 2.0)
        assert a.disjoint(b)
        # With a relative margin the near-touching pair is treated as
        # possibly intersecting (guards float endpoint rounding).
        assert not a.disjoint(b, margin=1e-9)

    def test_nan_endpoint_widens_to_top(self):
        assert Interval(float("nan"), 1.0) == TOP

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_exp_log_monotone(self):
        e = Interval(0.0, 1.0).exp()
        assert e.lo == 1.0 and e.hi == math.e
        lg = Interval(1.0, math.e).log()
        assert lg.lo == 0.0 and abs(lg.hi - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# Abstract interpreter over IR nodes
# ---------------------------------------------------------------------------


class TestAbstractEval:
    def test_add_range(self):
        av = abstract_eval(Call("add", (A, B)), default=Interval(1.0, 2.0))
        assert av.range == Interval(2.0, 4.0)
        assert not av.hazards

    def test_subtract_same_node_refines_to_zero(self):
        av = abstract_eval(Call("subtract", (A, A)), default=TOP)
        assert av.range == Interval.point(0.0)

    def test_divide_hazard_iff_denominator_may_vanish(self):
        hazardous = node_hazards(Call("divide", (A, B)), default=Interval(-1.0, 1.0))
        assert Hazard.DIV_ZERO in hazardous
        safe = node_hazards(Call("divide", (A, B)), default=Interval(0.5, 2.0))
        assert Hazard.DIV_ZERO not in safe

    def test_sqrt_log_hazards_over_top(self):
        assert Hazard.SQRT_NEG in node_hazards(Call("sqrt", (A,)), default=TOP)
        assert Hazard.LOG_DOM in node_hazards(Call("log", (A,)), default=TOP)
        assert not node_hazards(Call("log", (A,)), default=POSITIVE)

    def test_div_sqrt_positive_is_total(self):
        # Openness is load-bearing: sqrt((0,inf)) = (0,inf), so X/sqrt(X)
        # has no division hazard over the positive verification domain.
        node = Call("divide", (A, Call("sqrt", (A,))))
        assert not node_hazards(node, default=POSITIVE)

    def test_sum_scales_by_reduced_count(self):
        av = abstract_eval(Call("sum", (A,)), default=Interval(1.0, 2.0))
        assert av.range == Interval(3.0, 6.0)

    def test_dot_scales_by_contraction(self):
        av = abstract_eval(Call("dot", (AM, BM)), default=Interval(1.0, 1.0))
        assert av.range == Interval.point(3.0)

    def test_less_is_unit_bool(self):
        av = abstract_eval(Call("less", (A, B)), default=TOP)
        assert av.range == Interval(0.0, 1.0)

    def test_const_range_from_values(self):
        av = abstract_eval(Const(np.array([1.0, 4.0, 2.0])))
        assert av.range == Interval(1.0, 4.0)

    def test_unknown_op_is_top_with_all_hazards(self):
        av = abstract_eval(Call("transpose", (Call("dot", (AM, BM)),)), default=TOP)
        assert av.range == TOP  # identity transfer keeps TOP, no crash

    def test_env_overrides_default(self):
        av = abstract_eval(
            Call("add", (A, B)),
            env={"A": Interval.point(1.0), "B": Interval.point(2.0)},
        )
        assert av.range == Interval.point(3.0)


# ---------------------------------------------------------------------------
# Soundness: abstract range contains every concrete output entry, and an
# undefined concrete execution is always flagged by a hazard.
# ---------------------------------------------------------------------------

_PROGRAMS: list[Node] = [
    Call("add", (A, B)),
    Call("subtract", (A, B)),
    Call("multiply", (A, B)),
    Call("divide", (A, B)),
    Call("sqrt", (A,)),
    Call("exp", (A,)),
    Call("log", (A,)),
    Call("abs", (A,)),
    Call("negative", (Call("multiply", (A, A)),)),
    Call("maximum", (A, B)),
    Call("power", (A, Const(2.0))),
    Call("sum", (Call("multiply", (A, B)),)),
    Call("dot", (AM, BM)),
    Call("divide", (A, Call("sqrt", (A,)))),
]

_BOX = Interval(-2.0, 2.0)


def _contains_with_slack(iv: Interval, value: float) -> bool:
    eps = 1e-9 * max(1.0, abs(value))
    if iv.contains(value):
        return True
    return iv.lo - eps <= value <= iv.hi + eps


@settings(max_examples=25, deadline=None)
@given(
    data=st.lists(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), min_size=18, max_size=18
    )
)
def test_abstract_eval_sound_wrt_evaluator(data):
    arr = np.asarray(data, dtype=float)
    envs = {
        (3,): {"A": arr[:3], "B": arr[3:6]},
        (3, 3): {"A": arr[:9].reshape(3, 3), "B": arr[9:18].reshape(3, 3)},
    }
    for program in _PROGRAMS:
        shape = next(iter(program.inputs())).type.shape
        env = envs[shape]
        av = abstract_eval(program, default=_BOX)
        with np.errstate(all="ignore"):
            try:
                out = np.asarray(evaluate(program, env), dtype=float)
            except Exception:
                out = np.asarray(float("nan"))
        defined = bool(np.isfinite(out).all())
        if not defined:
            # Undefined concrete execution must be flagged abstractly.
            assert av.hazards, f"{program}: undefined but no hazards"
        else:
            for entry in np.ravel(out):
                assert _contains_with_slack(av.range, float(entry)), (
                    f"{program}: {entry} outside {av.range.describe()}"
                )


@settings(max_examples=20, deadline=None)
@given(
    data=st.lists(
        st.floats(min_value=0.5, max_value=2.0, allow_nan=False), min_size=6, max_size=6
    )
)
def test_expr_interval_sound_on_positive_box(data):
    # Input symbols carry positive=True, so only substitute positive values.
    programs = [
        Call("add", (Call("multiply", (A, B)), Const(1.0))),
        Call("sqrt", (Call("add", (A, B)),)),
        Call("divide", (A, Call("sqrt", (A,)))),
        Call("exp", (Call("log", (A,)),)),
    ]
    subs_pool = [sp.Rational(int(round(v * 16)), 16) for v in data]
    for program in programs:
        tensor = symbolic_execute(program)
        for expr in tensor.entries():
            iv = expr_interval(expr, lambda s: PRESCREEN_BOX)
            if iv == TOP:
                continue
            subs = {
                s: subs_pool[i % len(subs_pool)]
                for i, s in enumerate(sorted(expr.free_symbols, key=str))
            }
            value = float(expr.subs(subs))
            assert _contains_with_slack(iv, value), (
                f"{expr}: {value} outside {iv.describe()}"
            )


# ---------------------------------------------------------------------------
# Synthesis pre-screen primitives
# ---------------------------------------------------------------------------


class TestPrescreen:
    @staticmethod
    def _enumerator():
        return StubEnumerator(parse("A / B", {"A": A.type, "B": B.type}), SynthesisConfig())

    def test_provably_zero_syntactic(self):
        """The enumerator has no syntactic zero proof of its own: each zero
        pattern, as a denominator, is declined by battery composition, then
        rejected by ``_divides_by_zero`` or the undefined-entry check."""
        enumerator = self._enumerator()
        zero = Call("subtract", (A, A))
        for node in (A, B, Const(0.0), zero):
            assert enumerator._admit(node) is not None
        denominators = [
            zero,
            Const(np.zeros(3)),
            Call("multiply", (A, Const(np.zeros(3)))),
            Call("sum", (Call("subtract", (B, B)),)),
            Call("power", (zero, Const(2.0))),
        ]
        for den in denominators:
            node = Call("divide", (B, den))
            assert enumerator._admit(node) is None, den
            assert node not in enumerator.sketch_sources, den
        assert enumerator._admit(Call("divide", (B, Call("subtract", (A, B))))) is not None

    def test_divides_by_provable_zero(self):
        enumerator = self._enumerator()
        for node in (A, B):
            assert enumerator._admit(node) is not None
        assert enumerator._admit(Call("divide", (B, Call("subtract", (A, A))))) is None
        assert enumerator._admit(Call("divide", (B, A))) is not None
        assert enumerator._admit(Call("add", (A, B))) is not None

    def test_tensors_disjoint(self):
        # A + B + 10 over [0.5, 2]^2 lies in [11, 14]; A lies in [0.5, 2].
        shifted = symbolic_execute(Call("add", (Call("add", (A, B)), Const(10.0))))
        plain = symbolic_execute(A)
        assert tensors_disjoint(shifted, plain)
        assert not tensors_disjoint(symbolic_execute(Call("add", (A, B))), plain)

    def test_tensors_disjoint_requires_totality(self):
        # log(A) - 100 is far below [0.5, 2] numerically, but the entry walker
        # returns non-TOP only for total functions; log over the closed box is
        # total, so this *should* separate.
        lowered = symbolic_execute(
            Call("subtract", (Call("log", (A,)), Const(100.0)))
        )
        assert tensors_disjoint(lowered, symbolic_execute(A))
        # Division by (A - B) may be undefined on the box -> TOP -> never
        # separates, even from a distant constant.
        risky = symbolic_execute(Call("divide", (Const(1.0), Call("subtract", (A, B)))))
        far = symbolic_execute(Call("add", (A, Const(1000.0))))
        assert not tensors_disjoint(risky, far)


# ---------------------------------------------------------------------------
# End-to-end: the pre-screen is invisible in outcomes, visible in counters
# ---------------------------------------------------------------------------


def _run_batch():
    from repro.pipeline import KernelSpec, ModuleOptimizer
    from repro.synth import SynthesisConfig

    batch = [
        KernelSpec("exp_log", "np.exp(np.log(A + B))", {"A": (3, 3), "B": (3, 3)}),
        KernelSpec("inner", "np.sum(A * B)", {"A": (3,), "B": (3,)}),
        # reaches MATCH's scan, where the pre-screen prunes
        KernelSpec("sum_diag", "np.sum(np.diag(np.dot(A, B)))", {"A": (2, 2), "B": (2, 2)}),
    ]
    config = SynthesisConfig(timeout_seconds=90)
    return ModuleOptimizer(config=config).optimize_module(batch)


def test_prescreen_outcomes_byte_identical(monkeypatch):
    """Baseline: the same batch with the proof predicate never proving."""
    screened = _run_batch()
    REFUTERS["match-prescreen"].off(monkeypatch)
    baseline = _run_batch()
    assert screened.summary() == baseline.summary()
    on_counters = screened.metrics_rollup().get("counters", {})
    off_counters = baseline.metrics_rollup().get("counters", {})
    assert on_counters.get("analysis.prescreen_pruned", 0) > 0
    assert off_counters.get("analysis.prescreen_pruned", 0) == 0
    assert on_counters.get("equiv.sympy_fallbacks", 0) <= off_counters.get(
        "equiv.sympy_fallbacks", 0
    )
