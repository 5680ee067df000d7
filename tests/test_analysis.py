"""Tests for the abstract-interpretation analyzer (repro.analysis).

Covers the interval domain, the IR abstract interpreter, the SymPy entry
walker, the synthesis pre-screen, the loop-nest checker, and the contract
that the pre-screen's proofs never change an outcome, end to end.
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
    check_loop_function,
    divides_by_provable_zero,
    expr_interval,
    node_hazards,
    provably_zero,
    tensors_disjoint,
)
from repro.analysis.domains import POSITIVE, TOP
from repro.analysis.prescreen import PRESCREEN_BOX
from repro.ir.evaluator import evaluate
from repro.ir.nodes import Call, Const, Input, Node
from repro.ir.types import float_tensor
from repro.loopir import lower_program
from repro.loopir.ast import (
    Accumulate,
    Alloc,
    BinOp,
    IdxAdd,
    IdxConst,
    IdxVar,
    Literal,
    Loop,
    LoopFunction,
    Read,
    Store,
    UnaryFn,
)
from repro.symexec.engine import symbolic_execute

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
    def test_provably_zero_syntactic(self):
        assert provably_zero(Call("subtract", (A, A)))
        assert provably_zero(Const(np.zeros(3)))
        assert provably_zero(Call("multiply", (A, Const(np.zeros(3)))))
        assert provably_zero(Call("sum", (Call("subtract", (B, B)),)))
        assert not provably_zero(Call("subtract", (A, B)))
        assert not provably_zero(A)
        # power is excluded: 0 ** 0 == 1.
        assert not provably_zero(Call("power", (Call("subtract", (A, A)), Const(2.0))))

    def test_divides_by_provable_zero(self):
        assert divides_by_provable_zero(Call("divide", (B, Call("subtract", (A, A)))))
        assert not divides_by_provable_zero(Call("divide", (B, A)))
        assert not divides_by_provable_zero(Call("add", (A, B)))

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
# Loop-nest checker
# ---------------------------------------------------------------------------


class TestLoopCheck:
    def test_lowered_programs_are_clean(self):
        for program in [
            Call("add", (A, B)),
            Call("dot", (AM, BM)),
            Call("sum", (Call("multiply", (A, B)),)),
            Call("sqrt", (A,)),
        ]:
            fn = lower_program(program)
            assert check_loop_function(fn) == []

    def test_out_of_bounds_access(self):
        fn = LoopFunction(
            name="bad",
            params=("A",),
            param_shapes={"A": (3,)},
            body=(
                Alloc("out", (3,)),
                Loop(
                    "i",
                    3,
                    (Store("out", (IdxVar("i"),), Read("A", (IdxAdd(IdxVar("i"), IdxConst(1)),))),),
                ),
            ),
            result="out",
            result_shape=(3,),
        )
        findings = check_loop_function(fn)
        assert any(f.code == "index-out-of-bounds" for f in findings)

    def test_rank_mismatch(self):
        fn = LoopFunction(
            name="bad",
            params=("A",),
            param_shapes={"A": (3, 3)},
            body=(
                Alloc("out", (3,)),
                Loop("i", 3, (Store("out", (IdxVar("i"),), Read("A", (IdxVar("i"),))),)),
            ),
            result="out",
            result_shape=(3,),
        )
        assert any(f.code == "rank-mismatch" for f in check_loop_function(fn))

    def test_unknown_buffer(self):
        fn = LoopFunction(
            name="bad",
            params=("A",),
            param_shapes={"A": (3,)},
            body=(
                Alloc("out", (3,)),
                Loop("i", 3, (Store("out", (IdxVar("i"),), Read("ghost", (IdxVar("i"),))),)),
            ),
            result="out",
            result_shape=(3,),
        )
        assert any(f.code == "unknown-buffer" for f in check_loop_function(fn))

    def test_division_hazard_flagged_over_wide_box(self):
        fn = LoopFunction(
            name="div",
            params=("A", "B"),
            param_shapes={"A": (3,), "B": (3,)},
            body=(
                Alloc("out", (3,)),
                Loop(
                    "i",
                    3,
                    (
                        Store(
                            "out",
                            (IdxVar("i"),),
                            BinOp("/", Read("A", (IdxVar("i"),)), Read("B", (IdxVar("i"),))),
                        ),
                    ),
                ),
            ),
            result="out",
            result_shape=(3,),
        )
        wide = check_loop_function(fn, input_range=Interval(-1.0, 1.0))
        assert any(f.code == "division-hazard" for f in wide)
        assert check_loop_function(fn) == []  # positive default: total

    def test_domain_hazard_sqrt(self):
        fn = LoopFunction(
            name="s",
            params=("A",),
            param_shapes={"A": (2,)},
            body=(
                Alloc("out", (2,)),
                Loop(
                    "i",
                    2,
                    (Store("out", (IdxVar("i"),), UnaryFn("sqrt", Read("A", (IdxVar("i"),)))),),
                ),
            ),
            result="out",
            result_shape=(2,),
        )
        assert any(
            f.code == "domain-hazard"
            for f in check_loop_function(fn, input_range=Interval(-2.0, 2.0))
        )

    def test_accumulate_widens(self):
        fn = LoopFunction(
            name="acc",
            params=("A",),
            param_shapes={"A": (3,)},
            body=(
                Alloc("out", ()),
                Loop("i", 3, (Accumulate("out", (), Read("A", (IdxVar("i"),))),)),
                Alloc("r", ()),
                Store("r", (), BinOp("/", Literal(1.0), Read("out", ()))),
            ),
            result="r",
            result_shape=(),
        )
        # Accumulation from 0 keeps 0 in the hull, so 1/sum may divide by 0
        # even over the positive input box — must be flagged.
        assert any(f.code == "division-hazard" for f in check_loop_function(fn))


# ---------------------------------------------------------------------------
# End-to-end: the pre-screen is invisible in outcomes, visible in counters
# ---------------------------------------------------------------------------


def _run_batch():
    from repro.pipeline import KernelSpec, ModuleOptimizer
    from repro.synth import SynthesisConfig

    batch = [
        KernelSpec("exp_log", "np.exp(np.log(A + B))", {"A": (3, 3), "B": (3, 3)}),
        KernelSpec("inner", "np.sum(A * B)", {"A": (3,), "B": (3,)}),
    ]
    config = SynthesisConfig(timeout_seconds=90)
    return ModuleOptimizer(config=config).optimize_module(batch)


def test_prescreen_outcomes_byte_identical(monkeypatch):
    """Baseline: the same batch with both proof predicates never proving."""
    screened = _run_batch()
    from repro.analysis import prescreen

    monkeypatch.setattr(prescreen, "divides_by_provable_zero", lambda *a: False)
    monkeypatch.setattr(prescreen, "tensors_disjoint", lambda *a: False)
    baseline = _run_batch()
    assert screened.summary() == baseline.summary()
    on_counters = screened.metrics_rollup().get("counters", {})
    off_counters = baseline.metrics_rollup().get("counters", {})
    assert on_counters.get("analysis.prescreen_pruned", 0) > 0
    assert off_counters.get("analysis.prescreen_pruned", 0) == 0
    assert on_counters.get("equiv.sympy_fallbacks", 0) <= off_counters.get(
        "equiv.sympy_fallbacks", 0
    )
