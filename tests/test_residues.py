"""Tests for the vectorized residue batteries (the enumerator's value tier).

Two load-bearing guarantees:

* **Homomorphism** — ``compose(op, attrs, arg_batteries)`` equals
  ``tensor_residues(symbolic_execute(op(args)))`` whenever both are defined,
  so the compositional and the executed entrances to the value partition can
  never disagree.
* **Fallback soundness** — everything the battery cannot represent
  faithfully (irrational entries, vanishing denominators, unmirrored ops)
  yields ``None`` rather than a wrong battery, and the enumerator's tiered
  partition coincides exactly with the canonical-key partition.
"""

import numpy as np
import pytest

from repro.cost import FlopsCostModel
from repro.ir import float_tensor, parse
from repro.ir.nodes import Call, Const, Input
from repro.symexec import canonical_key, symbolic_execute
from repro.symexec.residues import (
    Q1,
    Q2,
    R_POINTS,
    _inv_battery,
    compose,
    residue_key,
    supported_op,
    tensor_residues,
)
from repro.synth import SynthesisConfig
from repro.synth.enumerator import StubEnumerator

A = Input("A", float_tensor(2, 2))
B = Input("B", float_tensor(2, 2))
V = Input("V", float_tensor(3))
W = Input("W", float_tensor(3))
S = Input("S", float_tensor())


def _battery_of(node):
    return tensor_residues(symbolic_execute(node))


def _check_homomorphism(node: Call):
    """compose() from arg batteries == tensor_residues() of the result."""
    arg_batteries = [_battery_of(a) for a in node.args]
    assert all(r is not None for r in arg_batteries)
    composed = compose(node.op, dict(node.attrs), arg_batteries, arg_nodes=node.args)
    executed = _battery_of(node)
    assert composed is not None and executed is not None
    assert composed.shape == executed.shape
    assert (composed == executed).all()


class TestHomomorphism:
    @pytest.mark.parametrize("op", ["add", "subtract", "multiply", "divide"])
    def test_elementwise_binary(self, op):
        _check_homomorphism(Call(op, (A, B)))

    def test_negative(self):
        _check_homomorphism(Call("negative", (A,)))

    def test_broadcast(self):
        _check_homomorphism(Call("add", (A, S)))

    def test_divide_by_const(self):
        _check_homomorphism(Call("divide", (A, Const(3.0))))

    def test_dot_vec_vec(self):
        _check_homomorphism(Call("dot", (V, W)))

    def test_dot_mat_vec(self):
        _check_homomorphism(Call("dot", (A, Input("x", float_tensor(2)))))

    def test_dot_mat_mat(self):
        _check_homomorphism(Call("dot", (A, B)))

    def test_dot_scalar(self):
        _check_homomorphism(Call("dot", (S, A)))

    def test_tensordot_outer(self):
        _check_homomorphism(Call("tensordot", (V, W), axes=0))

    def test_transpose_default(self):
        _check_homomorphism(Call("transpose", (A,)))

    def test_sum_all(self):
        _check_homomorphism(Call("sum", (A,)))

    def test_sum_axis(self):
        _check_homomorphism(Call("sum", (A,), axis=0))

    def test_full(self):
        _check_homomorphism(Call("full", (S,), shape=(2, 2)))

    def test_nested(self):
        inner = Call("multiply", (A, B))
        _check_homomorphism(Call("add", (inner, A)))

    @pytest.mark.parametrize("exponent", [0.0, 1.0, 2.0, 5.0, 17.0])
    def test_power_integer_const(self, exponent):
        _check_homomorphism(Call("power", (A, Const(exponent))))

    def test_power_negative_exponent(self):
        # Offset base so no entry vanishes at a battery point: x**-2 needs
        # the modular inverse of every base residue.
        base = Call("add", (Call("multiply", (A, A)), Const(1.0)))
        _check_homomorphism(Call("power", (base, Const(-2.0))))

    def test_power_of_nested_compose(self):
        _check_homomorphism(Call("power", (Call("subtract", (A, B)), Const(3.0))))


class TestValueIdentity:
    def test_equivalent_programs_share_bytes(self):
        lhs = Call("multiply", (Call("add", (A, B)), Call("subtract", (A, B))))
        rhs = Call("subtract", (Call("multiply", (A, A)), Call("multiply", (B, B))))
        ra, rb = _battery_of(lhs), _battery_of(rhs)
        assert residue_key((2, 2), lhs.type.dtype, ra) == residue_key(
            (2, 2), rhs.type.dtype, rb
        )

    def test_distinct_programs_differ(self):
        ra = _battery_of(Call("add", (A, B)))
        rb = _battery_of(Call("multiply", (A, B)))
        assert ra.tobytes() != rb.tobytes()

    def test_shape_and_reduction(self):
        ra = _battery_of(Call("sum", (A,)))
        assert ra.shape == (2, R_POINTS)
        assert (0 <= ra).all() and (ra[0] < Q1).all() and (ra[1] < Q2).all()


class TestFallbacks:
    def test_irrational_has_no_battery(self):
        assert _battery_of(Call("sqrt", (A,))) is None

    def test_unmirrored_op_composes_to_none(self):
        assert not supported_op("sqrt")
        assert compose("sqrt", {}, [_battery_of(A)]) is None

    def test_zero_denominator_composes_to_none(self):
        zero = _battery_of(Call("subtract", (A, A)))
        assert zero is not None and not zero.any()
        assert compose("divide", {}, [_battery_of(B), zero]) is None

    def test_oversized_contraction_composes_to_none(self):
        big = Input("big", float_tensor(8192))
        arr = np.arange(2 * R_POINTS * 8192, dtype=np.int64).reshape(
            2, R_POINTS, 8192
        ) % Q2
        assert compose("sum", {}, [arr]) is None
        del big

    def test_power_requires_literal_integer_exponent(self):
        ba = _battery_of(A)
        bc = _battery_of(Const(0.5))
        # No nodes supplied: the exponent's true value is invisible.
        assert compose("power", {}, [ba, ba]) is None
        # Non-integer and non-Const exponents stay on the exact path.
        assert compose("power", {}, [ba, bc], arg_nodes=(A, Const(0.5))) is None
        assert compose("power", {}, [ba, ba], arg_nodes=(A, A)) is None
        assert supported_op("power")

    def test_power_negative_exponent_zero_base_composes_to_none(self):
        zero = _battery_of(Call("subtract", (A, A)))
        assert compose("power", {}, [zero, zero], arg_nodes=(A, Const(-1.0))) is None

    def test_inverse_battery(self):
        b = _battery_of(Call("add", (A, Const(1.0))))
        assert b is not None and b.all()
        inv = _inv_battery(b)
        prod = b.astype(object) * inv.astype(object)
        assert (prod[0] % Q1 == 1).all()
        assert (prod[1] % Q2 == 1).all()


class TestPartitionParity:
    """The admitted classes are exactly the canonical keys of the candidates."""

    @pytest.mark.parametrize(
        "source",
        [
            pytest.param("np.dot(A + B, B) / (A * A + 1)", id="rational"),
            pytest.param("np.sqrt(A * A + B)", id="sqrt"),  # weak tier: irrational entries
            pytest.param("np.where(np.less(A, B), A, B)", id="where_less"),  # weak tier: booleans
        ],
    )
    def test_classes_are_the_distinct_canonical_keys(self, source):
        types = {"A": float_tensor(2, 2), "B": float_tensor(2, 2)}
        enumerator = StubEnumerator(
            parse(source, types), SynthesisConfig(max_depth=1), cost_model=FlopsCostModel()
        )
        entries = enumerator.enumerate()
        keys = {canonical_key(symbolic_execute(s)) for s in enumerator.sketch_sources}
        assert {e.key for e in entries} == keys
        assert len(entries) == len(keys)
        assert any(e.res is None for e in entries)  # the weak tier took part


def test_sympy_fallback_rate_stays_low():
    """SymPy settles under 20 % of what the battery tier settles."""
    from repro.pipeline import KernelSpec, ModuleOptimizer

    module = [
        KernelSpec("diag_dot", "np.diag(np.dot(A, B))", {"A": (2, 2), "B": (2, 2)}),
        KernelSpec("exp_log", "np.exp(np.log(A + B))", {"A": (3, 3), "B": (3, 3)}),
    ]
    result = ModuleOptimizer(config=SynthesisConfig(timeout_seconds=90)).optimize_module(module)
    counters = result.metrics_rollup()["counters"]
    assert counters["solver.calls"] > 0  # the module reaches SOLVE
    settled = sum(
        counters.get(f"equiv.fingerprint_{tier}", 0)
        for tier in ("rejects", "hits")
    )
    assert settled > 0
    assert counters.get("equiv.sympy_fallbacks", 0) < 0.2 * settled
