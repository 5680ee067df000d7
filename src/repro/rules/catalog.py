"""The rewrite rules the paper reports STENSO discovering (Section VII-D).

Expressed as :class:`MinedRule` values over metavariable inputs, matching
the paper's three highlighted examples:

* *Diagonal Identity Replacement*:
  ``diag(X @ Y)  =>  sum(X * Y.T, axis=1)``
* *Algebraic Simplification*:
  ``X / sqrt(X)  =>  sqrt(X)``
* *Strength Reduction* (from elem_square / power_neg):
  ``power(X, 2) => X * X`` and ``power(X, -1) => 1 / X``
* *Trace Identity* (from trace_dot / sum_diag_dot):
  ``trace(X @ Y.T) => sum(X * Y)``

The catalog holds finite pattern rules only.  The paper's *Vectorization*
rule (``stack([c ⊙ x for x in X]) => c ⊙ X``) ranges over an unbounded
family of loop bodies, so it is no pattern; synthesis finds each instance
by itself (``synth_10``, ``vec_lerp``).
"""

from __future__ import annotations

from repro.analysis.audit import AuditWaiver
from repro.ir.nodes import Call, Const, Input
from repro.ir.types import float_tensor
from repro.rules.mining import MinedRule

# Metavariable prototypes: concrete small types; matching is dtype-based so
# these shapes never constrain applications.
_X_MAT = Input("X", float_tensor(3, 3))
_Y_MAT = Input("Y", float_tensor(3, 3))
_X_ANY = Input("X", float_tensor(3))


DIAG_IDENTITY = MinedRule(
    name="diag-dot-identity",
    lhs=Call("diag", (Call("dot", (_X_MAT, _Y_MAT)),)),
    rhs=Call("sum", (Call("multiply", (_X_MAT, Call("transpose", (_Y_MAT,)))),), axis=1),
)

DIV_SQRT = MinedRule(
    name="div-sqrt",
    lhs=Call("divide", (_X_ANY, Call("sqrt", (_X_ANY,)))),
    rhs=Call("sqrt", (_X_ANY,)),
)

POW2_TO_MUL = MinedRule(
    name="pow2-to-mul",
    lhs=Call("power", (_X_ANY, Const(2.0))),
    rhs=Call("multiply", (_X_ANY, _X_ANY)),
)

POW_NEG1_TO_DIV = MinedRule(
    name="pow-neg1-to-div",
    lhs=Call("power", (_X_ANY, Const(-1.0))),
    rhs=Call("divide", (Const(1.0), _X_ANY)),
)

TRACE_DOT_IDENTITY = MinedRule(
    name="trace-dot-identity",
    lhs=Call("trace", (Call("dot", (_X_MAT, Call("transpose", (_Y_MAT,)))),)),
    rhs=Call("sum", (Call("multiply", (_X_MAT, _Y_MAT)),)),
)

DISCOVERED_RULES: tuple[MinedRule, ...] = (
    DIAG_IDENTITY,
    DIV_SQRT,
    POW2_TO_MUL,
    POW_NEG1_TO_DIV,
    TRACE_DOT_IDENTITY,
)

#: Audit waivers for the shipped catalog (see :mod:`repro.analysis.audit`
#: and the ``stenso-lint`` CLI).  Each waiver documents *why* a finding is
#: acceptable; unwaivered errors fail the static-analysis CI gate.
AUDIT_WAIVERS = (
    AuditWaiver(
        rule_name="div-sqrt",
        codes=("definedness-narrowing",),
        reason=(
            "X/sqrt(X) is undefined at X=0 while sqrt(X) is 0 there, so the "
            "strict auditor flags a domain extension.  The system verifies "
            "and applies rules on strictly positive inputs (random_inputs "
            "draws from [0.5, 2); input symbols carry positive=True), where "
            "both sides are total and equal."
        ),
    ),
)
