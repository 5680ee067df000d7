"""Property and unit tests for the value-battery equivalence fast path.

The file and test names predate the one-battery engine (they are the suite's
recorded ids); the subject is :mod:`repro.symexec.residues`, the battery
``equivalent`` and the enumerator both read.

The load-bearing guarantee: **batteries never produce a false "inequivalent"
verdict** — if two expressions are semantically equal, their batteries are
equal or at least one is missing (``None``).  Hypothesis drives this with
random expressions pushed through semantics-preserving SymPy transforms.  The
rest covers the exact confirmation of equal batteries, cross-process
determinism, mod-prime arithmetic (division, negative exponents) and
undefined values.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import sympy as sp
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ir.types import DType
from repro.symexec import equivalent, equivalent_exprs, symbolic_execute, tensor_residues
from repro.symexec.residues import Q1, Q2, R_POINTS, _point
from repro.symexec.symtensor import SymTensor, element_symbol

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Input-style symbols (positive, as symbolic execution creates them).
_X = element_symbol("X", (0, 0))
_Y = element_symbol("Y", (0, 0))
_Z = element_symbol("Z", (0, 0))


def _battery(*entries):
    """Battery of the float tensor holding ``entries`` (bytes, or None)."""
    data = np.array(entries[0] if len(entries) == 1 else entries, dtype=object)
    res = tensor_residues(SymTensor(data, DType.FLOAT))
    return None if res is None else res.tobytes()


def _exprs() -> st.SearchStrategy[sp.Expr]:
    leaves = st.sampled_from(
        [_X, _Y, _Z, sp.Integer(2), sp.Integer(3), sp.Rational(1, 2)]
    )

    def combine(children):
        pair = st.tuples(children, children)
        return st.one_of(
            pair.map(lambda ab: ab[0] + ab[1]),
            pair.map(lambda ab: ab[0] * ab[1]),
            pair.map(lambda ab: ab[0] - ab[1]),
            children.map(lambda a: a**2),
            children.map(lambda a: sp.sqrt(a)),
        )

    return st.recursive(leaves, combine, max_leaves=8)


# ---------------------------------------------------------------------------
# No false "inequivalent" verdicts
# ---------------------------------------------------------------------------


@_SETTINGS
@given(_exprs())
def test_fingerprint_invariant_under_rewrites(expr):
    """Semantics-preserving transforms never change a battery."""
    res = _battery(expr)
    for transform in (sp.expand, sp.factor, sp.simplify, sp.cancel):
        try:
            other = transform(expr)
        except (sp.PolynomialError, NotImplementedError):
            continue
        res_other = _battery(other)
        if res is not None and res_other is not None:
            assert res == res_other, (
                f"{expr} vs {transform.__name__}: {other} — equal semantics, "
                "different batteries (unsound rejection)"
            )


@_SETTINGS
@given(_exprs(), _exprs())
def test_fingerprint_agrees_with_sympy_equivalence(a, b):
    """Different batteries (both present) must imply SymPy finds a != b."""
    ra, rb = _battery(a), _battery(b)
    if ra is None or rb is None or ra == rb:
        return
    assert sp.simplify(a - b) != 0


# ---------------------------------------------------------------------------
# Equal or missing batteries decide nothing: the exact tiers do
# ---------------------------------------------------------------------------


def test_equal_fingerprints_still_confirmed_exactly():
    # No battery (sqrt): canonical/simplify must accept a true equivalence
    # whose canonical forms differ ...
    a, b = sp.sqrt(_Y**2 + 2 * _Y + 1), _Y + 1
    assert _battery(a) is None
    assert equivalent_exprs(a, b)
    # ... equal batteries over different trees are confirmed, not assumed ...
    c, d = (_X**2 - _Y**2) / (_X + _Y) + _Y, _X
    assert _battery(c) == _battery(d) is not None
    assert equivalent_exprs(c, d)
    # ... and non-equivalences are rejected whatever the battery says.
    assert not equivalent_exprs(_X + _Y, _X * _Y)


def test_tensor_fingerprint_and_equivalent():
    t1 = SymTensor(np.array([[_X + _Y, _X * 2], [_Y, _X]], dtype=object), DType.FLOAT)
    t2 = SymTensor(np.array([[_Y + _X, 2 * _X], [_Y, _X]], dtype=object), DType.FLOAT)
    t3 = SymTensor(np.array([[_X + _Y, _X * 2], [_Y, _Y]], dtype=object), DType.FLOAT)
    assert (tensor_residues(t1) == tensor_residues(t2)).all()
    assert not (tensor_residues(t1) == tensor_residues(t3)).all()
    assert equivalent(t1, t2)
    assert not equivalent(t1, t3)


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


def test_points_are_deterministic_across_processes():
    code = (
        "import sys; sys.path.insert(0, %r); "
        "import numpy as np; "
        "from repro.ir.types import DType; "
        "from repro.symexec.residues import _point, tensor_residues; "
        "from repro.symexec.symtensor import SymTensor, element_symbol; "
        "x = element_symbol('X', (0, 0)); "
        "t = SymTensor(np.array(x**2 + 3, dtype=object), DType.FLOAT); "
        "print(_point('A[0,0]', 0), _point('m?', 3), tensor_residues(t).tolist())"
    ) % str(Path(__file__).resolve().parents[1] / "src")
    out1 = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    out2 = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out1 == out2
    # ... and match this process too.
    here = tensor_residues(SymTensor(np.array(_X**2 + 3, dtype=object), DType.FLOAT))
    expected = f"{_point('A[0,0]', 0)} {_point('m?', 3)} {here.tolist()}\n"
    assert out1 == expected


def test_boolean_carrier_points_straddle_zero():
    values = [_point(f"m{i}?", j) for i in range(8) for j in range(R_POINTS)]
    assert any(v > 0 for v in values) and any(v < 0 for v in values)


# ---------------------------------------------------------------------------
# Mod-prime arithmetic: division, negative exponents, undefined values
# ---------------------------------------------------------------------------


def test_division_and_negative_exponents_mod_p():
    assert _battery(_X / _Y * _Y) == _battery(_X)
    assert _battery(_X**-2 * _X**3) == _battery(_X)
    assert _battery(sp.Rational(1, 2) / _Y) == _battery(1 / (2 * _Y)) is not None
    res = tensor_residues(SymTensor(np.array(sp.Rational(3, 7), dtype=object), DType.FLOAT))
    assert res.shape == (2, R_POINTS)
    for row, q in zip(res, (Q1, Q2)):
        assert (row == 3 * pow(7, q - 2, q) % q).all()


def test_undefined_values_are_weak_not_wrong():
    assert _battery(sp.zoo) is None
    assert _battery(sp.Integer(1) / (_X - _X)) is None
    # One entry without a battery leaves the whole tensor without one
    # (sound: no verdict).
    assert _battery(_X, sp.zoo * _Y) is None
    # A denominator that vanishes at sample points but not identically must
    # not produce a false inequivalence: (x^2 - y)·z/(x^2 - y) vs z.
    e = (_X**2 - _Y) * _Z / (_X**2 - _Y)
    assert _battery(e) in (None, _battery(_Z))


def test_fingerprint_through_symbolic_execution():
    from repro.ir import float_tensor, parse

    types = {"A": float_tensor(2, 2), "B": float_tensor(2, 2)}
    a = parse("def k(A, B):\n    return (A + B) * (A - B)\n", types)
    b = parse("def k(A, B):\n    return A * A - B * B\n", types)
    c = parse("def k(A, B):\n    return A * A + B * B\n", types)
    ra, rb, rc = (tensor_residues(symbolic_execute(p.node)) for p in (a, b, c))
    assert (ra == rb).all()
    assert not (ra == rc).all()
