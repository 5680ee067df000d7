"""Every row of ``tests/refuters.py`` off, in turn, against one layer-on run per kernel.

The layer-on runs check the layers where they answer: every class-wise tensor
is the entrywise rule's, ``srepr`` for ``srepr``; every unevaluated ``Max`` /
``Min`` is the evaluated one; the undefined check on the representative agrees
with checking every entry; every ``_cancel`` input is ``sp.cancel``'s; the weak
tier accounts for every weak candidate, and only ``max_stack`` confirms a key.
"""

import numpy as np
import pytest
import sympy as sp

from repro.bench.suite import benchmark_names
from repro.obs.metrics import PROCESS_COUNTERS
from repro.symexec import engine, residues, symtensor
from repro.symexec.symtensor import SymTensor
from repro.synth import enumerator, solver
from tests.refuters import TIME_CAPPED, REFUTERS, _every_entry_undefined, canonical, run, run_off

WEAK_COUNTERS = ("equiv.weak_refuted", "equiv.weak_confirmed", "equiv.weak_unbucketed")


def _checked_layers(patch, seen: dict, cancelled: set) -> None:
    """Wrap each layer so that, where it answers, it is checked against its no-opinion value."""
    real_classwise, real_lattice, real_bucket = engine._classwise, canonical._lattice, residues._bucket_values
    real_undefined, real_cancel = enumerator._undefined, solver._cancel

    def classwise(spec, args, attrs, type):
        out = real_classwise(spec, args, attrs, type)
        if out is not None:
            counted = dict(PROCESS_COUNTERS)  # the entrywise rule asks ``less``: count none of it
            data = (spec.symbolic or spec.eval)([a.data for a in args], attrs)
            PROCESS_COUNTERS.clear()
            PROCESS_COUNTERS.update(counted)
            want = SymTensor(np.asarray(data, dtype=object), type.dtype)
            assert [sp.srepr(e) for e in out.entries()] == [sp.srepr(e) for e in want.entries()], spec.name
            seen["checked.classwise"] += 1
        return out

    def lattice(cls, x, y):
        out = real_lattice(cls, x, y)
        assert sp.srepr(out) == sp.srepr(cls(x, y)), (cls, x, y)
        seen["checked.lattice"] += 1
        return out

    def bucket(tensor):
        seen["checked.bucket"] += symtensor.index_class(tensor)
        return real_bucket(tensor)

    def undefined(tensor):
        out = real_undefined(tensor)
        assert out is _every_entry_undefined(tensor)
        seen["checked.undefined"] += symtensor.index_class(tensor)
        return out

    def cancel(expr):
        cancelled.add(expr)
        return real_cancel(expr)

    patch.setattr(engine, "_classwise", classwise)
    patch.setattr(canonical, "_lattice", lattice)
    patch.setattr(residues, "_bucket_values", bucket)
    patch.setattr(enumerator, "_undefined", undefined)
    patch.setattr(solver, "_cancel", cancel)


@pytest.mark.slow
def test_every_refuter_off_gives_the_same_synthesis():
    kernels = benchmark_names()
    assert len(kernels) == 33
    cancelled = set()
    checks = ("checked." + k for k in ("classwise", "lattice", "bucket", "undefined"))
    seen = dict.fromkeys(checks, 0)

    def checked(kernel, **kwargs):
        """One layer-on run with every layer checked where it answers."""
        counts = dict.fromkeys(seen, 0)
        with pytest.MonkeyPatch.context() as patch:
            _checked_layers(patch, counts, cancelled)
            out = run(kernel, **kwargs)
        return out, counts

    on = {}
    for kernel in kernels:
        on[kernel], counts = checked(kernel)
        on[kernel].counters.update(counts)
        counts = on[kernel].enumerated
        assert not counts.get("equiv.weak_unbucketed"), kernel
        assert sum(counts.get(k, 0) for k in WEAK_COUNTERS) == counts.get("equiv.fingerprint_weak", 0), kernel
    assert {k for k in kernels if on[k].enumerated.get("equiv.weak_confirmed")} == {"max_stack"}
    # A library row compares whole libraries: each enumerated once more,
    # without the goal.  The layers are checked on those runs as well: the
    # goal runs admit few last-level candidates, these every one.
    whole = {}
    for kernel in kernels:
        whole[kernel], counts = checked(kernel, enumeration_only=True)
        for name, count in counts.items():
            seen[name] += count
        counts = whole[kernel].enumerated
        assert not counts.get("equiv.weak_unbucketed"), kernel
        assert sum(counts.get(k, 0) for k in WEAK_COUNTERS) == counts["equiv.fingerprint_weak"] > 0, kernel
    assert {k for k in kernels if whole[k].enumerated.get("equiv.weak_confirmed")} == {"max_stack"}
    assert seen["checked.classwise"] > 1000 and seen["checked.undefined"] > 1000
    assert seen["checked.lattice"] > 100
    assert len(cancelled) > 200  # and most are derived in the fraction field
    assert sum(solver._generators(expr) is not None for expr in cancelled) > len(cancelled) // 2
    for expr in cancelled:
        got, want = solver._cancel(expr), sp.cancel(expr)
        assert got == want and sp.srepr(got) == sp.srepr(want), expr

    for row in REFUTERS.values():
        row_kernels = row.kernels or kernels
        base = whole if row.library else on
        off = [run_off(row, kernel, base[kernel]) for kernel in row_kernels]
        if row.goal_moves:  # held unmoved where the whole last level is admitted
            off += [run_off(row, kernel, whole[kernel], goalless=True) for kernel in row_kernels]
        left_out = [k for k in kernels if k not in row_kernels and k not in TIME_CAPPED]
        for name in row.acted:
            if row.name != "all-off":  # each row acts on its kernels, and on no other
                assert sum(base[k].counters.get(name, 0) for k in row_kernels) > 0, (row.name, name)
                assert not any(base[k].counters.get(name) for k in left_out), (row.name, name)
            assert not any(o.counters.get(name) for o in off), (row.name, name)
