"""Every refute-only layer of ``tests/refuters.py`` off, in turn, over the suite.

Each row switched to its no-opinion value must leave its kernels'
libraries (node for node), sketch sources, ``optimized_source``, costs and
``search.*`` / ``solver.*`` counters, but the ones it names as moving, as
they are with every layer on; a row's ``acted`` counter is non-zero with
its layer on and zero with it off.  The layer-on run also checks the layers
of DESIGN.md decision 26 where they answer: every class-wise tensor is the
entrywise rule's, ``srepr`` for ``srepr``; every unevaluated ``Max`` /
``Min`` is the evaluated one; and the undefined check on the representative
agrees with checking every entry.
"""

import numpy as np
import pytest
import sympy as sp

from repro.bench.store import run_synthesis
from repro.bench.suite import benchmark_names, get_benchmark
from repro.symexec import INTERN_TABLE, engine, residues, symtensor
from repro.symexec.symtensor import SymTensor
from repro.synth import enumerator, solver
from repro.synth.enumerator import StubEnumerator
from tests.refuters import REFUTERS, _every_entry_undefined, canonical


def _synthesize(kernel: str) -> tuple:
    """A cold run: (every library and its sketch sources, program, costs, counters)."""
    INTERN_TABLE.clear()
    symtensor._FROM_VALUE_MEMO.clear()
    residues.clear_less_memo()
    for memo in (solver._cancel, solver._keeps_log, solver._factored):  # solver.cancel_* count misses
        memo.cache_clear()
    libraries = []
    real_enumerate = StubEnumerator.enumerate

    def recording_enumerate(self):
        stubs = real_enumerate(self)
        libraries.append(([e.node for e in stubs], list(self.sketch_sources)))
        return stubs

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StubEnumerator, "enumerate", recording_enumerate)
        record = run_synthesis(get_benchmark(kernel), "flops", "default")
    counters = {
        k: v
        for k, v in record.stats["metrics"]["counters"].items()
        if k.startswith(("search.", "solver."))
    }
    return libraries, record.optimized_source, record.original_cost, record.optimized_cost, counters


def _checked_layers(patch, seen: dict) -> None:
    """Wrap each layer so that, where it answers, it is checked against its no-opinion value."""
    real_classwise, real_lattice, real_undefined = engine._classwise, canonical._lattice, enumerator._undefined

    def classwise(op, args, attrs, type):
        out = real_classwise(op, args, attrs, type)
        if out is not None:
            data = engine._rule(op)([a.data for a in args], attrs)
            want = SymTensor(np.asarray(data, dtype=object), type.dtype)
            assert [sp.srepr(e) for e in out.entries()] == [sp.srepr(e) for e in want.entries()], op
            seen["classwise"] += 1
        return out

    def lattice(cls, x, y):
        out = real_lattice(cls, x, y)
        assert sp.srepr(out) == sp.srepr(cls(x, y)), (cls, x, y)
        seen["lattice"] += 1
        return out

    def undefined(tensor):
        out = real_undefined(tensor)
        assert out is _every_entry_undefined(tensor)
        seen["undefined"] += symtensor.index_class(tensor)
        return out

    patch.setattr(engine, "_classwise", classwise)
    patch.setattr(canonical, "_lattice", lattice)
    patch.setattr(enumerator, "_undefined", undefined)


def _unmoved(counters: dict, row) -> dict:
    """The counters a row may not change."""
    return {k: v for k, v in counters.items() if not k.startswith(row.moves)}


@pytest.mark.slow
def test_every_refuter_off_gives_the_same_synthesis():
    kernels = benchmark_names()
    assert len(kernels) == 33
    seen = {"classwise": 0, "lattice": 0, "undefined": 0}
    with pytest.MonkeyPatch.context() as patch:
        _checked_layers(patch, seen)
        on = {kernel: _synthesize(kernel) for kernel in kernels}
    assert seen["classwise"] > 1000 and seen["lattice"] > 100 and seen["undefined"] > 1000
    for row in REFUTERS.values():
        acted = {"on": 0, "off": 0}
        with pytest.MonkeyPatch.context() as patch:
            row.off(patch)
            for kernel in row.kernels or kernels:
                off = _synthesize(kernel)
                assert off[:4] == on[kernel][:4], (row.name, kernel)
                assert _unmoved(off[4], row) == _unmoved(on[kernel][4], row), (row.name, kernel)
                if row.acted:
                    acted["on"] += on[kernel][4].get(row.acted, 0)
                    acted["off"] += off[4].get(row.acted, 0)
        if row.acted:
            assert acted["on"] > 0 and acted["off"] == 0, (row.name, acted)
