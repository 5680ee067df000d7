"""Timing wrappers around each layer's entry points, installed from outside.

The traced run calls :func:`install` once, after ``repro`` is imported and
before the timed region; it returns the process's :class:`Recorder`.  Every target is replaced by a wrapper that records
a span ``{name, start, end, parent, op_id}``; where a consumer module imported
the function by name (``from repro.ir.parser import parse``) the name is
patched in that module too, so the call is seen wherever it is made from.

Self time of a span is its duration minus the part its child spans cover;
a layer's inclusive time counts only its outermost spans, so recursion
(``dfs``) and delegation (``CachingCostModel`` → inner model) are not counted
twice.  Hot leaf functions (``canonical``, ``program_cost``…) keep totals
only — a span per call would cost more than the call.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

_now = time.perf_counter


@dataclass(frozen=True)
class Target:
    layer: str  # span name, e.g. "solver.solve"
    module: str
    attr: str  # "func" or "Class.method"
    keep_spans: bool = True
    #: Extra span fields from ``(args, kwargs, result)``; None for none.
    annotate: Callable | None = None


def _library_fields(args, kwargs, library):
    return {
        "stubs": library.stub_count,
        "sketches": library.sketch_count,
        "from_cache": bool(library.from_cache),
    }


def _verdict_field(args, kwargs, result):
    return {"verified": bool(result)}


def _pool_submit_fields(args, kwargs, result):
    return {"task": str(args[1] if len(args) > 1 else kwargs["task_id"])}


def _pool_step_fields(args, kwargs, events):
    done = []
    for event in events:
        worker_s = None
        if event.kind == "ok":
            worker_s = float(event.payload[0].synthesis_seconds)
        done.append({"task": str(event.task_id), "kind": event.kind, "worker_s": worker_s})
    return {"done": done} if done else None


def _store_get_fields(args, kwargs, outcome):
    return {"hit": outcome is not None}


#: Every layer boundary the benchmark times.  Private names appear only where
#: the layer has no public function at its boundary: ``_match_base_case`` is
#: Algorithm 2's MATCH (what ``SearchStats.time_base_match`` times),
#: ``_assemble_library`` the index/sketch build shared by the cold and the
#: restored library, ``_read_file`` the cache's only disk read.
TARGETS = [
    Target("ir.parse", "repro.ir.parser", "parse"),
    Target("ir.parse", "repro.ir.parser", "parse_expression", keep_spans=False),
    Target("symexec.execute", "repro.symexec.engine", "symbolic_execute", keep_spans=False),
    Target("symexec.canonical", "repro.symexec.canonical", "canonical", keep_spans=False),
    Target("symexec.equivalent", "repro.symexec.canonical", "equivalent", keep_spans=False),
    Target("enum.build", "repro.synth.library", "build_library", annotate=_library_fields),
    Target("enum.enumerate", "repro.synth.enumerator", "StubEnumerator.enumerate"),
    Target("enum.assemble", "repro.synth.library", "_assemble_library"),
    Target("search.dfs", "repro.synth.search", "dfs"),
    Target("search.match", "repro.synth.search", "_match_base_case"),
    Target("solver.solve", "repro.synth.solver", "SketchSolver.solve_all"),
    Target("cost.program_cost", "repro.cost.base", "CostModel.program_cost", keep_spans=False),
    Target("cost.program_cost", "repro.cost.cached", "CachingCostModel.program_cost", keep_spans=False),
    Target("verify.candidate", "repro.synth.superoptimizer", "verify_candidate",
           annotate=_verdict_field),
    Target("cache.open", "repro.synth.cache", "PersistentCache._read_file"),
    Target("cache.save", "repro.synth.cache", "PersistentCache.save"),
    Target("cache.library_get", "repro.synth.cache", "PersistentCache.library_get"),
    Target("cache.solver_get", "repro.synth.cache", "PersistentCache.solver_get", keep_spans=False),
    Target("pipeline.kernel", "repro.pipeline", "ModuleOptimizer.optimize_kernel"),
    Target("pipeline.rule_cache", "repro.pipeline", "ModuleOptimizer.try_rule_cache"),
    Target("rules.mine", "repro.rules.mining", "mine_rule"),
    Target("serve.log_append", "repro.serve.daemon", "RequestLog.record_request"),
    Target("serve.log_append", "repro.serve.daemon", "RequestLog.record_result"),
    Target("store.get", "repro.serve.store", "ContentStore.get", annotate=_store_get_fields),
    Target("store.put", "repro.serve.store", "ContentStore.put"),
    Target("pool.submit", "repro.serve.pool", "WorkerPool.submit", annotate=_pool_submit_fields),
    Target("pool.step", "repro.serve.pool", "WorkerPool.step", annotate=_pool_step_fields),
    Target("client.submit", "repro.serve.client", "ServeClient.submit"),
    Target("client.result_wait", "repro.serve.client", "ServeClient.result"),
]


class Recorder:
    """Spans and per-layer totals of one process; safe to call from threads."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        #: layer -> [outermost calls, their inclusive seconds, self seconds]
        self.totals: dict[str, list] = {}
        self.op_id: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, target: Target, fn: Callable) -> Callable:
        layer, keep, annotate = target.layer, target.keep_spans, target.annotate
        recorder = self

        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            # frame: [layer, child seconds, span index or None]
            frame = [layer, 0.0, None]
            if keep:
                span = {
                    "name": layer, "start": 0.0, "end": 0.0,
                    "parent": next((f[2] for f in reversed(stack) if f[2] is not None), None),
                    "op_id": recorder.op_id,
                }
                with recorder._lock:
                    frame[2] = len(recorder.spans)
                    recorder.spans.append(span)
            nested = any(f[0] == layer for f in stack)
            stack.append(frame)
            result = None
            start = _now()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _now()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                with recorder._lock:
                    total = recorder.totals.get(layer)
                    if total is None:
                        total = recorder.totals[layer] = [0, 0.0, 0.0]
                    if not nested:
                        total[0] += 1
                        total[1] += duration
                    total[2] += duration - frame[1]
                if keep:
                    span["start"], span["end"] = start, end
                    if annotate is not None and result is not None:
                        extra = annotate(args, kwargs, result)
                        if extra:
                            span.update(extra)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    def dump(self) -> dict:
        with self._lock:
            return {
                "spans": list(self.spans),
                "totals": {k: list(v) for k, v in self.totals.items()},
            }


def _resolve(target: Target):
    module = importlib.import_module(target.module)
    owner = module
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def install() -> Recorder:
    """Replace every target, and every by-name import of it, by its wrapper."""
    recorder = Recorder()
    for target in TARGETS:
        owner, name = _resolve(target)
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        wrapped = recorder.wrap(target, original)
        setattr(owner, name, wrapped)
        if isinstance(owner, type):
            continue
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)

    return recorder
