"""repro.obs — observability: tracing, metrics, structured logs, progress.

Three pillars (see ``docs/user_guide.md``, "Observability"):

* :mod:`repro.obs.trace` — span-based tracing of the synthesis DFS, solver,
  enumerator, verifier, and e-graph saturator; exports Chrome trace-event
  JSON (Perfetto-loadable) under ``results/runs/<id>/``;
* :mod:`repro.obs.metrics` — counters / gauges / histograms populated by
  :class:`~repro.synth.search.SearchStats`, snapshotted into journal
  completion lines and :meth:`repro.pipeline.ModuleResult.summary`;
* :mod:`repro.obs.log` — structured (optionally JSON) logging shared by the
  journal, caches, and drivers, plus :mod:`repro.obs.progress` for live
  per-kernel progress during parallel runs.

All of it is best-effort: a failing trace sink, log stream, or progress
renderer never fails a synthesis run.
"""

from repro.obs.log import StructuredLogger, configure, get_logger
from repro.obs.metrics import (
    DEPTH_BUCKETS,
    LATENCY_BUCKETS_S,
    MetricsRegistry,
    empty_snapshot,
    merge_snapshots,
)
from repro.obs.progress import ProgressBoard
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    PipeSink,
    Tracer,
    get_tracer,
    install_tracer,
)

__all__ = [
    "DEPTH_BUCKETS",
    "LATENCY_BUCKETS_S",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "PipeSink",
    "ProgressBoard",
    "StructuredLogger",
    "Tracer",
    "configure",
    "empty_snapshot",
    "get_logger",
    "get_tracer",
    "install_tracer",
    "merge_snapshots",
]
