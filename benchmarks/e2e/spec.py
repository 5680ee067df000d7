"""The benchmark's definition: workloads, metrics, and how they interact.

This module imports nothing from ``repro`` — the orchestrator, ``compare.py``
and the self-test read it without paying the SymPy import.  ``BENCHMARK.json``
at the repository root is the projection :func:`benchmark_json` of it (the
self-test asserts the two agree); the fields the root file's fixed schema has
no room for (``layer``, ``moves``, ``on``, ``exact``) live only here; how the
metrics interact is written out in ``README.md``.
"""

from __future__ import annotations

import json
import sys

#: How long one driver run measures (``--seconds`` default), in seconds.
RUN_SECONDS = 25

#: ``nominal_s`` is one repeat's set-up plus timed region on the 2-core
#: sizing host at its slower speed; a run makes ``max(1, seconds //
#: nominal_s)`` repeats, so the operation count is fixed by ``--seconds``
#: alone, never by how fast the commit under test happens to be.  Only
#: ``batch_warm_cache`` fits twice into the default 25 s: the driver's 92 runs
#: must end within 3420 s, and they take ~2500 s when the host is slow.
#: ``setup_samples`` is how many set-ups a run times (its repeats' own, the
#: rest set-up-only processes): five where a set-up is half a second of
#: imports, fewer where it starts a daemon (2.5 s) or writes a cache (7 s).
WORKLOADS = [
    {
        "name": "suite_enum",
        "nominal_s": 21,
        "setup_samples": 5,
        "why": "26 Table I/II kernels that finish at DFS node 1: stub enumeration and "
        "equivalence tiers do ~98% of the work, the solver none, so a solver change must not show",
    },
    {
        "name": "suite_search",
        "nominal_s": 17,
        "setup_samples": 5,
        "why": "the 6 suite kernels that reach SOLVE/PRUNE within the time cap (vec_lerp, 47 s, "
        "is left out): solver, DFS, memo and branch-and-bound show, enumeration barely does",
    },
    {
        "name": "batch_warm_cache",
        "nominal_s": 12,
        "setup_samples": 2,
        "why": "a 7-kernel module read back from a PersistentCache that set-up wrote in another "
        "process: cache reads are timed, cache writes are setup_s, rule cache and dedup are on the path",
    },
    {
        "name": "daemon_mixed",
        "nominal_s": 17,
        "setup_samples": 3,
        "why": "400 requests over 29 kernels, 2 closed-loop clients, 71% exact repeats: the median is a "
        "content-store hit, the 95th percentile a synthesis through the 2-worker pool",
    },
]

WORKLOAD_NAMES = [w["name"] for w in WORKLOADS]
SEQUENTIAL = ("suite_enum", "suite_search", "batch_warm_cache")

#: ``bound`` is the share of the parent's median by which the metric may get
#: worse.  Every time is in reference-speed seconds (``hostspeed.py``): the
#: 2-core sizing host's speed steps between regimes up to 2x apart, so ten
#: wall-clock runs of one workload spread (quartile distance / median) by
#: 12-27%, more than any bound the schema allows; restated at reference speed
#: they spread by 2-8% on the sequential workloads and 5-17% on
#: ``daemon_mixed``, whose cheap requests wait on sockets, fsync and the
#: daemon's GIL as much as on the CPU.  The time bounds stay as wide as the
#: schema allows, three times the usual spread.  The quality metrics are
#: exact counts from the ``flops`` model and identical for every seed; their
#: bound only has to be smaller than one kernel's worth of change.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "op_s_geomean", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "op_s_p50", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "op_s_p95", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "improved_count", "unit": "count", "better": "higher", "bound": 0.005},
    {"name": "cost_ratio_geomean", "unit": "ratio", "better": "lower", "bound": 0.005},
]

_ALL = tuple(WORKLOAD_NAMES)
_SUITES = ("suite_enum", "suite_search")
_DAEMON = ("daemon_mixed",)
_CACHE = ("batch_warm_cache",)


def _m(layer, name, unit, better, moves, on, exact=False):
    return {
        "layer": layer, "name": name, "unit": unit, "better": better,
        "moves": list(moves), "on": list(on), "exact": exact,
    }


_WALL = ("wall_s",)
_WALL_OP = ("wall_s", "op_s_geomean")
_P50 = ("op_s_p50",)
_TAIL = ("op_s_p95", "wall_s")

#: Each per-layer metric names the end-to-end metric it should move
#: (``moves``) and the workloads where it should (``on``); on the others the
#: prediction is no change.  ``exact`` marks counts that repeat exactly on the
#: sequential workloads (``--check-determinism`` verifies it) and so may carry
#: a claim; times and ``daemon_mixed`` counts that depend on which client
#: wins a race never are.
PER_LAYER = [
    _m("ir", "ir.parse_s", "s", "lower", _WALL, _ALL),
    _m("ir", "ir.parse_calls", "count", "lower", _WALL, _ALL, exact=True),
    _m("symexec", "symexec.execute_s", "s", "lower", _WALL_OP, _SUITES),
    _m("symexec", "symexec.execute_calls", "count", "lower", _WALL_OP, _SUITES, exact=True),
    _m("symexec", "symexec.canonical_s", "s", "lower", _WALL_OP, _SUITES),
    _m("symexec", "symexec.equivalent_s", "s", "lower", _WALL_OP, _SUITES),
    _m("symexec", "symexec.equivalent_calls", "count", "lower", _WALL_OP, _SUITES, exact=True),
    _m("symexec", "equiv.residue_batteries", "count", "lower", _WALL_OP, ("suite_enum",), exact=True),
    _m("symexec", "equiv.fingerprint_rejects", "count", "higher", _WALL_OP, _SUITES, exact=True),
    _m("symexec", "equiv.fingerprint_hits", "count", "higher", _WALL_OP, _SUITES, exact=True),
    _m("symexec", "equiv.sympy_fallbacks", "count", "lower", _WALL_OP, _SUITES, exact=True),
    _m("symexec", "equiv.intern_hit_ratio", "ratio", "higher", _WALL_OP, _SUITES),
    _m("analysis", "analysis.prescreen_checks", "count", "lower", _WALL, ("suite_enum",), exact=True),
    _m("analysis", "analysis.prescreen_pruned", "count", "higher", _WALL, ("suite_enum",), exact=True),
    _m("analysis", "analysis.prescreen_pruned_ratio", "ratio", "higher", _WALL, ("suite_enum",), exact=True),
    _m("synth.enumerator", "enum.build_s", "s", "lower", _WALL_OP, ("suite_enum",)),
    _m("synth.enumerator", "enum.enumerate_s", "s", "lower", _WALL_OP, ("suite_enum",)),
    _m("synth.library", "enum.assemble_s", "s", "lower", _WALL_OP, ("suite_enum", "batch_warm_cache")),
    _m("synth.enumerator", "enum.stubs", "count", "lower", _WALL_OP, ("suite_enum",), exact=True),
    _m("synth.enumerator", "enum.sketches", "count", "lower", _WALL_OP, _SUITES, exact=True),
    _m("synth.library", "enum.library_cache_hits", "count", "higher", _WALL, _CACHE, exact=True),
    _m("synth.search", "search.dfs_s", "s", "lower", _WALL, ("suite_search",)),
    _m("synth.search", "search.match_s", "s", "lower", _WALL, ("suite_search",)),
    _m("synth.search", "search.nodes_expanded", "count", "lower", _WALL, ("suite_search",), exact=True),
    _m("synth.search", "search.pruned_bound", "count", "higher", _WALL, ("suite_search",), exact=True),
    _m("synth.search", "search.pruned_simplification", "count", "higher", _WALL, ("suite_search",), exact=True),
    _m("synth.search", "search.base_case_matches", "count", "higher", _WALL, ("suite_search",), exact=True),
    _m("synth.search", "search.memo_hits", "count", "higher", _WALL, ("suite_search",), exact=True),
    _m("synth.search", "search.max_depth", "count", "lower", _WALL, ("suite_search",), exact=True),
    _m("synth.solver", "solver.solve_s", "s", "lower", _WALL_OP, ("suite_search",)),
    _m("synth.solver", "solver.calls", "count", "lower", _WALL_OP, ("suite_search",), exact=True),
    _m("synth.solver", "solver.hits", "count", "higher", _WALL_OP, ("suite_search",), exact=True),
    _m("synth.solver", "solver.hit_ratio", "ratio", "higher", _WALL_OP, ("suite_search",), exact=True),
    _m("synth.solver", "solver.cache_hits", "count", "higher", _WALL_OP, _CACHE, exact=True),
    _m("synth.solver", "solver.latency_s_p50", "s", "lower", _WALL_OP, ("suite_search",)),
    _m("synth.solver", "solver.latency_s_p95", "s", "lower", _WALL_OP, ("suite_search",)),
    _m("cost", "cost.program_cost_s", "s", "lower", _WALL, ("suite_search", "batch_warm_cache")),
    _m("cost", "cost.calls", "count", "lower", _WALL, ("suite_search", "batch_warm_cache"), exact=True),
    _m("cost", "cost.cache_hits", "count", "higher", _WALL, _CACHE, exact=True),
    _m("verify", "verify.candidate_s", "s", "lower", _WALL, _ALL),
    _m("verify", "verify.calls", "count", "lower", _WALL, _ALL, exact=True),
    _m("verify", "verify.rejected", "count", "lower", ("improved_count",), _ALL, exact=True),
    _m("verify", "verify.domain_narrowed", "count", "lower", ("improved_count",), _ALL, exact=True),
    _m("synth.cache", "cache.open_s", "s", "lower", _WALL, _CACHE),
    _m("synth.cache", "cache.save_s", "s", "lower", ("setup_s",), _CACHE),
    _m("synth.cache", "cache.library_get_s", "s", "lower", _WALL, _CACHE),
    _m("synth.cache", "cache.solver_get_s", "s", "lower", _WALL, _CACHE),
    _m("synth.cache", "cache.library_hits", "count", "higher", _WALL, _CACHE, exact=True),
    _m("synth.cache", "cache.solver_hits", "count", "higher", _WALL, _CACHE, exact=True),
    _m("synth.cache", "cache.disk_bytes", "count", "lower", ("setup_s", "wall_s"), _CACHE),
    _m("pipeline", "pipeline.kernel_s", "s", "lower", _WALL, ("batch_warm_cache", "daemon_mixed")),
    _m("pipeline", "pipeline.rule_cache_s", "s", "lower", _WALL, ("batch_warm_cache", "daemon_mixed")),
    _m("pipeline", "pipeline.rule_cache_hits", "count", "higher", ("wall_s", "improved_count"),
       ("batch_warm_cache", "daemon_mixed")),
    _m("pipeline", "pipeline.unattributed_s", "s", "lower", _WALL, _ALL),
    _m("rules", "rules.mine_s", "s", "lower", _WALL, ("batch_warm_cache",)),
    _m("rules", "rules.mined", "count", "higher", ("improved_count",), ("batch_warm_cache", "daemon_mixed")),
    _m("rules", "rules.audit_rejected", "count", "lower", ("improved_count",),
       ("batch_warm_cache", "daemon_mixed")),
    _m("serve.client", "client.submit_s_p50", "s", "lower", _P50, _DAEMON),
    _m("serve.client", "client.result_wait_s_p50", "s", "lower", _P50, _DAEMON),
    _m("serve.daemon", "serve.log_append_s", "s", "lower", _P50, _DAEMON),
    _m("serve.daemon", "serve.log_appends", "count", "lower", _P50, _DAEMON),
    _m("serve.daemon", "serve.served_from.store", "count", "higher", _P50, _DAEMON),
    _m("serve.daemon", "serve.served_from.synthesis", "count", "lower", _TAIL, _DAEMON),
    _m("serve.daemon", "serve.served_from.rule-cache", "count", "higher", _TAIL, _DAEMON),
    _m("serve.daemon", "serve.served_from.pattern", "count", "higher", _TAIL, _DAEMON),
    _m("serve.daemon", "serve.served_from.dedup", "count", "higher", _TAIL, _DAEMON),
    _m("serve.daemon", "serve.shed", "count", "lower", _P50, _DAEMON),
    _m("serve.daemon", "serve.request_seconds_p50", "s", "lower", _P50, _DAEMON),
    _m("serve.store", "store.get_s", "s", "lower", _P50, _DAEMON),
    _m("serve.store", "store.put_s", "s", "lower", _TAIL, _DAEMON),
    _m("serve.store", "store.gets", "count", "lower", _P50, _DAEMON),
    _m("serve.store", "store.hits", "count", "higher", _P50, _DAEMON),
    _m("serve.store", "store.hit_ratio", "ratio", "higher", _P50, _DAEMON),
    _m("serve.pool", "pool.submit_s", "s", "lower", _TAIL, _DAEMON),
    _m("serve.pool", "pool.step_s", "s", "lower", _TAIL, _DAEMON),
    _m("serve.pool", "pool.tasks", "count", "lower", _TAIL, _DAEMON),
    _m("serve.pool", "pool.task_roundtrip_s", "s", "lower", _TAIL, _DAEMON),
    _m("serve.pool", "pool.ipc_overhead_s", "s", "lower", _TAIL, _DAEMON),
    _m("serve.pool", "pool.worker_busy_share", "ratio", "higher", _TAIL, _DAEMON),
    _m("serve.pool", "pool.retries", "count", "lower", _TAIL, _DAEMON),
    _m("obs", "trace.overhead_share", "ratio", "lower", _WALL, _ALL),
    _m("obs", "trace.spans", "count", "lower", _WALL, _ALL),
]

#: Counts ``--check-determinism`` asserts repeat exactly on the sequential
#: workloads, on top of every ``exact`` per-layer metric.
EXACT_END_TO_END = ("improved_count", "cost_ratio_geomean")

def _workload(name: str) -> dict:
    return next(w for w in WORKLOADS if w["name"] == name)


def repeats_for(workload: str, seconds: float) -> int:
    return max(1, int(seconds // _workload(workload)["nominal_s"]))


def setup_samples_for(workload: str) -> int:
    return _workload(workload)["setup_samples"]


def benchmark_json() -> dict:
    """The root ``BENCHMARK.json``: exactly the keys the driver's schema has."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in WORKLOADS],
        "end_to_end": END_TO_END,
        "per_layer": [
            {"name": m["name"], "unit": m["unit"], "better": m["better"]} for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    json.dump(benchmark_json(), sys.stdout, indent=2)
    sys.stdout.write("\n")
