"""Observability suite: tracing, metrics, logging, and their failure modes.

The contract under test: ``repro.obs`` records spans/instants/metrics for a
synthesis run without ever becoming a dependency of it — a failing sink or
export degrades to a warning, never to a failed kernel — the Chrome
export satisfies its documented schema, worker-forwarded events
merge with per-worker monotonic timestamps, and the disabled (null) tracer
is cheap enough that instrumented hot paths stay within the <5% overhead
budget.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict

import numpy as np
import pytest

from repro.synth.superoptimizer import superoptimize_source
from repro.cli.trace import load_events, main as trace_main, validate_chrome
from repro.journal import RunJournal
from repro.obs.metrics import MetricsRegistry, empty_snapshot, merge_snapshots
from repro.obs.progress import ProgressBoard
from repro.obs.trace import NULL_TRACER, Tracer, get_tracer, install_tracer
from repro.pipeline import KernelOutcome, KernelSpec, ModuleOptimizer
from repro.resilience import set_fault_plan
from repro.synth.config import SynthesisConfig

FAST = SynthesisConfig(timeout_seconds=60)

#: Improves via a base-case match (log(exp(A)) -> A): exercises enumerate,
#: search, match, and verify spans in one cheap run.
EASY_SOURCE = "def k_easy(A):\n    return np.log(np.exp(A))\n"
#: Decomposes through sketches and prunes aggressively: exercises dfs spans,
#: prune instants, and solver calls.
PRUNE_SOURCE = "def k_prune(A, B):\n    return np.diag(np.dot(A, B))\n"


@pytest.fixture(autouse=True)
def _clean_process_state():
    yield
    install_tracer(None)
    set_fault_plan(None)


def _traced_run(source, shapes, **kwargs):
    tracer = install_tracer(Tracer())
    result = superoptimize_source(source, shapes, config=FAST, **kwargs)
    tracer.close_open_spans()
    return tracer, result


# ---------------------------------------------------------------------------
# Span well-formedness
# ---------------------------------------------------------------------------


class TestSpanTree:
    def test_begin_end_produces_balanced_parented_spans(self):
        tracer = Tracer(clock=time.monotonic)
        outer = tracer.begin("outer", "test")
        inner = tracer.begin("inner", "test")
        tracer.instant("tick", "test", reason="x")
        tracer.end(inner)
        tracer.end(outer)
        events = tracer.events()
        spans = [e for e in events if e["type"] == "span"]
        instants = [e for e in events if e["type"] == "instant"]
        assert [s["name"] for s in spans] == ["inner", "outer"]  # emission order
        assert len(instants) == 1
        by_id = {e["id"]: e for e in events}
        assert by_id[inner]["parent"] == outer
        assert by_id[outer]["parent"] is None
        assert instants[0]["parent"] == inner
        for span in spans:
            assert span["dur"] is not None and span["dur"] >= 0

    def test_end_closes_deeper_spans_left_open(self):
        tracer = Tracer()
        outer = tracer.begin("outer")
        tracer.begin("leaked")
        tracer.end(outer)  # must also close "leaked"
        assert tracer._stack == []
        assert {e["name"] for e in tracer.events()} == {"outer", "leaked"}

    def test_real_run_spans_are_well_formed(self):
        tracer, result = _traced_run(EASY_SOURCE, {"A": (2, 2)})
        assert result.improved
        events = tracer.events()
        names = {e["name"] for e in events}
        assert {"enumerate", "search", "dfs", "match"} <= names
        ids = {e["id"] for e in events}
        for event in events:
            if event["parent"] is not None:
                assert event["parent"] in ids
            if event["type"] == "span":
                assert event["dur"] is not None and event["dur"] >= 0
        assert tracer._stack == []  # everything closed

    def test_prune_instants_carry_reasons(self):
        tracer, _ = _traced_run(PRUNE_SOURCE, {"A": (2, 2), "B": (2, 2)})
        prunes = [e for e in tracer.events() if e["name"] == "prune"]
        assert prunes, "prune-heavy kernel produced no prune instants"
        for prune in prunes:
            assert prune["type"] == "instant"
            assert prune["args"]["reason"] in {"bound", "simplification", "floor", "depth-limit"}


# ---------------------------------------------------------------------------
# Export schemas
# ---------------------------------------------------------------------------


class TestExports:
    def test_chrome_export_passes_schema_validation(self, tmp_path):
        tracer, _ = _traced_run(PRUNE_SOURCE, {"A": (2, 2), "B": (2, 2)})
        path = tmp_path / "trace.json"
        assert tracer.export_chrome(path)
        payload = json.loads(path.read_text())
        assert validate_chrome(payload) == []
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert "X" in phases and "M" in phases

    def test_load_events_round_trips_the_chrome_export(self, tmp_path):
        tracer, _ = _traced_run(EASY_SOURCE, {"A": (2, 2)})
        chrome = tmp_path / "t.json"
        assert tracer.export_chrome(chrome)
        from_chrome = load_events(chrome)
        assert len(from_chrome) == len(tracer.events())
        assert {e["name"] for e in from_chrome} == {e["name"] for e in tracer.events()}

    def test_trace_cli_summary_and_validate(self, tmp_path, capsys):
        tracer, _ = _traced_run(PRUNE_SOURCE, {"A": (2, 2), "B": (2, 2)})
        path = tmp_path / "trace.json"
        assert tracer.export_chrome(path)
        assert trace_main(["validate", str(path)]) == 0
        assert trace_main(["summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "hottest stages" in out
        assert "prune" in out
        assert "equivalence tiers:\n  (none)" in out  # no metrics.json beside it
        counters = {"equiv.order_refuted": 8352, "equiv.order_asked": 5568, "search.memo_hits": 3}
        (tmp_path / "metrics.json").write_text(json.dumps({"counters": counters}))
        assert trace_main(["summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "equiv.order_asked" in out and "8352" in out and "search.memo_hits" not in out

    def test_validator_rejects_malformed_payloads(self):
        assert validate_chrome({"no": "traceEvents"})
        assert validate_chrome({"traceEvents": [{"ph": "Z", "name": "x"}]})


# ---------------------------------------------------------------------------
# Worker event merging
# ---------------------------------------------------------------------------


class TestWorkerMerge:
    def test_add_events_rebases_worker_clock_and_rewrites_tid(self):
        parent = Tracer(clock=time.monotonic)
        # A worker whose monotonic clock started at a wildly different epoch.
        base = 1_000_000.0
        batch1 = [
            {"type": "span", "id": 1, "parent": None, "name": "dfs",
             "cat": "search", "tid": "worker", "ts": base + 0.1, "dur": 0.05, "args": {}},
            {"type": "instant", "id": 2, "parent": 1, "name": "prune",
             "cat": "search", "tid": "worker", "ts": base + 0.12, "args": {"reason": "bound"}},
        ]
        batch2 = [
            {"type": "span", "id": 3, "parent": None, "name": "dfs",
             "cat": "search", "tid": "worker", "ts": base + 0.3, "dur": 0.01, "args": {}},
        ]
        parent.add_events(batch1, worker=0)
        parent.add_events(batch2, worker=0)
        merged = [e for e in parent.events() if e["tid"] == "worker-0"]
        assert len(merged) == 3
        stamps = [e["ts"] for e in merged]
        assert stamps == sorted(stamps), "per-worker timestamps must stay monotonic"
        # Both batches share one offset: relative spacing is preserved.
        assert stamps[2] - stamps[0] == pytest.approx(0.2)
        # Rebased into the parent's clock domain, not the worker's epoch.
        assert all(ts < base for ts in stamps)

    def test_parallel_run_merges_worker_events(self):
        pytest.importorskip("multiprocessing")
        kernels = [
            KernelSpec("k_a", "def k_a(A):\n    return np.log(np.exp(A))\n", {"A": (2, 2)}),
            KernelSpec("k_b", "def k_b(C):\n    return np.transpose(np.transpose(C))\n", {"C": (2, 3)}),
        ]
        tracer = install_tracer(Tracer())
        opt = ModuleOptimizer(config=FAST)
        result = opt.optimize_module(kernels, parallel=2, timeout_s=120)
        assert len(result.outcomes) == 2
        worker_tids = {
            e["tid"] for e in tracer.events() if str(e["tid"]).startswith("worker-")
        }
        assert worker_tids, "no worker events were forwarded to the parent tracer"
        for tid in worker_tids:
            # A span is emitted when it *ends* but carries its start ts, so
            # the per-worker monotone quantity is the emission time ts+dur.
            emitted = [
                e["ts"] + (e.get("dur") or 0.0)
                for e in tracer.events()
                if e["tid"] == tid
            ]
            assert emitted == sorted(emitted), "worker stream order was not preserved"

    def test_progress_board_counts_unstarted_finishes(self):
        import io

        board = ProgressBoard(3, stream=io.StringIO(), enabled=True)
        board.start("a")
        board.finish("a", "improved")
        board.finish("b", "restored")  # never started: restore path
        board.finish("c", "unchanged")
        assert board._done == 3


# ---------------------------------------------------------------------------
# Disabled-tracer overhead
# ---------------------------------------------------------------------------


class TestDisabledOverhead:
    def test_null_tracer_is_cheap(self):
        # The hot paths guard every record with `if tracer.enabled:`, so the
        # disabled cost is one attribute load + branch.  Bound it in absolute
        # terms: 200k guarded checks must stay under 0.2s (1µs/check), orders
        # of magnitude below 5% of any real synthesis run, which touches the
        # tracer a few times per solver call — and a solver call costs
        # milliseconds, not microseconds.
        tracer = NULL_TRACER
        assert not tracer.enabled

        def guarded_loop():
            start = time.perf_counter()
            acc = 0
            for i in range(200_000):
                acc += i
                if tracer.enabled:
                    tracer.instant("never", reason="disabled")
            return time.perf_counter() - start

        best = min(guarded_loop() for _ in range(3))
        assert best < 0.2, f"200k disabled-tracer checks took {best:.3f}s"

    def test_null_tracer_api_is_inert(self):
        span = NULL_TRACER.begin("x")
        NULL_TRACER.end(span)
        with NULL_TRACER.span("y"):
            NULL_TRACER.instant("z")
        NULL_TRACER.complete("w", start=0.0, duration=1.0)
        NULL_TRACER.add_events([{"name": "e"}], worker=1)
        NULL_TRACER.flush()
        assert NULL_TRACER.events() == []

    def test_get_tracer_defaults_to_null(self):
        assert get_tracer() is NULL_TRACER


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_registry_snapshot_shapes(self):
        reg = MetricsRegistry()
        reg.counter("search.nodes_expanded").inc(3)
        reg.gauge("solver.cache_hit_ratio").set(0.5)
        reg.histogram("solver.latency_s").observe(0.01)
        snap = reg.snapshot()
        assert snap["counters"]["search.nodes_expanded"] == 3
        assert snap["gauges"]["solver.cache_hit_ratio"] == 0.5
        hist = snap["histograms"]["solver.latency_s"]
        assert hist["count"] == 1 and sum(hist["counts"]) == 1
        assert json.loads(json.dumps(snap)) == snap  # JSON-native throughout

    def test_merge_snapshots_sums_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(5)
        a.gauge("g").set(0.25)
        b.gauge("g").set(0.75)
        a.histogram("h").observe(0.001)
        b.histogram("h").observe(0.1)
        merged = merge_snapshots([a.snapshot(), empty_snapshot(), b.snapshot()])
        assert merged["counters"]["c"] == 7
        assert merged["gauges"]["g"] == 0.75  # max wins
        assert merged["histograms"]["h"]["count"] == 2

    def test_search_stats_populate_metrics(self):
        result = superoptimize_source(
            PRUNE_SOURCE, {"A": (2, 2), "B": (2, 2)}, config=FAST
        )
        snap = result.stats.metrics_snapshot()
        counters = snap["counters"]
        assert counters["search.nodes_expanded"] == result.stats.nodes_expanded
        total_prunes = sum(
            v for k, v in counters.items() if k.startswith("search.prune.")
        )
        assert total_prunes == (
            result.stats.pruned_bound + result.stats.pruned_simplification
        )
        assert "search.depth" in snap["histograms"]

    def test_process_counters_reach_the_registry_under_their_names(self):
        """``equiv.*`` / ``analysis.*`` counts have no flat field, only the
        registry — which still carries every name it carried before the
        fingerprint engine went (all but ``equiv.fingerprint_computed``,
        ``equiv.fingerprint_collisions`` and ``equiv.solver_prescreened``).
        SOLVE's ``cancel`` counts its memo misses by the way it derived them,
        and MATCH counts the stubs it refuted by their IR inputs."""
        from repro.synth import solver
        from repro.synth.search import SearchStats

        solver._cancel.cache_clear()  # the counts are of memo misses
        solver._keeps_log.cache_clear()

        flat = SearchStats().as_dict()
        assert flat["metrics"] == empty_snapshot()
        assert not [
            k for k in flat
            if k.startswith(("fingerprint_", "analysis_", "intern_", "sympy_"))
            or k == "solver_prescreened"
        ]
        result = superoptimize_source(
            PRUNE_SOURCE, {"A": (2, 2), "B": (2, 2)}, config=FAST
        )
        counters = result.stats.metrics_snapshot()["counters"]
        # (intern misses only show when the process-wide table is still cold)
        counters.setdefault("equiv.intern_misses", 1)
        assert {k for k in counters if k.startswith(("equiv.", "analysis."))} == {
            "analysis.prescreen_checks",
            "analysis.prescreen_pruned",
            "equiv.fingerprint_hits",
            "equiv.fingerprint_rejects",
            "equiv.fingerprint_weak",
            "equiv.intern_hits",
            "equiv.intern_misses",
            # diag(dot(A, B))'s sqrt(sum(??)) decompositions are proved by
            # powering, so this kernel no longer reaches sympy_fallbacks.
            "equiv.radical_confirmed",
            "equiv.residue_batteries",
            "equiv.weak_refuted",  # every weak candidate here has an unseen bucket
        }
        assert counters["equiv.weak_refuted"] == counters["equiv.fingerprint_weak"]
        assert all(counters[k] > 0 for k in counters if k.startswith(("equiv.", "analysis.")))
        memo_counts = ("solver.cancel_", "search.match_input_")
        assert {k for k in counters if k.startswith(memo_counts)} == {
            "solver.cancel_exact",
            "solver.cancel_fallback",  # the log atoms' own check
            "search.match_input_refuted",
        }
        assert counters["solver.cancel_exact"] > counters["solver.cancel_fallback"] > 0

    def test_profile_summary_reports_memo_and_cost_cache_hits(self):
        result = superoptimize_source(EASY_SOURCE, {"A": (2, 2)}, config=FAST)
        result.stats.metrics.counter("search.memo_hits").value = 3
        result.stats.cost_cache_hits = 7
        summary = result.stats.profile_summary()
        assert "3 memo" in summary
        assert "cost cache 7 hits" in summary

    def test_metrics_round_trip_through_journal(self, tmp_path):
        spec = KernelSpec("k_easy", EASY_SOURCE, {"A": (2, 2)})
        opt = ModuleOptimizer(config=FAST)
        with RunJournal.create(FAST, run_id="r1", root=tmp_path) as journal:
            result = opt.optimize_module([spec], journal=journal)
        rollup = result.metrics_rollup()
        assert rollup["counters"], "rollup of a synthesized kernel is empty"
        reopened = RunJournal.read("r1", root=tmp_path)
        assert reopened.final_metrics == rollup
        # The per-kernel metrics attached to outcomes survive asdict/json.
        outcome = result.outcomes[0]
        assert outcome.metrics
        assert json.loads(json.dumps(asdict(outcome))) == asdict(outcome)

    def test_summary_metrics_line_is_cache_state_invariant(self):
        # `queries` counts calls + cache hits so warm and cold runs agree.
        cold = superoptimize_source(PRUNE_SOURCE, {"A": (2, 2), "B": (2, 2)}, config=FAST)
        spec = KernelSpec("k_prune", PRUNE_SOURCE, {"A": (2, 2), "B": (2, 2)})
        opt = ModuleOptimizer(config=FAST)
        first = opt.optimize_module([spec])
        again = opt.optimize_module([spec])
        assert first.outcomes[0].name == again.outcomes[0].name
        del cold


# ---------------------------------------------------------------------------
# Fault injection: tracing must never fail synthesis
# ---------------------------------------------------------------------------


class TestTraceFaults:
    def test_failing_sink_never_fails_synthesis(self):
        set_fault_plan("trace[sink]:raise")
        calls = []
        tracer = install_tracer(
            Tracer(sink=calls.append, flush_every=1, flush_interval_s=0.0)
        )
        result = superoptimize_source(EASY_SOURCE, {"A": (2, 2)}, config=FAST)
        assert result.improved  # synthesis unaffected
        assert tracer._sink_failed
        assert calls == []  # the fault fired before any batch was delivered
        assert tracer.events(), "events are still recorded after sink death"

    def test_sink_exception_disables_sink_after_first_failure(self):
        def bad_sink(batch):
            raise OSError("pipe gone")

        tracer = Tracer(sink=bad_sink, flush_every=1, flush_interval_s=0.0)
        tracer.instant("a")
        tracer.instant("b")
        assert tracer._sink_failed
        assert len(tracer.events()) == 2

    def test_failing_export_returns_false_not_raise(self, tmp_path):
        set_fault_plan("trace[write]:raise")
        tracer = Tracer()
        tracer.instant("x")
        assert tracer.export_chrome(tmp_path / "t.json") is False
        assert not (tmp_path / "t.json").exists()

    def test_corrupt_export_is_detected_by_validator(self, tmp_path):
        set_fault_plan("trace[write]:corrupt")
        tracer = Tracer()
        with tracer.span("s"):
            pass
        path = tmp_path / "t.json"
        tracer.export_chrome(path)  # writes truncated text
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError:
            return  # truncation broke the JSON outright: also detected
        assert validate_chrome(payload)
