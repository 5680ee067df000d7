"""Service-grade e2e battery for the synthesis daemon (:mod:`repro.serve`).

The contract under test:

* results served by the daemon are byte-equal to what the batch pipeline
  (:meth:`ModuleOptimizer.optimize_module`) produces for the same kernels;
* a SIGKILL'd daemon restarted on the same state dir re-serves finished
  requests with **zero** re-solving and completes the pending ones;
* concurrent clients submitting the identical kernel trigger one synthesis
  (in-flight dedup) and both receive the result; a restart serves repeats
  from the content store;
* a crashed pool worker is retried on a live replacement that inherits the
  pool's warm cache state (the shared cache files), with the pool back at full
  strength;
* the priority queue releases high-priority requests to workers first, and
  per-request budgets (``max_solver_calls``) degrade gracefully.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.errors import ServeError
from repro.journal import read_entries
from repro.pipeline import KernelOutcome, KernelSpec, ModuleOptimizer
from repro.resilience import FaultPlan, ResiliencePolicy
from repro.serve import ServeClient, SynthesisDaemon
from repro.serve.daemon import RequestLog, ServeRequest
from repro.synth.cache import PersistentCache
from repro.synth.config import SynthesisConfig

FAST = SynthesisConfig(timeout_seconds=90)

MODULE = [
    KernelSpec("exp_log", "np.exp(np.log(A + B))", {"A": (3, 3), "B": (3, 3)}),
    KernelSpec("exp_log_wide", "np.exp(np.log(P + Q))", {"P": (4, 4), "Q": (4, 4)}),
    KernelSpec("matmul", "np.dot(A, B)", {"A": (3, 3), "B": (3, 3)}),
]

EXP_LOG = MODULE[0]
#: Solver-heavy: decomposes through sketches, takes seconds — a reliable
#: "worker is busy" filler and budget-exhaustion subject.
DIAG_DOT = KernelSpec("diag_dot", "np.diag(np.dot(A, B))", {"A": (3, 3), "B": (3, 3)})
LOG_EXP = KernelSpec("log_exp", "np.log(np.exp(C + D))", {"C": (3, 3), "D": (3, 3)})


def _short_socket() -> str:
    # AF_UNIX paths are capped around 108 bytes; pytest tmp dirs can blow
    # past that, so sockets live under a short /tmp name instead.
    return os.path.join(tempfile.mkdtemp(prefix="stso", dir="/tmp"), "s.sock")


@contextmanager
def serve(tmp_path, workers=2, config=FAST, policy=None, subdir="state"):
    daemon = SynthesisDaemon(
        tmp_path / subdir,
        workers=workers,
        config=config,
        policy=policy or ResiliencePolicy(retry_backoff_s=0.05),
        socket_path=_short_socket(),
    )
    daemon.start()
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    client = ServeClient(daemon.socket_path)
    client.wait_ready()
    try:
        yield daemon, client
    finally:
        try:
            client.shutdown(drain=False)
        except ServeError:
            pass  # already shut down by the test
        thread.join(60)
        assert not thread.is_alive(), "daemon failed to shut down"


def _signature(outcome) -> tuple:
    # ``via`` is deliberately excluded: the daemon dispatches concurrently, so
    # a duplicate pattern may synthesize instead of hitting the rule cache —
    # the produced program and costs must be identical either way.
    return (
        outcome.name,
        outcome.improved,
        outcome.original_cost,
        outcome.optimized_cost,
        outcome.optimized_source,
    )


# ---------------------------------------------------------------------------
# Results match the batch pipeline
# ---------------------------------------------------------------------------


class TestResultsMatchPipeline:
    def test_daemon_results_equal_optimize_module(self, tmp_path):
        baseline = ModuleOptimizer(config=FAST).optimize_module(MODULE)
        with serve(tmp_path, workers=2) as (daemon, client):
            ids = [client.submit(spec) for spec in MODULE]
            outcomes = [
                client.result(rid, wait=True, timeout_s=300) for rid in ids
            ]
        assert sorted(_signature(o) for o in outcomes) == sorted(
            _signature(o) for o in baseline.outcomes
        )
        assert all(o.status in ("ok", "degraded") for o in outcomes)

    def test_unimproved_pattern_shortcut_keys_on_the_program(self, tmp_path):
        # Same symbolic spec, different programs: ``A**2`` coming back
        # unimproved must not pass ``A**6 / A**4`` through unchanged.
        square = KernelSpec("elem_square", "np.power(A, 2)", {"A": (2, 3)})
        ratio = KernelSpec("synth_7", "np.power(A, 6) / np.power(A, 4)", {"A": (2, 3)})
        baseline = ModuleOptimizer(config=FAST).optimize_module([square, ratio])
        assert [o.improved for o in baseline.outcomes] == [False, True]
        with serve(tmp_path, workers=1) as (daemon, client):
            outcomes = [
                client.result(client.submit(spec), wait=True, timeout_s=300)
                for spec in (square, ratio)  # the second only after the first's verdict
            ]
            again = client.result(
                client.submit(KernelSpec("sq2", "np.power(P, 2)", {"P": (2, 3)})),
                wait=True, timeout_s=300,
            )
            assert client.metrics()["counters"].get("serve.pattern_hits") == 1
        assert [_signature(o) for o in outcomes] == [
            _signature(o) for o in baseline.outcomes
        ]
        assert not again.improved  # the same program, renamed, still shortcuts

    def test_status_and_metrics_surface(self, tmp_path):
        with serve(tmp_path, workers=1) as (daemon, client):
            rid = client.submit(EXP_LOG)
            client.result(rid, wait=True, timeout_s=300)
            status = client.status()
            assert status["requests"].get("done") == 1
            assert status["pool"]["workers"] == 1
            per_request = client.status(rid)
            assert per_request["state"] == "done"
            assert per_request["status"] == "ok"
            metrics = client.metrics()
            assert metrics["counters"]["serve.submitted"] == 1
            assert metrics["counters"]["serve.completed"] == 1
            with pytest.raises(ServeError):
                client.status("r99999")


# ---------------------------------------------------------------------------
# In-flight dedup and the content store
# ---------------------------------------------------------------------------


class TestDedup:
    def test_concurrent_identical_kernels_synthesize_once(self, tmp_path):
        with serve(tmp_path, workers=1) as (daemon, client):
            # One worker, a slow filler occupying it: both identical submits
            # are queued together and the second attaches to the first.
            filler = client.submit(DIAG_DOT)
            second_client = ServeClient(daemon.socket_path)
            first = client.submit(EXP_LOG)
            second = second_client.submit(EXP_LOG)
            assert first != second
            a = client.result(first, wait=True, timeout_s=300)
            b = second_client.result(second, wait=True, timeout_s=300)
            client.result(filler, wait=True, timeout_s=300)
            counters = client.metrics()["counters"]
        assert asdict(a) == asdict(b)
        assert a.improved
        assert counters["serve.dedup_inflight"] == 1
        # Exactly two syntheses: the filler and one exp_log representative.
        assert counters["serve.dispatched"] == 2

    def test_restart_serves_repeat_submissions_from_store(self, tmp_path):
        with serve(tmp_path, workers=1) as (daemon, client):
            rid = client.submit(EXP_LOG)
            original = client.result(rid, wait=True, timeout_s=300)
            client.shutdown(drain=True)
        with serve(tmp_path, workers=1) as (daemon, client):
            repeat_id = client.submit(EXP_LOG)
            repeat = client.result(repeat_id, wait=True, timeout_s=60)
            assert client.status(repeat_id)["served_from"] == "store"
            assert client.metrics()["counters"]["serve.store_hits"] == 1
        assert asdict(repeat) == asdict(original)


# ---------------------------------------------------------------------------
# Pool worker crash: retried on a live replacement, warm state intact
# ---------------------------------------------------------------------------


class TestCrashReplacement:
    def test_crashed_worker_retries_on_live_replacement(self, tmp_path):
        # Regression: the task killed with its worker must be retried on a
        # *replacement* worker that opens the cache files its predecessor
        # appended to — not on a cold pool missing its peers' discoveries.
        plan = FaultPlan.parse("worker[log_exp]:die@1")
        with serve(tmp_path, workers=1, config=FAST.replace(fault_plan=plan)) as (
            daemon,
            client,
        ):
            warm = client.submit(EXP_LOG)  # completes first: seeds the cache files
            client.result(warm, wait=True, timeout_s=300)
            # The replacement is not born yet, and what it will inherit is
            # already on disk: the worker saved before it reported the task.
            assert daemon.pool.counters["pool.replacements"] == 0
            on_disk = PersistentCache(daemon.pool.cache.path)
            assert len(on_disk._load("library")) == 1  # exp_log's library key
            victim = client.submit(LOG_EXP)
            outcome = client.result(victim, wait=True, timeout_s=300)
            counters = daemon.pool.counters
            assert outcome.status == "ok"
            assert outcome.improved
            assert counters["pool.crash_retries"] == 1
            assert counters["pool.replacements"] == 1
            assert len(PersistentCache(daemon.pool.cache.path)._load("library")) == 2
            assert daemon.pool.alive_workers == daemon.pool.size


# ---------------------------------------------------------------------------
# Priorities and per-request budgets
# ---------------------------------------------------------------------------


class TestQueueSemantics:
    def test_high_priority_overtakes_queued_low(self, tmp_path):
        with serve(tmp_path, workers=1) as (daemon, client):
            filler = client.submit(DIAG_DOT)  # occupies the only worker
            low = client.submit(EXP_LOG, priority=0)
            high = client.submit(LOG_EXP, priority=10)
            finish_order: list[str] = []

            def wait_for(rid: str) -> None:
                client.result(rid, wait=True, timeout_s=300)
                finish_order.append(rid)

            threads = [
                threading.Thread(target=wait_for, args=(rid,))
                for rid in (low, high)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(300)
            client.result(filler, wait=True, timeout_s=300)
        # One worker: the high-priority request was released first, so it
        # finished a full synthesis ahead of the earlier low-priority one.
        assert finish_order == [high, low]

    def test_per_request_solver_budget_degrades(self, tmp_path):
        with serve(tmp_path, workers=1) as (daemon, client):
            rid = client.submit(DIAG_DOT, max_solver_calls=1)
            outcome = client.result(rid, wait=True, timeout_s=300)
        assert outcome.status == "degraded"

    def test_unknown_op_is_rejected_not_fatal(self, tmp_path):
        with serve(tmp_path, workers=1) as (daemon, client):
            with pytest.raises(ServeError, match="unknown op"):
                client._call({"op": "frobnicate"})
            assert client.ping()  # daemon alive and well

    def test_second_daemon_on_same_state_dir_is_refused(self, tmp_path):
        with serve(tmp_path, workers=1) as (daemon, client):
            other = SynthesisDaemon(
                tmp_path / "state", workers=1, config=FAST,
                socket_path=_short_socket(),
            )
            with pytest.raises(ServeError, match="daemon.lock"):
                other.start()


# ---------------------------------------------------------------------------
# SIGKILL the daemon mid-batch; resume with zero re-solving
# ---------------------------------------------------------------------------


def _env(**extra) -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("STENSO_FAULTS", None)
    env.update(extra)
    return env


def _start_daemon(
    state_dir: Path, socket_path: str, entry=("-m", "repro.cli", "serve"), **env
) -> subprocess.Popen:
    proc = subprocess.Popen(
        [
            sys.executable,
            *entry,
            "--state-dir",
            str(state_dir),
            "--socket",
            socket_path,
            "--workers",
            "1",
            "--timeout",
            "90",
        ],
        env=_env(**env),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    assert "listening on" in proc.stdout.readline()
    return proc


def _log_results(state_dir: Path) -> dict[str, dict]:
    entries, _ = read_entries(state_dir / "requests.jsonl")
    return {e["id"]: e for e in entries if e.get("type") == "result"}


def _log_requests(state_dir: Path) -> dict[str, dict]:
    entries, _ = read_entries(state_dir / "requests.jsonl")
    return {e["id"]: e for e in entries if e.get("type") == "request"}


class TestKillResume:
    def test_request_acked_after_a_torn_result_survives_the_next_restart(self, tmp_path):
        """Three daemon lifetimes over one request log, crash mid-append in the first."""
        path = tmp_path / "requests.jsonl"
        r1 = ServeRequest("r1", EXP_LOG)
        r1.outcome = KernelOutcome("exp_log", False, "unchanged", "s", "s", 1.0, 1.0)
        torn = FAST.replace(fault_plan=FaultPlan.parse("journal[exp_log]:corrupt"))

        first = RequestLog(path, "fp", config=torn)
        first.record_request(r1)
        first.record_result(r1)  # half a line, no newline: the crash
        assert not path.read_bytes().endswith(b"\n")

        second = RequestLog(path, "fp")
        second.record_request(ServeRequest("r2", MODULE[2]))  # acked as durable

        requests, results = RequestLog(path, "fp").load()
        assert [entry["id"] for entry in requests] == ["r1", "r2"]
        assert results == {}

    def test_sigkill_mid_batch_resumes_without_resolving(self, tmp_path):
        state_dir = tmp_path / "state"
        socket_path = _short_socket()
        proc = _start_daemon(state_dir, socket_path)
        try:
            client = ServeClient(socket_path)
            client.wait_ready()
            # One worker: the fast kernel completes while the solver-heavy
            # ones still hold the queue — a genuine mid-batch kill window.
            ids = [
                client.submit(EXP_LOG),
                client.submit(DIAG_DOT),
                client.submit(LOG_EXP),
            ]
            deadline = time.monotonic() + 300
            while not _log_results(state_dir):
                assert time.monotonic() < deadline, "no result before kill"
                time.sleep(0.1)
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(30)

        # What was durable at the kill, and which kernel it belongs to.
        finished = _log_results(state_dir)
        requests = _log_requests(state_dir)
        assert set(finished) < set(ids), "kill was not mid-batch"
        finished_names = {
            requests[rid]["spec"]["name"] for rid in finished
        }

        # Restart on the same state dir with the solver rigged to explode for
        # every kernel that already finished: if resume re-solved any of
        # them, its outcome would flip to status='error' and the byte-equality
        # below would fail.
        faults = ";".join(f"solver[{name}]:raise" for name in sorted(finished_names))
        proc = _start_daemon(state_dir, socket_path, STENSO_FAULTS=faults)
        try:
            client = ServeClient(socket_path)
            client.wait_ready()
            for rid in ids:
                outcome = client.result(rid, wait=True, timeout_s=300)
                assert outcome.status in ("ok", "degraded"), (rid, outcome.error)
                if rid in finished:
                    # Byte-equal to the pre-kill record: zero re-solving.
                    assert asdict(outcome) == finished[rid]["outcome"]
            counters = client.metrics()["counters"]
            assert counters["serve.restored"] == len(finished)
            assert counters["serve.resumed_pending"] == len(ids) - len(finished)
            client.shutdown()
        finally:
            if proc.poll() is None:
                proc.terminate()
            assert proc.wait(60) == 0
        # Every request is terminal in the log after the drain.
        assert set(_log_results(state_dir)) == set(ids)

    def test_restarted_daemon_relearns_what_its_log_proves(self, tmp_path):
        # Regression: a restart re-verified restored results but forgot the
        # rules and the unimproved verdicts behind them, so a rename that was
        # a rule-cache hit before the kill was a pool task after it.
        state_dir = tmp_path / "state"
        socket_path = _short_socket()
        matmul = MODULE[2]
        proc = _start_daemon(state_dir, socket_path)
        try:
            client = ServeClient(socket_path)
            client.wait_ready()
            for spec in (EXP_LOG, matmul):
                outcome = client.result(client.submit(spec), wait=True, timeout_s=300)
                assert outcome.status == "ok"
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(30)

        proc = _start_daemon(state_dir, socket_path)
        try:
            client = ServeClient(socket_path)
            client.wait_ready()
            renames = [
                KernelSpec("exp_log_again", EXP_LOG.source, EXP_LOG.inputs),
                KernelSpec("matmul_again", matmul.source, matmul.inputs),
            ]
            served = []
            for spec in renames:
                rid = client.submit(spec)
                served.append(client.result(rid, wait=True, timeout_s=60))
                served.append(client.status(rid)["served_from"])
            assert served[1::2] == ["rule-cache", "pattern"]
            assert served[0].improved and not served[2].improved
            assert client.status()["pool"]["pool.tasks"] == 0
            client.shutdown()
        finally:
            if proc.poll() is None:
                proc.terminate()
            assert proc.wait(60) == 0

    def test_sigterm_during_teardown_still_writes_the_state(self, tmp_path):
        # Regression: the daemon left its interrupt guard before ``close()``
        # and the CLI exported the trace after that, so a SIGTERM right after
        # a shutdown request killed it (exit -15) before ``metrics.json``,
        # the cache, the lock and the trace were written.  Each teardown
        # step here signals the daemon itself, in the window it used to die.
        state_dir, socket_path = tmp_path / "state", _short_socket()
        proc = _start_daemon(
            state_dir, socket_path, entry=("-c", _SIGTERM_IN_TEARDOWN, "--trace")
        )
        try:
            client = ServeClient(socket_path)
            client.wait_ready()
            client.shutdown()
        finally:
            code = proc.wait(60)
        assert code == 0
        assert "counters" in json.loads((state_dir / "metrics.json").read_text())
        assert (state_dir / "trace.json").is_file()
        assert not Path(socket_path).exists()


#: ``stenso serve`` with each teardown step (the daemon's ``close()`` and the
#: trace export) sending SIGTERM to its own process first.
_SIGTERM_IN_TEARDOWN = """
import os, signal, sys
from repro.cli import serve
from repro.obs.trace import Tracer
from repro.serve.daemon import SynthesisDaemon

def signalled(step):
    def run(*args, **kwargs):
        os.kill(os.getpid(), signal.SIGTERM)
        return step(*args, **kwargs)
    return run

SynthesisDaemon.close = signalled(SynthesisDaemon.close)
Tracer.export_chrome = signalled(Tracer.export_chrome)
sys.exit(serve.main(sys.argv[1:]))
"""
