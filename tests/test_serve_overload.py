"""Overload-safety battery for the synthesis daemon.

The contract under test (the robustness layer over :mod:`repro.serve`):

* **admission control** — with ``max_queue_depth`` set, excess submissions
  are shed with a structured ``retry_after`` hint; a higher-priority arrival
  evicts the lowest-priority queued request instead; content-store hits and
  in-flight dedup followers are *always* admitted; ``max_inflight_per_client``
  bounds one client's appetite;
* **deadline propagation** — a queued request whose client deadline passes
  is completed ``timeout`` before dispatch; a dispatched request hands only
  its remaining time to the worker budget;
* **worker lifecycle hygiene** — pool workers are recycled after
  ``max_requests_per_worker`` tasks or an RSS high-watermark, with the warm
  cache files there for the replacement;
* **what a restart trusts** — the request log's result lines are the one
  durable copy of a served result: a line that fails its checksum is dropped
  and its request re-runs, one that decodes but no longer verifies is
  rejected by ``readmit`` and re-synthesized, and a content-store hit is
  served from the in-memory index without re-verification;
* **wire hardening** — malformed, truncated, or oversized frames draw a
  structured protocol error, never a dead connection thread.
"""

import json
import os
import socket
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict
from io import StringIO
from pathlib import Path

import pytest

from repro.errors import ServeError, ShedError, WireError
from repro.journal import decode_line, encode_line
from repro.pipeline import KernelSpec, ModuleOptimizer
from repro.resilience import ResiliencePolicy
from repro.serve import ServeClient, SynthesisDaemon, WorkerPool, content_key
from repro.serve.wire import recv_msg
from repro.synth.cache import PersistentCache
from repro.synth.config import SynthesisConfig

FAST = SynthesisConfig(timeout_seconds=90)

EXP_LOG = KernelSpec("exp_log", "np.exp(np.log(A + B))", {"A": (3, 3), "B": (3, 3)})
LOG_EXP = KernelSpec("log_exp", "np.log(np.exp(C + D))", {"C": (3, 3), "D": (3, 3)})


def _diag(name: str) -> KernelSpec:
    """A solver-heavy kernel under a unique name: occupies a worker for
    seconds and never dedups against its siblings."""
    return KernelSpec(name, "np.diag(np.dot(A, B))", {"A": (3, 3), "B": (3, 3)})


def _short_socket() -> str:
    # AF_UNIX paths are capped around 108 bytes; pytest tmp dirs can blow
    # past that, so sockets live under a short /tmp name instead.
    return os.path.join(tempfile.mkdtemp(prefix="stso", dir="/tmp"), "s.sock")


@contextmanager
def serve(tmp_path, workers=1, config=FAST, policy=None, **daemon_kwargs):
    daemon = SynthesisDaemon(
        tmp_path / "state",
        workers=workers,
        config=config,
        policy=policy or ResiliencePolicy(retry_backoff_s=0.05),
        socket_path=_short_socket(),
        **daemon_kwargs,
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
            pass
        thread.join(60)
        assert not thread.is_alive(), "daemon failed to shut down"


def _wait_state(client, rid: str, state: str, timeout_s: float = 120.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if client.status(rid)["state"] == state:
            return
        time.sleep(0.05)
    raise AssertionError(f"request {rid} never reached state {state!r}")


# ---------------------------------------------------------------------------
# Wire hardening (pure codec, no daemon)
# ---------------------------------------------------------------------------


class TestWireHardening:
    def test_clean_eof_is_none(self):
        assert recv_msg(StringIO("")) is None

    def test_valid_frame_roundtrips(self):
        assert recv_msg(StringIO('{"op": "ping"}\n')) == {"op": "ping"}

    def test_oversized_frame_rejected(self):
        with pytest.raises(WireError, match="bound"):
            recv_msg(StringIO("x" * 64), max_bytes=16)

    def test_truncated_frame_rejected(self):
        with pytest.raises(WireError, match="truncated"):
            recv_msg(StringIO('{"op": "pi'))

    def test_malformed_json_rejected(self):
        with pytest.raises(WireError, match="malformed"):
            recv_msg(StringIO("this is not json\n"))

    def test_non_object_frame_rejected(self):
        with pytest.raises(WireError, match="JSON objects"):
            recv_msg(StringIO("[1, 2, 3]\n"))

    def test_daemon_answers_garbage_with_structured_error(self, tmp_path):
        with serve(tmp_path, workers=1) as (daemon, client):
            # A hand-rolled hostile peer: raw garbage instead of a frame.
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.settimeout(10)
            raw.connect(str(daemon.socket_path))
            raw.sendall(b"%%% not json %%%\n")
            with raw.makefile("r") as fh:
                reply = json.loads(fh.readline())
            raw.close()
            assert reply["ok"] is False
            assert "protocol" in reply["error"]

            # A slow-loris half-frame, then hangup: the connection thread
            # sees a truncated frame and moves on.
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.connect(str(daemon.socket_path))
            raw.sendall(b'{"op": "sub')
            raw.close()

            # The daemon is unharmed either way.
            assert client.ping()
            metrics = client.metrics()["counters"]
            assert metrics["serve.protocol_errors"] >= 1


# ---------------------------------------------------------------------------
# What a restart trusts: the request log's result lines, re-verified once
# ---------------------------------------------------------------------------


def _edit_result_line(state_dir: Path, rid: str, edit) -> None:
    """Replace the request-log line holding ``rid``'s result by
    ``edit(line, payload)``."""
    log = state_dir / "requests.jsonl"
    lines = log.read_text().splitlines(keepends=True)
    for i, line in enumerate(lines):
        payload = decode_line(line)
        if payload is not None and payload.get("type") == "result" and payload["id"] == rid:
            lines[i] = edit(line, payload)
            log.write_text("".join(lines))
            return
    raise AssertionError(f"no result line for {rid}")


def _synthesize(tmp_path, spec: KernelSpec):
    """One daemon lifetime that synthesizes ``spec``: (request id, outcome,
    the daemon's synthesis fingerprint)."""
    with serve(tmp_path, workers=1) as (daemon, client):
        rid = client.submit(spec)
        outcome = client.result(rid, wait=True, timeout_s=300)
        assert client.status(rid)["served_from"] == "synthesis"
    assert outcome.improved
    return rid, outcome, daemon.fingerprint


class TestServedResults:
    def _assert_rerun_then_stored(self, tmp_path, rid, original):
        # The logged result was not trusted: the request runs again, and a
        # repeat is answered with what the re-run produced — by following it
        # while it is in flight, or from the store once it has landed.
        with serve(tmp_path, workers=1) as (daemon, client):
            counters = client.metrics()["counters"]
            assert counters.get("serve.restored", 0) == 0
            assert counters["serve.resumed_pending"] == 1
            early_id = client.submit(EXP_LOG)
            rerun = client.result(rid, wait=True, timeout_s=300)
            assert client.status(rid)["served_from"] == "synthesis"
            early = client.result(early_id, wait=True, timeout_s=60)
            assert client.status(early_id)["served_from"] in ("dedup", "store")
            late_id = client.submit(EXP_LOG)
            late = client.result(late_id, wait=True, timeout_s=60)
            assert client.status(late_id)["served_from"] == "store"
        for outcome in (rerun, early, late):
            assert outcome.optimized_source == original.optimized_source

    def test_bit_flipped_result_line_is_dropped_and_rerun(self, tmp_path):
        rid, original, _ = _synthesize(tmp_path, EXP_LOG)

        def flip(line, payload):
            blob = bytearray(line.encode())
            blob[line.index('"optimized_source"') + 3] ^= 0x01
            return blob.decode()

        _edit_result_line(tmp_path / "state", rid, flip)
        self._assert_rerun_then_stored(tmp_path, rid, original)

    def test_tampered_result_is_rejected_and_resynthesized(self, tmp_path):
        rid, original, _ = _synthesize(tmp_path, EXP_LOG)
        assert "+" in original.optimized_source
        tampered = original.optimized_source.replace("+", "*")

        def tamper(line, payload):
            # A wrong program under a valid checksum: only readmit's
            # re-verification can tell.
            payload["outcome"]["optimized_source"] = tampered
            return encode_line(payload) + "\n"

        _edit_result_line(tmp_path / "state", rid, tamper)
        self._assert_rerun_then_stored(tmp_path, rid, original)

    def test_store_hits_are_not_reverified(self, tmp_path, monkeypatch):
        calls = []
        readmit = ModuleOptimizer.readmit
        monkeypatch.setattr(
            ModuleOptimizer,
            "readmit",
            lambda self, spec, outcome: calls.append(spec.name) or readmit(self, spec, outcome),
        )

        def repeats(client, n=5):
            for _ in range(n):
                rid = client.submit(EXP_LOG)
                outcome = client.result(rid, wait=True, timeout_s=60)
                yield outcome, client.status(rid)["served_from"]

        with serve(tmp_path, workers=1) as (daemon, client):
            first = client.result(client.submit(EXP_LOG), wait=True, timeout_s=300)
            served = list(repeats(client))
        assert calls == []
        with serve(tmp_path, workers=1) as (daemon, client):
            assert len(calls) == 6  # the restart: one per logged result
            served += list(repeats(client))
        assert len(calls) == 6
        assert all(asdict(o) == asdict(first) and src == "store" for o, src in served)

    def test_object_tree_of_an_older_state_dir_is_ignored(self, tmp_path):
        _, original, fingerprint = _synthesize(tmp_path, EXP_LOG)
        state = tmp_path / "state"
        assert not (state / "store" / "objects").exists()
        assert not (state / "store" / "quarantine").exists()
        # What earlier versions also wrote: one checksummed object per
        # synthesized result.  Plant a wrong program under each key.
        for spec in (EXP_LOG, LOG_EXP):
            key = content_key(spec, fingerprint)
            stale = dict(asdict(original), name=spec.name, optimized_source="A * B")
            path = state / "store" / "objects" / key[:2] / f"{key}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(encode_line({"key": key, "outcome": stale}) + "\n")

        with serve(tmp_path, workers=1) as (daemon, client):
            assert client.metrics()["counters"]["serve.restored"] == 1
            repeat_id = client.submit(EXP_LOG)
            repeat = client.result(repeat_id, wait=True, timeout_s=60)
            assert client.status(repeat_id)["served_from"] == "store"
            other_id = client.submit(LOG_EXP)
            other = client.result(other_id, wait=True, timeout_s=300)
            assert client.status(other_id)["served_from"] != "store"
        assert asdict(repeat) == asdict(original)
        assert other.status == "ok" and other.optimized_source != "A * B"


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


class TestAdmissionControl:
    def test_shed_evict_and_always_admitted_paths(self, tmp_path):
        with serve(tmp_path, workers=1, max_queue_depth=2) as (daemon, client):
            # Seed the content store while the worker is free.
            seeded = client.submit(EXP_LOG)
            client.result(seeded, wait=True, timeout_s=300)

            # Occupy the only worker, then fill the queue to its bound.
            filler = client.submit(_diag("diag_fill"))
            _wait_state(client, filler, "running")
            q1 = client.submit(_diag("diag_q1"))
            q2 = client.submit(_diag("diag_q2"))

            # Over the bound at equal priority: shed, with a retry hint.
            with pytest.raises(ShedError) as info:
                client.submit(_diag("diag_q3"))
            assert info.value.retry_after_s > 0
            assert "retry after" in str(info.value)

            # Always-admitted path 1: an identical in-flight kernel attaches
            # as a dedup follower even though the queue is full.
            dup = client.submit(_diag("diag_q1"))

            # A higher-priority arrival is admitted by evicting the
            # lowest-priority queued request (the latest on ties: q2).
            high = client.submit(_diag("diag_high"), priority=10)
            evicted = client.result(q2, wait=True, timeout_s=30)
            assert evicted.status == "shed"
            assert "evicted" in evicted.error and "retry after" in evicted.error
            assert client.status(q2)["served_from"] == "shed"
            for rid in (q1, dup, high):
                assert client.status(rid)["state"] != "done"

            # Always-admitted path 2: a content-store hit costs no worker, so
            # it is served even at the bound.
            store_hit = client.submit(EXP_LOG)
            assert client.result(store_hit, wait=True, timeout_s=30).status == "ok"
            assert client.status(store_hit)["served_from"] == "store"

            counters = client.metrics()["counters"]
            assert counters["serve.shed_queue_full"] == 1
            assert counters["serve.shed_evicted"] == 1
            assert counters["serve.shed"] == 2
            assert counters["serve.dedup_inflight"] == 1

    def test_per_client_inflight_cap(self, tmp_path):
        with serve(tmp_path, workers=1, max_inflight_per_client=1) as (
            daemon,
            client,
        ):
            filler = client.submit(_diag("diag_cap"))
            with pytest.raises(ShedError, match="in flight"):
                client.submit(_diag("diag_cap_extra"))
            # The cap is per client, not global.
            other = ServeClient(daemon.socket_path)
            other_rid = other.submit(EXP_LOG)
            # And a dedup follower of the capped client's own in-flight
            # kernel is still admitted — it costs no worker time.
            dup = client.submit(_diag("diag_cap"))
            assert other.result(other_rid, wait=True, timeout_s=300).status == "ok"
            a = client.result(filler, wait=True, timeout_s=300)
            b = client.result(dup, wait=True, timeout_s=30)
            assert a.optimized_source == b.optimized_source
            # The slot is released on completion: submissions flow again.
            assert client.submit(LOG_EXP)


# ---------------------------------------------------------------------------
# Deadline propagation
# ---------------------------------------------------------------------------


class TestDeadlines:
    def test_expired_in_queue_is_shed_before_dispatch(self, tmp_path):
        with serve(tmp_path, workers=1) as (daemon, client):
            filler = client.submit(_diag("diag_dl"))
            _wait_state(client, filler, "running")
            rid = client.submit(EXP_LOG, deadline_s=0.3)
            outcome = client.result(rid, wait=True, timeout_s=60)
            assert outcome.status == "timeout"
            assert "deadline expired" in outcome.error
            assert client.status(rid)["served_from"] == "deadline"
            counters = client.metrics()["counters"]
            assert counters["serve.deadline_expired"] >= 1
            # No worker ever saw it.
            assert counters.get("serve.dispatched", 0) == 1  # just the filler

    def test_remaining_deadline_bounds_the_worker_budget(self, tmp_path):
        with serve(tmp_path, workers=1) as (daemon, client):
            start = time.monotonic()
            # Solver-heavy kernel (a good 2s of work), 0.5s total life: the
            # worker budget is the *remaining* time, so it must come back
            # degraded/timeout fast — not after the config's 90s synthesis
            # budget.
            rid = client.submit(_diag("diag_budget"), deadline_s=0.5)
            outcome = client.result(rid, wait=True, timeout_s=120)
            elapsed = time.monotonic() - start
            assert outcome.status in ("degraded", "timeout")
            assert elapsed < 60, f"deadline did not bound the budget ({elapsed:.0f}s)"


# ---------------------------------------------------------------------------
# Worker lifecycle hygiene
# ---------------------------------------------------------------------------


class TestWorkerRecycling:
    def test_pool_recycles_after_request_limit(self, tmp_path):
        pool = WorkerPool(
            1,
            config=FAST,
            cache=tmp_path / "cache",
            policy=ResiliencePolicy(
                retry_backoff_s=0.05, max_requests_per_worker=1
            ),
            ctx="spawn",
        )
        pool.start()
        try:
            first = pool._members[0].worker_id
            pool.submit("a", EXP_LOG)
            pool.submit("b", LOG_EXP)
            done = pool.run_until_done()
            assert done["a"].kind == "ok" and done["b"].kind == "ok"
            # Each worker retired after its single task; the pool stayed at
            # full strength on a *different* worker each time.
            assert pool.counters["pool.recycled"] == 2
            assert pool.counters["pool.recycled_requests"] == 2
            assert pool.counters["pool.replacements"] == 0  # hygiene ≠ crash
            assert pool.alive_workers == pool.size == 1
            assert pool._members[0].worker_id != first
        finally:
            pool.stop()

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs Linux procfs")
    def test_pool_recycles_on_rss_watermark(self, tmp_path):
        # An absurdly low watermark: every worker trips it after one task.
        pool = WorkerPool(
            1,
            config=FAST,
            cache=tmp_path / "cache",
            policy=ResiliencePolicy(retry_backoff_s=0.05, worker_rss_limit_mb=1.0),
            ctx="spawn",
        )
        pool.start()
        try:
            pool.submit("a", EXP_LOG)
            done = pool.run_until_done()
            assert done["a"].kind == "ok"
            assert pool.counters["pool.recycled"] == 1
            assert pool.counters["pool.recycled_rss"] == 1
            assert pool.alive_workers == pool.size == 1
        finally:
            pool.stop()

    def test_daemon_serves_across_recycles_with_warm_state(self, tmp_path):
        # Recycling between requests must be invisible to clients: the
        # replacement opens the cache files its predecessor appended to.
        policy = ResiliencePolicy(retry_backoff_s=0.05, max_requests_per_worker=1)
        with serve(tmp_path, workers=1, policy=policy) as (daemon, client):
            first = client.result(
                client.submit(EXP_LOG), wait=True, timeout_s=300
            )
            # Warm handoff: what the first worker found is on disk before it
            # reports the task, so before its replacement is spawned.
            on_disk = PersistentCache(daemon.pool.cache.path)
            assert len(on_disk._load("library")) == 1  # exp_log's library key
            second = client.result(
                client.submit(LOG_EXP), wait=True, timeout_s=300
            )
            assert first.status == "ok" and second.status == "ok"
            assert daemon.pool.counters["pool.recycled"] >= 1
            assert len(PersistentCache(daemon.pool.cache.path)._load("library")) == 2
            assert daemon.pool.alive_workers == daemon.pool.size


# ---------------------------------------------------------------------------
# Health & heartbeat surfaces
# ---------------------------------------------------------------------------


class TestHealthSurface:
    def test_health_op_reports_live_dispatcher(self, tmp_path):
        with serve(tmp_path, workers=1) as (daemon, client):
            health = client.health()
            assert health["healthy"] is True
            assert health["pid"] == os.getpid()
            assert health["dispatcher_age_s"] is not None
            assert health["dispatcher_age_s"] < 5.0
            assert health["pool_alive"] >= 1
            assert health["shedding"] is False

            beat = json.loads(Path(daemon.heartbeat_path).read_text())
            assert beat["pid"] == os.getpid()
            assert beat["time"] == pytest.approx(time.time(), abs=60)
