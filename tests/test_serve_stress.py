"""Soak tests for the synthesis daemon: faults, overload, chaos.

The plain soak pushes 50 requests drawn from a small set of normalized
patterns through a 2-worker daemon while a fault plan fires at the
``solver``, ``worker``, and ``journal`` sites.  The chaos profile adds the
overload dimension: a burst 3x over the admission bound, client deadlines
that expire in the queue, a SIGSTOP'd pool worker, a torn result-log write,
and aggressive worker recycling — all at once.  The service-grade invariant
either way: every accepted request reaches a terminal state (``ok |
degraded | timeout | error | shed``), every shed submission carries a
``retry_after`` hint, the queue drains, no worker is left hung, and the
daemon answers health probes afterwards; after the storm a finished
synthesis is still served from the content store.

Marked ``slow``: runs only with ``-m slow`` (see pyproject addopts).
"""

import os
import signal
import tempfile
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict

import pytest

from repro.errors import ServeError, ShedError
from repro.pipeline import KernelSpec
from repro.resilience import FaultPlan, ResiliencePolicy
from repro.serve import ServeClient, SynthesisDaemon, content_key
from repro.synth.config import SynthesisConfig

pytestmark = pytest.mark.slow


@contextmanager
def serve(tmp_path, workers=2, config=None, policy=None, **daemon_kwargs):
    # Short /tmp socket path: AF_UNIX caps paths around 108 bytes.
    socket_path = os.path.join(tempfile.mkdtemp(prefix="stso", dir="/tmp"), "s.sock")
    daemon = SynthesisDaemon(
        tmp_path / "state",
        workers=workers,
        config=config,
        policy=policy,
        socket_path=socket_path,
        **daemon_kwargs,
    )
    daemon.start()
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    client = ServeClient(socket_path)
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

FAST = SynthesisConfig(timeout_seconds=60)

#: Small-shape pattern bodies; each request gets a unique kernel name, so
#: in-flight/content dedup stays out of the way and the pattern fast path
#: (rule cache + known-unimproved batch keys) is what absorbs the repeats.
PATTERNS = [
    ("exp_log", "np.exp(np.log(A + B))", {"A": (2, 2), "B": (2, 2)}),
    ("log_exp", "np.log(np.exp(C))", {"C": (2, 2)}),
    ("plus_zero", "A + 0", {"A": (2, 2)}),
    ("matmul", "np.dot(A, B)", {"A": (2, 2), "B": (2, 2)}),
    ("diag_dot", "np.diag(np.dot(A, B))", {"A": (2, 2), "B": (2, 2)}),
    ("transpose2", "np.transpose(np.transpose(A))", {"A": (2, 3)}),
]

N_REQUESTS = 50

#: One deterministic fault per site, each scoped to a kernel that reliably
#: reaches it: ``exp_log_0`` is the first submission, so it is dispatched to
#: a pool worker before any rule exists (the death is retried on a live
#: replacement); ``diag_dot_4`` is the first of its pattern, so it really
#: synthesizes and hits the rigged solver; the journal fault tears the
#: result-log write of one completed kernel.
FAULTS = "worker[exp_log_0]:die@1;solver[diag_dot_4]:raise;journal[log_exp_7]:corrupt"

TERMINAL = {"ok", "degraded", "timeout", "error", "shed"}


def _batch() -> list[KernelSpec]:
    specs = []
    for i in range(N_REQUESTS):
        base, source, inputs = PATTERNS[i % len(PATTERNS)]
        specs.append(KernelSpec(f"{base}_{i}", source, inputs))
    return specs


def test_soak_mixed_priorities_with_faults(tmp_path):
    config = FAST.replace(fault_plan=FaultPlan.parse(FAULTS))
    policy = ResiliencePolicy(retry_backoff_s=0.05, max_retries=1)
    outcomes = {}
    with serve(tmp_path, workers=2, config=config, policy=policy) as (daemon, client):
        specs = _batch()
        ids = {
            client.submit(spec, priority=i % 3): spec
            for i, spec in enumerate(specs)
        }
        lock = threading.Lock()

        def collect(rid: str) -> None:
            outcome = client.result(rid, wait=True, timeout_s=540)
            with lock:
                outcomes[rid] = outcome

        waiters = [
            threading.Thread(target=collect, args=(rid,)) for rid in ids
        ]
        for t in waiters:
            t.start()
        for t in waiters:
            t.join(560)
        assert not any(t.is_alive() for t in waiters), "a result wait hung"

        # The queue drained and nothing is stuck in a worker.
        status = client.status()
        assert status["queued"] == 0
        assert status["pool"]["busy"] == 0
        assert status["pool"]["alive"] == daemon.pool.size
        # The injected worker death was absorbed by a live replacement.
        assert status["pool"]["pool.replacements"] >= 1

        # Every request is terminal, and the injected faults only hurt their
        # own kernels: the poisoned solver kernel reports an error while its
        # siblings of the same pattern still resolve.
        assert set(outcomes) == set(ids)
        statuses = Counter(o.status for o in outcomes.values())
        assert set(statuses) <= TERMINAL
        by_name = {ids[rid].name: o for rid, o in outcomes.items()}
        assert by_name["diag_dot_4"].status == "error"
        assert by_name["exp_log_0"].status == "ok"
        assert statuses["ok"] + statuses["degraded"] >= N_REQUESTS - 5

        # Still responsive after the soak: a fresh round-trip succeeds.
        assert client.ping()
        extra = client.submit(KernelSpec("post_soak", "np.exp(np.log(Z))", {"Z": (2, 2)}))
        assert client.result(extra, wait=True, timeout_s=300).status in TERMINAL


# ---------------------------------------------------------------------------
# Chaos profile: overload + wedged worker + torn log write, simultaneously
# ---------------------------------------------------------------------------

QUEUE_BOUND = 6
N_CHAOS = 3 * QUEUE_BOUND

CHAOS_FAULTS = (
    "worker[chaos_exp_log_0]:die@1;"
    "solver[chaos_diag_dot_4]:raise;"
    "journal[chaos_log_exp_1]:corrupt"
)


def test_chaos_overload_profile(tmp_path):
    config = FAST.replace(fault_plan=FaultPlan.parse(CHAOS_FAULTS))
    policy = ResiliencePolicy(
        retry_backoff_s=0.05,
        max_retries=1,
        kernel_timeout_s=10,  # bounds how long a SIGSTOP'd worker wedges a task
        max_requests_per_worker=2,  # aggressive lifecycle hygiene under load
    )
    with serve(
        tmp_path, workers=2, config=config, policy=policy, max_queue_depth=QUEUE_BOUND
    ) as (daemon, client):
        # Burst 3x over the admission bound.  Every ~4th request carries a
        # short deadline; the ones deep in the queue must expire *before*
        # dispatch rather than burn a worker.
        accepted: dict[str, KernelSpec] = {}
        shed = 0
        for i in range(N_CHAOS):
            base, source, inputs = PATTERNS[i % len(PATTERNS)]
            spec = KernelSpec(f"chaos_{base}_{i}", source, inputs)
            deadline = 0.3 if i % 4 == 1 else None
            try:
                rid = client.submit(spec, priority=i % 3, deadline_s=deadline)
            except ShedError as exc:
                shed += 1
                assert exc.retry_after_s > 0  # structured backpressure
                continue
            accepted[rid] = spec
        assert shed >= 1, "a 3x burst never tripped admission control"
        assert len(accepted) >= QUEUE_BOUND  # the bound admitted a full queue

        # Wedge one worker mid-task: SIGSTOP stops the beat of its process
        # without killing it — the pool's hard deadline must replace it.
        deadline = time.monotonic() + 60
        member = daemon.pool._members[0]
        while member.task is None:
            assert time.monotonic() < deadline, "worker never picked up a task"
            time.sleep(0.05)
        os.kill(member.proc.pid, signal.SIGSTOP)

        # Drain everything that was admitted.
        outcomes = {}
        lock = threading.Lock()

        def collect(rid: str) -> None:
            outcome = client.result(rid, wait=True, timeout_s=540)
            with lock:
                outcomes[rid] = outcome

        waiters = [threading.Thread(target=collect, args=(rid,)) for rid in accepted]
        for t in waiters:
            t.start()
        for t in waiters:
            t.join(560)
        assert not any(t.is_alive() for t in waiters), "a result wait hung"

        # Every accepted request is terminal; nothing hung, nothing lost.
        assert set(outcomes) == set(accepted)
        statuses = Counter(o.status for o in outcomes.values())
        assert set(statuses) <= TERMINAL
        # The queue-side deadline enforcement really fired.
        counters = client.metrics()["counters"]
        assert counters["serve.deadline_expired"] >= 1
        # The SIGSTOP'd worker was hard-killed and replaced.
        status = client.status()
        assert status["pool"]["pool.replacements"] >= 1
        assert status["pool"]["alive"] == daemon.pool.size
        assert status["pool"]["busy"] == 0
        assert status["queued"] == 0
        # Lifecycle hygiene kept firing under load.
        assert status["pool"]["pool.recycled"] >= 1

        # A finished synthesis resubmitted after the storm is a content-store
        # hit, identical to what its first client received.
        victim = next(
            (
                rid
                for rid, spec in accepted.items()
                if outcomes[rid].status == "ok"
                # Only synthesized results are indexed; rule-cache and
                # pattern hits re-resolve instead.
                and daemon.store.get(content_key(spec, daemon.fingerprint)) is not None
            ),
            None,
        )
        assert victim is not None, "chaos killed every single kernel"
        again = client.submit(accepted[victim])
        reserved = client.result(again, wait=True, timeout_s=60)
        assert asdict(reserved) == asdict(outcomes[victim])
        assert client.status(again)["served_from"] == "store"

        # The daemon itself answers health probes after the storm.
        health = client.health()
        assert health["healthy"] is True
        assert health["pool_alive"] == daemon.pool.size
