"""Self-healing watchdog battery: heartbeat, health probe, supervisor.

The headline proof: SIGSTOP the daemon mid-batch (its dispatcher stops
beating while the kernel still accepts connections — the classic "wedged,
not dead" failure), and the supervisor must detect the missed heartbeat,
confirm via the health probe, SIGKILL the wedged incarnation, and restart it
on the same state dir.  Requests finished before the wedge are re-served
byte-identically from the request journal; in-flight ones complete.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

from repro.pipeline import KernelSpec
from repro.serve import ServeClient, Supervisor, SupervisorPolicy

EXP_LOG = KernelSpec("exp_log", "np.exp(np.log(A + B))", {"A": (3, 3), "B": (3, 3)})
DIAG_DOT = KernelSpec("diag_dot", "np.diag(np.dot(A, B))", {"A": (3, 3), "B": (3, 3)})

TERMINAL = {"ok", "degraded", "timeout", "error", "shed"}


def _short_socket() -> str:
    return os.path.join(tempfile.mkdtemp(prefix="stso", dir="/tmp"), "s.sock")


def _env(**extra) -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("STENSO_FAULTS", None)
    env.update(extra)
    return env


def _serve_argv(state_dir: Path, socket_path: str, *extra: str) -> list[str]:
    return [
        sys.executable,
        "-m",
        "repro.cli",
        "serve",
        "--state-dir",
        str(state_dir),
        "--socket",
        socket_path,
        "--workers",
        "1",
        "--timeout",
        "90",
        *extra,
    ]


def _heartbeat_pid(state_dir: Path) -> int | None:
    try:
        return json.loads((state_dir / "heartbeat").read_text())["pid"]
    except (OSError, ValueError, KeyError):
        return None


# ---------------------------------------------------------------------------
# Supervisor decision logic (no child process)
# ---------------------------------------------------------------------------


class TestWedgeDetection:
    def test_wedged_verdicts(self, tmp_path):
        state = tmp_path / "state"
        state.mkdir()
        policy = SupervisorPolicy(
            heartbeat_timeout_s=0.5, start_grace_s=0.2, probe_timeout_s=0.3
        )
        sup = Supervisor(
            state, ["true"], socket_path=tmp_path / "no.sock", policy=policy
        )
        now = time.monotonic()
        # No beat yet, still inside the start grace: innocent.
        assert sup._wedged(now) is None
        # No beat, grace exhausted, probe unreachable: wedged.
        assert sup._wedged(now - 1.0) is not None
        # A fresh beat clears it regardless of uptime.
        sup.heartbeat_path.write_text(json.dumps({"pid": 1, "time": time.time()}))
        assert sup._wedged(now - 30.0) is None
        # A stale beat with a failing probe: wedged.
        old = time.time() - 60
        os.utime(sup.heartbeat_path, (old, old))
        verdict = sup._wedged(now - 120.0)
        assert verdict is not None and "stale" in verdict

    def test_restart_budget_bounds_crash_loops(self, tmp_path):
        policy = SupervisorPolicy(max_restarts=1, poll_interval_s=0.05)
        sup = Supervisor(
            tmp_path / "state",
            [sys.executable, "-c", "import sys; sys.exit(3)"],
            socket_path=tmp_path / "no.sock",
            policy=policy,
        )
        assert sup.run() == 1  # gave up, did not spin forever
        assert sup.restarts == 1
        assert "giving up" in (tmp_path / "state" / "supervisor.log").read_text()

    def test_clean_exit_ends_supervision(self, tmp_path):
        sup = Supervisor(
            tmp_path / "state",
            [sys.executable, "-c", "import sys; sys.exit(0)"],
            socket_path=tmp_path / "no.sock",
            policy=SupervisorPolicy(poll_interval_s=0.05),
        )
        assert sup.run() == 0
        assert sup.restarts == 0


# ---------------------------------------------------------------------------
# The health probe CLI
# ---------------------------------------------------------------------------


class TestHealthCli:
    def test_health_probe_without_daemon_exits_nonzero(self, tmp_path):
        probe = subprocess.run(
            _serve_argv(tmp_path / "state", str(tmp_path / "no.sock"), "--health"),
            env=_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert probe.returncode == 1
        assert json.loads(probe.stdout)["healthy"] is False


# ---------------------------------------------------------------------------
# The headline: SIGSTOP'd daemon is detected, killed, restarted, and the
# journal re-serves finished work byte-identically.
# ---------------------------------------------------------------------------


class TestSelfHealing:
    def test_supervisor_restarts_sigstopped_daemon(self, tmp_path):
        state = tmp_path / "state"
        socket_path = _short_socket()
        proc = subprocess.Popen(
            _serve_argv(
                state,
                socket_path,
                "--heartbeat-interval",
                "0.2",
                "--supervise",
                "--watchdog-timeout",
                "2",
            ),
            env=_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        stopped_pid = None
        try:
            client = ServeClient(socket_path)
            client.wait_ready(timeout_s=120)

            # One finished request (durable in the request log) and one
            # solver-heavy request still in flight: a genuine mid-batch wedge.
            finished_id = client.submit(EXP_LOG)
            finished = client.result(finished_id, wait=True, timeout_s=300)
            pending_id = client.submit(DIAG_DOT)

            stopped_pid = _heartbeat_pid(state)
            assert stopped_pid is not None and stopped_pid != proc.pid
            os.kill(stopped_pid, signal.SIGSTOP)  # wedged, not dead

            # The supervisor must notice the stalled beat, confirm via the
            # probe, SIGKILL the wedge, and bring up a fresh incarnation.
            deadline = time.monotonic() + 180
            while True:
                assert (
                    time.monotonic() < deadline
                ), "supervisor never replaced the wedged daemon"
                pid = _heartbeat_pid(state)
                if pid is not None and pid != stopped_pid:
                    break
                time.sleep(0.2)

            client = ServeClient(socket_path)
            client.wait_ready(timeout_s=120)

            # Finished work is re-served from the journal, byte-identical.
            again = client.result(finished_id, wait=True, timeout_s=60)
            assert asdict(again) == asdict(finished)
            assert client.status(finished_id)["served_from"] == "restored"
            assert client.metrics()["counters"]["serve.restored"] >= 1

            # The in-flight request still reaches a terminal state.
            resumed = client.result(pending_id, wait=True, timeout_s=300)
            assert resumed.status in TERMINAL

            # The wedged incarnation is actually gone (SIGKILL reaps a
            # SIGSTOP'd process where SIGTERM cannot run a handler).
            try:
                os.kill(stopped_pid, 0)
                alive = True
            except ProcessLookupError:
                alive = False
            assert not alive, "the wedged daemon survived the watchdog"
            stopped_pid = None

            # External monitors see the restarted daemon as healthy.
            probe = subprocess.run(
                _serve_argv(state, socket_path, "--health"),
                env=_env(),
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert probe.returncode == 0
            assert json.loads(probe.stdout)["healthy"] is True

            log = (state / "supervisor.log").read_text()
            assert "wedged" in log and "restarting" in log

            # A client-driven shutdown is a clean exit: supervision ends.
            client.shutdown(drain=True)
            assert proc.wait(120) == 0
        finally:
            if stopped_pid is not None:
                try:
                    os.kill(stopped_pid, signal.SIGKILL)
                except OSError:
                    pass
            if proc.poll() is None:
                proc.kill()
                proc.wait(30)
