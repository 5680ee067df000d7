"""Self-healing supervisor for the synthesis daemon.

A long-lived daemon has failure modes a request-level retry cannot fix: a
dispatcher loop wedged on a stuck journal ``fsync``, a dead accept thread,
a SIGSTOP'd or livelocked process.  :class:`Supervisor` runs the daemon as a
child process and watches two independent signals:

* the **heartbeat file** (``<state_dir>/heartbeat``), refreshed by the
  daemon's dispatcher loop every ``heartbeat_interval_s`` — a stalled event
  loop or stuck fsync stops the beat even while connection threads live;
* the **health probe** (``ServeClient.health()``) — confirms a stale beat
  before killing, and catches the inverse failure (accept thread dead, so
  no client can connect, while the dispatcher still beats).

A daemon judged wedged is SIGKILLed and restarted on the same state
directory; the PR 6 request-journal guarantee makes the restart cheap —
finished requests are re-served byte-identically with zero solver calls and
pending ones resume.  Restart storms are bounded by
``max_restarts``-per-``restart_window_s``; a clean exit (code 0, e.g. a
client-driven ``shutdown``) ends supervision.

Run it via ``stenso-serve --supervise`` (all serving flags pass through to
the child daemon).
"""

from __future__ import annotations

import os
import signal
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ServeError
from repro.serve.client import ServeClient


@dataclass(frozen=True)
class SupervisorPolicy:
    """Watchdog knobs (see module docstring for the detection model)."""

    heartbeat_timeout_s: float = 10.0
    """A beat older than this marks the daemon suspect (then the health
    probe gets the final word)."""

    poll_interval_s: float = 0.5
    """How often the supervisor checks the child."""

    start_grace_s: float = 60.0
    """Time a fresh child gets to produce its first beat (worker spawn +
    SymPy warm-up + journal restore can be slow on a cold host)."""

    max_restarts: int = 5
    """Restarts allowed within ``restart_window_s`` before giving up — a
    daemon that wedges instantly every time is a bug, not a blip."""

    restart_window_s: float = 300.0

    probe_timeout_s: float = 5.0
    """Health-probe connect+read timeout; an unanswered probe is a failure."""


class Supervisor:
    """Run the daemon command under a heartbeat + health-probe watchdog."""

    def __init__(
        self,
        state_dir: str | Path,
        child_argv: list[str],
        socket_path: str | Path | None = None,
        policy: SupervisorPolicy | None = None,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.child_argv = list(child_argv)
        self.socket_path = Path(
            socket_path if socket_path is not None else self.state_dir / "daemon.sock"
        )
        self.policy = policy or SupervisorPolicy()
        self.heartbeat_path = self.state_dir / "heartbeat"
        self.log_path = self.state_dir / "supervisor.log"
        self.restarts = 0
        self._proc: subprocess.Popen | None = None

    # -- plumbing --------------------------------------------------------------

    def _log(self, message: str) -> None:
        line = f"{time.strftime('%Y-%m-%dT%H:%M:%S')} supervisor: {message}"
        print(line, flush=True)
        try:
            self.state_dir.mkdir(parents=True, exist_ok=True)
            with open(self.log_path, "a") as fh:
                fh.write(line + "\n")
        except OSError:
            pass

    def heartbeat_age_s(self) -> float | None:
        """Seconds since the daemon's last beat; None when no beat exists."""
        try:
            return max(0.0, time.time() - self.heartbeat_path.stat().st_mtime)
        except OSError:
            return None

    def _probe_healthy(self) -> bool:
        client = ServeClient(
            self.socket_path,
            timeout_s=self.policy.probe_timeout_s,
            connect_timeout_s=self.policy.probe_timeout_s,
            retries=0,
        )
        try:
            return bool(client.health(timeout_s=self.policy.probe_timeout_s)["healthy"])
        except (ServeError, KeyError):
            return False

    def _wedged(self, started_at: float) -> str | None:
        """Why the live child should be killed, or None when it looks fine."""
        age = self.heartbeat_age_s()
        uptime = time.monotonic() - started_at
        if age is None or age > uptime:
            # No beat from *this* incarnation yet: allow the startup grace.
            if uptime < self.policy.start_grace_s:
                return None
            if self._probe_healthy():
                return None
            return f"no heartbeat within the {self.policy.start_grace_s:g}s start grace"
        if age <= self.policy.heartbeat_timeout_s:
            return None
        # Stale beat: the probe gets the final word, so a daemon whose
        # heartbeat writes fail (full disk) but that still serves is spared.
        if self._probe_healthy():
            return None
        return f"heartbeat is {age:.1f}s stale and the health probe failed"

    def _kill_child(self) -> None:
        proc = self._proc
        if proc is None or proc.poll() is not None:
            return
        # SIGKILL, not SIGTERM: a wedged (or SIGSTOP'd) process may never
        # run a TERM handler, and the journal makes hard kills safe.
        try:
            proc.kill()
        except OSError:
            pass
        try:
            proc.wait(30)
        except subprocess.TimeoutExpired:
            pass

    # -- the supervision loop --------------------------------------------------

    def _watch_one(self) -> int:
        """Supervise one child incarnation until it exits or is killed.
        Returns its exit code (negative for signal deaths)."""
        started_at = time.monotonic()
        proc = self._proc
        while True:
            code = proc.poll()
            if code is not None:
                return code
            reason = self._wedged(started_at)
            if reason is not None:
                self._log(f"daemon pid={proc.pid} wedged ({reason}); killing")
                self._kill_child()
                return proc.poll() if proc.poll() is not None else -signal.SIGKILL
            time.sleep(self.policy.poll_interval_s)

    def run(self) -> int:
        """Supervise until a clean exit (returns 0) or the restart budget is
        exhausted (returns 1).  SIGINT/SIGTERM stop the child and return."""
        recent: list[float] = []
        interrupted = {"flag": False}

        def _forward(signum, frame):
            interrupted["flag"] = True
            proc = self._proc
            if proc is not None and proc.poll() is None:
                try:
                    proc.send_signal(signum)
                except OSError:
                    pass

        previous = {}
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[sig] = signal.signal(sig, _forward)
            except (ValueError, OSError):  # pragma: no cover - non-main thread
                pass
        try:
            while True:
                self._proc = subprocess.Popen(self.child_argv)
                self._log(
                    f"started daemon pid={self._proc.pid}: "
                    + " ".join(self.child_argv)
                )
                code = self._watch_one()
                if interrupted["flag"] or code == 0:
                    self._log(f"daemon exited cleanly (code={code}); done")
                    return 0 if code == 0 else code
                now = time.monotonic()
                window = self.policy.restart_window_s
                recent = [t for t in recent if now - t < window] + [now]
                if len(recent) > self.policy.max_restarts:
                    self._log(
                        f"giving up: {len(recent)} restarts within {window:g}s"
                    )
                    return 1
                self.restarts += 1
                self._log(
                    f"daemon died (code={code}); restarting "
                    f"({self.restarts} restart(s) so far)"
                )
        finally:
            for sig, handler in previous.items():
                try:
                    signal.signal(sig, handler)
                except (ValueError, OSError):  # pragma: no cover
                    pass
