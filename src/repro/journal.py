"""Durable files: the one append-only log, the one atomic publish, and the
crash-safe run journal built on them.

:class:`DurableLog` is the framing every append-only file shares — the run
journal here, the daemon's request log (:mod:`repro.serve.daemon`), the
persistent cache's sections (:mod:`repro.synth.cache`): a header line
binding the file to its schema, one checksummed sorted-key JSON line per
record, a reader that drops torn and corrupt lines and never consumes past
the last newline, an append that cuts off a torn tail first.
:func:`write_atomic` is the one way a file replaced whole is published.
Locking, and what a foreign header means, stay with each schema.

Long STENSO runs (whole-suite sweeps like the paper's Fig. 5/6) die to OOM
kills, preemption, and Ctrl-C; without durable state every interruption
throws away all completed kernels.  :class:`RunJournal` is the write-ahead
log that fixes this:

* one directory per run, ``results/runs/<run_id>/`` (``$STENSO_RUNS``
  overrides the root), holding an append-only ``journal.jsonl``;
* the header (the first valid line) binds the journal to the
  :func:`~repro.synth.cache.synthesis_fingerprint` of the run's
  ``(SynthesisConfig, cost model)`` — resuming under a different
  configuration is refused rather than silently mixing incompatible results;
* each kernel's :class:`~repro.pipeline.KernelOutcome` is appended **the
  moment it completes**, as one checksummed JSON line, flushed and
  ``fsync``\\ ed before the run moves on (a crash can lose at most the
  in-flight kernel, never a completed one);
* ``status`` lines record run transitions (``running`` → ``completed`` /
  ``interrupted``).

The reader is torn-write tolerant: a partial trailing line (the classic
kill-mid-append artifact) is dropped on read and truncated by the next
append; an interior line that fails its checksum is skipped and logged;
neither is ever a crash.  A per-run ``run.lock``
(:class:`~repro.resilience.FileLock`) guarantees a single writer per run id.

``ModuleOptimizer.optimize_module(..., journal=...)`` and the parallel
driver thread a journal through a run: already-journaled kernels are
restored (after a cheap adversarial numeric re-verification) without any
synthesis or solver calls, and SIGINT/SIGTERM stop dispatching, flush
completed outcomes, and mark the run ``interrupted`` — see
``docs/user_guide.md`` ("Crash recovery and resumable runs").

The ``journal`` fault-injection site (:func:`repro.resilience.inject`) fires
inside :meth:`RunJournal.record_outcome` right before the append: ``die``
models a process killed mid-journal, ``corrupt`` writes the record as a torn
half-line.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
import uuid
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.errors import JournalError
from repro.obs.log import get_logger
from repro.resilience import FileLock, inject

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cost.base import CostModel
    from repro.pipeline import KernelOutcome, KernelSpec
    from repro.synth.config import SynthesisConfig

log = get_logger(__name__)

#: Bump when the on-disk journal format changes.
JOURNAL_VERSION = 1

#: Run states a journal can record.
RUN_STATUSES = ("running", "completed", "interrupted")


def default_runs_dir() -> Path:
    """``$STENSO_RUNS`` or ``<repo>/results/runs``."""
    env = os.environ.get("STENSO_RUNS")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[2] / "results" / "runs"


def new_run_id() -> str:
    """A sortable, collision-resistant run id (timestamp + random suffix)."""
    return time.strftime("%Y%m%d-%H%M%S") + "-" + uuid.uuid4().hex[:6]


def kernel_key(spec: "KernelSpec") -> str:
    """Stable identity of one kernel: name, source, and input types."""
    parts = [spec.name, spec.source]
    for name in sorted(spec.inputs):
        t = spec.inputs[name]
        if hasattr(t, "dtype"):
            parts.append(f"{name}:{t.dtype.value}{tuple(t.shape)}")
        else:
            parts.append(f"{name}:float{tuple(t)}")
    return hashlib.sha1("\x1f".join(parts).encode()).hexdigest()[:16]


def _checksum(payload: Mapping) -> str:
    return hashlib.sha1(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()[:12]


def encode_line(payload: Mapping) -> str:
    """One durable line: the payload plus its own checksum, sorted-key JSON."""
    return json.dumps({**payload, "checksum": _checksum(payload)}, sort_keys=True)


def decode_line(line: str | bytes) -> dict | None:
    """Decode one checksummed line; None when torn or corrupt."""
    try:
        payload = json.loads(line)
        want = payload.pop("checksum", None)
        if want != _checksum(payload):
            return None
        return payload
    except Exception:  # noqa: BLE001 — torn/corrupt lines are expected inputs
        return None


def write_atomic(path: str | Path, text: str) -> None:
    """Publish ``text`` as the whole content of ``path``: a reader sees the
    old file or the new one, never a torn one, and a kill leaves no
    ``*.tmp`` behind a live process (same-dir tempfile, fsync, rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class DurableLog:
    """An append-only file of checksummed lines under one header line.

    The header — the first valid line — binds the file to a schema: ``type``,
    ``version`` and, where the schema has one, a synthesis ``fingerprint``.
    The log owns framing, torn-tail repair and the single ``O_APPEND`` write.
    It does not own locking (the run journal holds a per-run lock for its
    lifetime, the request log lives under the daemon lock, cache sections
    take a directory lock per save), nor what a foreign header means
    (:meth:`bound` only says whether it is one: a journal refuses to resume,
    a daemon refuses to serve, a cache section starts empty).
    """

    def __init__(self, path: str | Path, header: Mapping, fsync: bool = True) -> None:
        self.path = Path(path)
        self.header = dict(header)
        self._fsync = fsync

    def bound(self, entry: Mapping) -> bool:
        """Is ``entry`` (the first of a read from 0) this schema's header?"""
        return all(
            entry.get(k) == self.header[k]
            for k in ("type", "version", "fingerprint")
            if k in self.header
        )

    def read(self, offset: int = 0) -> tuple[list[dict], int, int]:
        """``(entries, end, dropped)`` of the complete lines from ``offset``.

        ``end`` is just past the last complete line: a partial last line (a
        writer mid-append, or killed there) counts as dropped but is not
        consumed, so a later read from ``end`` sees it whole.  Lines failing
        their checksum are dropped and logged; a missing file is empty.
        """
        try:
            with open(self.path, "rb") as fh:
                fh.seek(offset)
                data = fh.read()
        except FileNotFoundError:
            return [], offset, 0
        except OSError as exc:
            raise JournalError(f"cannot read {self.path}: {exc}") from exc
        complete = data.rfind(b"\n") + 1
        decoded = [decode_line(line) for line in data[:complete].split(b"\n") if line]
        entries = [payload for payload in decoded if payload is not None]
        dropped = len(decoded) - len(entries) + (complete < len(data))
        if dropped:
            log.warning("dropped torn or corrupt lines", file=str(self.path), lines=dropped)
        return entries, offset + complete, dropped

    def append(self, payloads: Iterable[Mapping], torn: bool = False) -> None:
        """Durably append one line per payload, in one ``O_APPEND`` write.

        First cuts off a torn tail — a record written onto the fragment would
        share its line and fail the checksum — and writes the header into an
        empty file.  ``torn`` (fault injection) writes the first half of the
        data and no newline: what a kill mid-append leaves behind.
        """
        with open(self.path, "ab+") as fh:
            size = fh.tell()
            fh.seek(max(size - 1, 0))
            if fh.read(1) not in (b"", b"\n"):
                fh.seek(0)
                size = fh.read().rfind(b"\n") + 1
                fh.truncate(size)
                log.warning("torn trailing write truncated", file=str(self.path))
            lines = [encode_line(p) for p in payloads]
            if size == 0:
                lines.insert(0, encode_line(self.header))
            data = "".join(line + "\n" for line in lines).encode()
            fh.write(data[: len(data) // 2] if torn else data)
            fh.flush()
            if self._fsync:
                os.fsync(fh.fileno())


def read_entries(file: str | Path) -> tuple[list[dict], int]:
    """All checksum-valid entries of a log of any schema (its header is the
    first) + the dropped-line count; the file must exist."""
    if not Path(file).exists():
        raise JournalError(f"cannot read journal {file}: no such file")
    entries, _end, dropped = DurableLog(file, {}).read()
    return entries, dropped


def _fingerprint_of(config: "SynthesisConfig", cost_model: "CostModel | str") -> str:
    from repro.cost import make_cost_model
    from repro.synth.cache import synthesis_fingerprint

    model = make_cost_model(cost_model) if isinstance(cost_model, str) else cost_model
    return synthesis_fingerprint(config, model)


class RunJournal:
    """Write-ahead journal of one module-synthesis run.

    Construct via :meth:`create` (new run) or :meth:`resume` (continue an
    interrupted one); :meth:`read` opens a journal read-only for inspection
    without locking or a fingerprint check.
    """

    def __init__(
        self,
        run_dir: Path,
        run_id: str,
        fingerprint: str,
        config: "SynthesisConfig | None" = None,
    ) -> None:
        self.run_dir = Path(run_dir)
        self.run_id = run_id
        self.fingerprint = fingerprint
        self.status = "running"
        self.dropped_lines = 0
        #: Metrics rollup from the final status line, when one was recorded.
        self.final_metrics: dict | None = None
        self._records: dict[str, dict] = {}
        self._config = config
        self._lock: FileLock | None = None
        self._log = DurableLog(
            self.run_dir / "journal.jsonl",
            {
                "type": "header",
                "version": JOURNAL_VERSION,
                "run_id": run_id,
                "fingerprint": fingerprint,
                "created_at": time.time(),
            },
        )

    # -- construction ----------------------------------------------------------

    @classmethod
    def create(
        cls,
        config: "SynthesisConfig",
        cost_model: "CostModel | str" = "flops",
        run_id: str | None = None,
        root: str | Path | None = None,
    ) -> "RunJournal":
        """Start journaling a new run (fails if ``run_id`` already exists)."""
        run_id = run_id or new_run_id()
        run_dir = Path(root) if root else default_runs_dir()
        run_dir = run_dir / run_id
        journal = cls(run_dir, run_id, _fingerprint_of(config, cost_model), config)
        if journal.file.exists():
            raise JournalError(
                f"run {run_id!r} already exists at {journal.file}; "
                "resume it instead of re-creating it"
            )
        journal._acquire()
        journal._log.append([{"type": "status", "status": "running"}])
        return journal

    @classmethod
    def resume(
        cls,
        run_id: str,
        config: "SynthesisConfig",
        cost_model: "CostModel | str" = "flops",
        root: str | Path | None = None,
    ) -> "RunJournal":
        """Reopen an existing run for writing; restored kernels are skipped.

        Raises :class:`~repro.errors.JournalError` when the run does not
        exist, its header is unreadable, its fingerprint does not match the
        resuming ``(config, cost model)``, or another process holds its lock.
        """
        journal = cls.read(run_id, root=root)
        journal._config = config
        expected = _fingerprint_of(config, cost_model)
        if journal.fingerprint != expected:
            raise JournalError(
                f"run {run_id!r} was recorded under synthesis fingerprint "
                f"{journal.fingerprint} but the resuming configuration has "
                f"{expected}; results would not be comparable"
            )
        journal._acquire()
        journal.status = "running"
        journal._log.append([{"type": "status", "status": "running"}])
        return journal

    @classmethod
    def read(cls, run_id: str, root: str | Path | None = None) -> "RunJournal":
        """Open a journal read-only (no lock, no fingerprint check)."""
        run_dir = (Path(root) if root else default_runs_dir()) / run_id
        file = run_dir / "journal.jsonl"
        if not file.exists():
            raise JournalError(f"no journal for run {run_id!r} at {file}")
        any_run = DurableLog(file, {"type": "header", "version": JOURNAL_VERSION})
        entries, _end, dropped = any_run.read()
        if not entries or not any_run.bound(entries[0]):
            raise JournalError(
                f"run {run_id!r} has no readable version-{JOURNAL_VERSION} header"
            )
        journal = cls(run_dir, run_id, entries[0].get("fingerprint", ""))
        journal.dropped_lines = dropped
        for entry in entries[1:]:
            if entry.get("type") == "kernel" and "key" in entry:
                journal._records[entry["key"]] = entry.get("outcome") or {}
            elif entry.get("type") == "status":
                journal.status = entry.get("status", journal.status)
                if "metrics" in entry:
                    journal.final_metrics = entry["metrics"]
        return journal

    # -- the write path --------------------------------------------------------

    @property
    def file(self) -> Path:
        return self._log.path

    def _acquire(self) -> None:
        self.run_dir.mkdir(parents=True, exist_ok=True)
        lock = FileLock(self.run_dir / "run.lock")
        if not lock.acquire(blocking=False):
            raise JournalError(
                f"run {self.run_id!r} is already being written by another process"
            )
        self._lock = lock

    def record_outcome(self, spec: "KernelSpec", outcome: "KernelOutcome") -> None:
        """Durably journal one completed kernel (write-ahead of any use)."""
        key = kernel_key(spec)
        payload = {
            "type": "kernel",
            "key": key,
            "name": spec.name,
            "outcome": asdict(outcome),
        }
        # Fault site: 'die' here models a crash after synthesis but before
        # the outcome is durable — exactly the window resume must cover.
        torn = inject("journal", key=spec.name, config=self._config) == "corrupt"
        self._log.append([payload], torn=torn)
        if not torn:
            self._records[key] = payload["outcome"]

    def mark(self, status: str, metrics: Mapping | None = None) -> None:
        """Record a run-state transition (``completed`` / ``interrupted``).

        ``metrics`` — a module-wide metrics rollup (see
        :meth:`repro.pipeline.ModuleResult.metrics_rollup`) — rides along on
        the status line so a completed journal carries the run's final
        telemetry; :attr:`final_metrics` exposes it on read-back.
        """
        if status not in RUN_STATUSES:
            raise JournalError(f"unknown run status {status!r} (one of {RUN_STATUSES})")
        self.status = status
        payload: dict = {"type": "status", "status": status}
        if metrics is not None:
            payload["metrics"] = dict(metrics)
            self.final_metrics = dict(metrics)
        self._log.append([payload])

    def close(self) -> None:
        if self._lock is not None:
            self._lock.release()
            self._lock = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the read path ---------------------------------------------------------

    def __contains__(self, spec: "KernelSpec") -> bool:
        return kernel_key(spec) in self._records

    def __len__(self) -> int:
        return len(self._records)

    @property
    def kernel_names(self) -> list[str]:
        return [r.get("name", "?") for r in self._records.values()]

    def restore(self, spec: "KernelSpec") -> "KernelOutcome | None":
        """The journaled :class:`KernelOutcome` for ``spec``, or None.

        A record whose payload no longer matches the ``KernelOutcome``
        schema (e.g. written by a newer format) restores as None — the
        kernel is simply re-synthesized.
        """
        from repro.pipeline import KernelOutcome

        payload = self._records.get(kernel_key(spec))
        if payload is None:
            return None
        try:
            return KernelOutcome(**payload)
        except TypeError:
            log.warning(
                "journal record does not match outcome schema; re-synthesizing",
                file=str(self.file),
                kernel=spec.name,
            )
            return None


def list_runs(root: str | Path | None = None) -> list[str]:
    """Run ids under ``root`` (newest last), for ``--resume`` discovery."""
    runs_dir = Path(root) if root else default_runs_dir()
    if not runs_dir.exists():
        return []
    return sorted(
        p.parent.name for p in runs_dir.glob("*/journal.jsonl") if p.is_file()
    )


def open_run(
    config: "SynthesisConfig",
    cost_model: "CostModel | str" = "flops",
    run_id: str | None = None,
    resume: str | None = None,
    root: str | Path | None = None,
) -> RunJournal:
    """Convenience front-end: resume ``resume`` if given, else create a run."""
    if resume:
        return RunJournal.resume(resume, config, cost_model, root=root)
    return RunJournal.create(config, cost_model, run_id=run_id, root=root)
