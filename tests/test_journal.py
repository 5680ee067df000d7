"""Crash-safety suite: run journal, kill/resume, and concurrent writers.

The contract under test: a module-synthesis run journaled through
:class:`repro.journal.RunJournal` never loses a *completed* kernel — not to
``kill -9``, not to Ctrl-C, not to a torn write — and resuming an
interrupted run reproduces the uninterrupted run's :class:`ModuleResult`
exactly, with zero synthesis or solver calls for journaled kernels.  The
shared persistent caches must end with the union of entries when two runs
write them concurrently.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.errors import JournalError
from repro.journal import RunJournal, kernel_key, list_runs, open_run
from repro.pipeline import KernelOutcome, KernelSpec, ModuleOptimizer
from repro.resilience import FaultPlan, FileLock, set_fault_plan
from repro.synth.cache import PersistentCache
from repro.synth.config import SynthesisConfig

FAST = SynthesisConfig(timeout_seconds=60)

# Decomposes through sketches, so its search actually queries the solver —
# the kernel that makes "resume = zero solver calls" provable.
SOLVER_KERNEL = KernelSpec(
    "k_solver",
    "def k_solver(A, B):\n    return np.diag(np.dot(A, B))\n",
    {"A": (2, 2), "B": (2, 2)},
)
EASY_KERNELS = [
    KernelSpec("k_easy1", "def k_easy1(A):\n    return np.log(np.exp(A))\n", {"A": (2, 2)}),
    KernelSpec("k_easy2", "def k_easy2(C):\n    return C + 0\n", {"C": (2, 2)}),
]
MODULE = [SOLVER_KERNEL, *EASY_KERNELS]


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    yield
    set_fault_plan(None)


def _outcome(spec: KernelSpec, **overrides) -> KernelOutcome:
    base = dict(
        name=spec.name,
        improved=False,
        via="unchanged",
        original_source=spec.source,
        optimized_source=spec.source,
        original_cost=4.0,
        optimized_cost=4.0,
    )
    base.update(overrides)
    return KernelOutcome(**base)


# ---------------------------------------------------------------------------
# RunJournal: the write-ahead log itself
# ---------------------------------------------------------------------------


class TestRunJournal:
    def test_record_restore_round_trip(self, tmp_path):
        with RunJournal.create(FAST, run_id="r1", root=tmp_path) as journal:
            recorded = _outcome(
                SOLVER_KERNEL, improved=True, via="synthesis", optimized_cost=1.0
            )
            journal.record_outcome(SOLVER_KERNEL, recorded)
            journal.mark("completed")
        reopened = RunJournal.read("r1", root=tmp_path)
        assert reopened.status == "completed"
        assert SOLVER_KERNEL in reopened
        assert len(reopened) == 1
        restored = reopened.restore(SOLVER_KERNEL)
        assert asdict(restored) == asdict(recorded)
        assert reopened.restore(EASY_KERNELS[0]) is None

    def test_every_append_is_durable_line_by_line(self, tmp_path):
        journal = RunJournal.create(FAST, run_id="r1", root=tmp_path)
        journal.record_outcome(SOLVER_KERNEL, _outcome(SOLVER_KERNEL))
        # Without any close/flush call, the record is already on disk.
        lines = journal.file.read_text().splitlines()
        kinds = [json.loads(line)["type"] for line in lines]
        assert kinds == ["header", "status", "kernel"]
        journal.close()

    def test_create_refuses_existing_run(self, tmp_path):
        RunJournal.create(FAST, run_id="r1", root=tmp_path).close()
        with pytest.raises(JournalError, match="already exists"):
            RunJournal.create(FAST, run_id="r1", root=tmp_path)

    def test_resume_unknown_run(self, tmp_path):
        with pytest.raises(JournalError, match="no journal"):
            RunJournal.resume("ghost", FAST, root=tmp_path)

    def test_resume_refuses_config_mismatch(self, tmp_path):
        RunJournal.create(FAST, run_id="r1", root=tmp_path).close()
        other = FAST.replace(max_depth=1)
        with pytest.raises(JournalError, match="fingerprint"):
            RunJournal.resume("r1", other, root=tmp_path)
        # Resource-only knobs are non-semantic: they do not block a resume.
        RunJournal.resume("r1", FAST.replace(timeout_seconds=5), root=tmp_path).close()

    def test_single_writer_per_run(self, tmp_path):
        journal = RunJournal.create(FAST, run_id="r1", root=tmp_path)
        with pytest.raises(JournalError, match="another process"):
            RunJournal.resume("r1", FAST, root=tmp_path)
        journal.close()
        RunJournal.resume("r1", FAST, root=tmp_path).close()

    def test_torn_trailing_write_truncated_on_resume(self, tmp_path):
        with RunJournal.create(FAST, run_id="r1", root=tmp_path) as journal:
            journal.record_outcome(SOLVER_KERNEL, _outcome(SOLVER_KERNEL))
        file = tmp_path / "r1" / "journal.jsonl"
        with open(file, "a") as fh:
            fh.write('{"type": "kernel", "key": "dead')  # kill -9 mid-append
        resumed = RunJournal.resume("r1", FAST, root=tmp_path)
        assert resumed.restore(SOLVER_KERNEL) is not None
        resumed.record_outcome(EASY_KERNELS[0], _outcome(EASY_KERNELS[0]))
        resumed.close()
        # The torn bytes were truncated: every surviving line parses clean.
        reopened = RunJournal.read("r1", root=tmp_path)
        assert reopened.dropped_lines == 0
        assert len(reopened) == 2

    def test_corrupt_interior_line_skipped_not_fatal(self, tmp_path):
        with RunJournal.create(FAST, run_id="r1", root=tmp_path) as journal:
            journal.record_outcome(SOLVER_KERNEL, _outcome(SOLVER_KERNEL))
            journal.record_outcome(EASY_KERNELS[0], _outcome(EASY_KERNELS[0]))
        file = tmp_path / "r1" / "journal.jsonl"
        lines = file.read_text().splitlines()
        lines[2] = lines[2][:-20] + "X" * 20  # bit-rot the first kernel line
        file.write_text("\n".join(lines) + "\n")
        reopened = RunJournal.read("r1", root=tmp_path)
        assert reopened.dropped_lines == 1
        assert reopened.restore(SOLVER_KERNEL) is None
        assert reopened.restore(EASY_KERNELS[0]) is not None

    def test_journal_fault_site_writes_torn_line(self, tmp_path):
        config = FAST.replace(fault_plan=FaultPlan.parse("journal[k_solver]:corrupt"))
        with RunJournal.create(config, run_id="r1", root=tmp_path) as journal:
            journal.record_outcome(SOLVER_KERNEL, _outcome(SOLVER_KERNEL))
        raw = (tmp_path / "r1" / "journal.jsonl").read_bytes()
        assert not raw.endswith(b"\n")  # the record went down as a torn write
        resumed = RunJournal.resume("r1", FAST, root=tmp_path)
        assert resumed.restore(SOLVER_KERNEL) is None  # lost, will re-run
        resumed.close()

    def test_mark_rejects_unknown_status(self, tmp_path):
        with RunJournal.create(FAST, run_id="r1", root=tmp_path) as journal:
            with pytest.raises(JournalError, match="unknown run status"):
                journal.mark("exploded")

    def test_kernel_key_identity(self):
        assert kernel_key(SOLVER_KERNEL) == kernel_key(SOLVER_KERNEL)
        renamed = KernelSpec("other", SOLVER_KERNEL.source, SOLVER_KERNEL.inputs)
        resized = KernelSpec(
            SOLVER_KERNEL.name, SOLVER_KERNEL.source, {"A": (3, 3), "B": (3, 3)}
        )
        keys = {kernel_key(SOLVER_KERNEL), kernel_key(renamed), kernel_key(resized)}
        assert len(keys) == 3

    def test_list_runs_and_open_run(self, tmp_path):
        open_run(FAST, run_id="b-run", root=tmp_path).close()
        open_run(FAST, run_id="a-run", root=tmp_path).close()
        assert list_runs(tmp_path) == ["a-run", "b-run"]
        resumed = open_run(FAST, resume="a-run", root=tmp_path)
        assert resumed.run_id == "a-run"
        resumed.close()


# ---------------------------------------------------------------------------
# Resume through the pipeline: journaled kernels never re-synthesize
# ---------------------------------------------------------------------------


class TestResume:
    def test_resume_skips_synthesis_entirely(self, tmp_path, monkeypatch):
        baseline = ModuleOptimizer(config=FAST).optimize_module(
            MODULE, journal=RunJournal.create(FAST, run_id="full", root=tmp_path)
        )
        assert not baseline.interrupted
        assert RunJournal.read("full", root=tmp_path).status == "completed"

        def boom(*args, **kwargs):  # any synthesis attempt is a test failure
            raise AssertionError("resume must not re-synthesize journaled kernels")

        monkeypatch.setattr("repro.pipeline.superoptimize_source", boom)
        resumed = ModuleOptimizer(config=FAST).optimize_module(
            MODULE, journal=RunJournal.resume("full", FAST, root=tmp_path)
        )
        assert resumed.summary() == baseline.summary()
        assert [asdict(o) for o in resumed.outcomes] == [
            asdict(o) for o in baseline.outcomes
        ]
        assert sorted(str(r) for r in resumed.rules) == sorted(
            str(r) for r in baseline.rules
        )

    def test_partial_journal_finishes_remaining_kernels(self, tmp_path):
        baseline = ModuleOptimizer(config=FAST).optimize_module(MODULE)
        # Simulate a run that died after the (expensive) solver kernel.
        with RunJournal.create(FAST, run_id="partial", root=tmp_path) as journal:
            ModuleOptimizer(config=FAST).optimize_module(
                [SOLVER_KERNEL], journal=journal
            )
        # Injected proof of no re-synthesis: any solver call for the
        # journaled kernel would raise and surface as status='error'.
        set_fault_plan("solver[k_solver]:raise")
        resumed = ModuleOptimizer(config=FAST).optimize_module(
            MODULE, journal=RunJournal.resume("partial", FAST, root=tmp_path)
        )
        assert all(o.status == "ok" for o in resumed.outcomes)
        assert resumed.summary() == baseline.summary()

    def test_restored_outcome_failing_reverification_is_discarded(self, tmp_path):
        wrong = _outcome(
            SOLVER_KERNEL,
            improved=True,
            via="synthesis",
            optimized_source="def k_solver(A, B):\n    return np.dot(A, B)\n",
            optimized_cost=1.0,
        )
        with RunJournal.create(FAST, run_id="bad", root=tmp_path) as journal:
            journal.record_outcome(SOLVER_KERNEL, wrong)
        resumed = RunJournal.resume("bad", FAST, root=tmp_path)
        optimizer = ModuleOptimizer(config=FAST)
        assert optimizer.readmit(SOLVER_KERNEL, resumed.restore(SOLVER_KERNEL)) is None
        resumed.close()


# ---------------------------------------------------------------------------
# Concurrent writers: shared caches end with the union of entries
# ---------------------------------------------------------------------------


class TestConcurrentCaches:
    def test_two_writers_keep_both_entries(self, tmp_path):
        # The lost-update regression: A and B load the same (empty) cache,
        # then save one entry each.  Last-writer-wins would drop A's entry.
        a = PersistentCache(tmp_path)
        b = PersistentCache(tmp_path)
        a.cost_put("key-a", 1.0)
        b.cost_put("key-b", 2.0)
        a.save()
        b.save()
        fresh = PersistentCache(tmp_path)
        assert fresh.cost_get("key-a") == 1.0
        assert fresh.cost_get("key-b") == 2.0

    def test_many_interleaved_writers_union(self, tmp_path):
        caches = [PersistentCache(tmp_path) for _ in range(4)]
        for i, cache in enumerate(caches):
            cache.cost_put(f"key-{i}", float(i))
        for cache in reversed(caches):
            cache.save()
        fresh = PersistentCache(tmp_path)
        for i in range(4):
            assert fresh.cost_get(f"key-{i}") == float(i)

    def test_synthesis_store_merges_on_save(self, tmp_path):
        from repro.bench.store import SynthesisRecord, SynthesisStore

        path = tmp_path / "synthesis.json"

        def record(name: str) -> SynthesisRecord:
            return SynthesisRecord(
                benchmark=name,
                cost_model="flops",
                config="default",
                improved=False,
                optimized_source="",
                synthesis_seconds=0.0,
                original_cost=1.0,
                optimized_cost=1.0,
            )

        a = SynthesisStore(path)
        b = SynthesisStore(path)
        a.put(record("bench-a"))
        b.put(record("bench-b"))
        a.save()
        b.save()
        fresh = SynthesisStore(path)
        assert fresh.get("bench-a", "flops") is not None
        assert fresh.get("bench-b", "flops") is not None

    def test_corrupt_store_file_loads_empty(self, tmp_path):
        from repro.bench.store import SynthesisStore

        path = tmp_path / "synthesis.json"
        path.write_text('{"bench|flops|default": {"benchmark": "ben')  # torn
        store = SynthesisStore(path)
        assert store.get("bench", "flops") is None


# ---------------------------------------------------------------------------
# Kill -9 and Ctrl-C against a real process
# ---------------------------------------------------------------------------

DRIVER = textwrap.dedent(
    """
    import sys

    from repro.journal import open_run
    from repro.pipeline import KernelSpec, ModuleOptimizer
    from repro.synth.config import SynthesisConfig

    FAST = SynthesisConfig(timeout_seconds=60)
    MODULE = [
        KernelSpec(
            "k_solver",
            "def k_solver(A, B):\\n    return np.diag(np.dot(A, B))\\n",
            {"A": (2, 2), "B": (2, 2)},
        ),
        KernelSpec(
            "k_easy1", "def k_easy1(A):\\n    return np.log(np.exp(A))\\n", {"A": (2, 2)}
        ),
        KernelSpec("k_easy2", "def k_easy2(C):\\n    return C + 0\\n", {"C": (2, 2)}),
    ]

    runs_dir, run_id, mode = sys.argv[1], sys.argv[2], sys.argv[3]
    journal = open_run(
        FAST,
        run_id=None if mode == "resume" else run_id,
        resume=run_id if mode == "resume" else None,
        root=runs_dir,
    )
    with journal:
        result = ModuleOptimizer(config=FAST).optimize_module(MODULE, journal=journal)
    print(result.summary())
    sys.exit(0)
    """
)


def _env(**extra) -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("STENSO_FAULTS", None)
    env.update(extra)
    return env


def _run_driver(driver: Path, runs_dir: Path, run_id: str, mode: str, **env) -> str:
    proc = subprocess.run(
        [sys.executable, str(driver), str(runs_dir), run_id, mode],
        capture_output=True,
        text=True,
        timeout=300,
        env=_env(**env),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def _wait_for_journal(file: Path, predicate, proc, timeout_s: float = 240.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if file.exists() and predicate(file.read_text()):
            return
        if proc.poll() is not None:
            return  # finished before we could interrupt it — still a valid run
        time.sleep(0.05)
    raise AssertionError(f"journal {file} never reached the awaited state")


@pytest.fixture(scope="module")
def driver_script(tmp_path_factory) -> Path:
    script = tmp_path_factory.mktemp("driver") / "driver.py"
    script.write_text(DRIVER)
    return script


@pytest.fixture(scope="module")
def baseline_summary(driver_script, tmp_path_factory) -> str:
    runs = tmp_path_factory.mktemp("baseline-runs")
    return _run_driver(driver_script, runs, "base", "new")


class TestKillAndResume:
    def test_sigkill_then_resume_reproduces_uninterrupted_run(
        self, driver_script, baseline_summary, tmp_path
    ):
        proc = subprocess.Popen(
            [sys.executable, str(driver_script), str(tmp_path), "victim", "new"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=_env(),
        )
        journal_file = tmp_path / "victim" / "journal.jsonl"
        # The instant the first (solver) kernel is durable, kill -9.
        _wait_for_journal(journal_file, lambda t: '"type": "kernel"' in t, proc)
        proc.kill()
        proc.wait(timeout=30)

        # Resume under an injected fault that makes any solver call for the
        # journaled kernel fatal: identical output proves zero solver calls.
        resumed = _run_driver(
            driver_script,
            tmp_path,
            "victim",
            "resume",
            STENSO_FAULTS="solver[k_solver]:raise",
        )
        assert resumed == baseline_summary
        assert "[interrupted]" not in resumed
        assert "error" not in resumed
        journal = RunJournal.read("victim", root=tmp_path)
        assert journal.status == "completed"
        assert len(journal) == 3

    def test_sigint_flushes_and_marks_interrupted(
        self, driver_script, baseline_summary, tmp_path
    ):
        # Stretch the first kernel with a 2s solver hang so SIGINT reliably
        # lands mid-run; the hang does not change the kernel's outcome.
        proc = subprocess.Popen(
            [sys.executable, str(driver_script), str(tmp_path), "sig", "new"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=_env(STENSO_FAULTS="solver[k_solver]:hang=2@1"),
        )
        journal_file = tmp_path / "sig" / "journal.jsonl"
        _wait_for_journal(journal_file, lambda t: '"status": "running"' in t, proc)
        time.sleep(0.5)
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0, out  # graceful exit, not a traceback

        journal = RunJournal.read("sig", root=tmp_path)
        if journal.status == "interrupted":  # the expected race outcome
            assert "[interrupted]" in out
            assert len(journal) < 3  # partial — but everything flushed is durable
        resumed = _run_driver(driver_script, tmp_path, "sig", "resume")
        assert resumed == baseline_summary
        assert RunJournal.read("sig", root=tmp_path).status == "completed"
