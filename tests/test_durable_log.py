"""The one durable-log primitive, under real concurrent processes.

:class:`repro.journal.DurableLog` carries the run journal, the daemon's
request log and the three persistent-cache sections.  The contract under
test: whatever processes append, die or read while others append, a fresh
reader folds *exactly the completed appends*; a reader that is ahead of a
writer never consumes half a line; and the line format the journal and the
request log had before they became schemas over the log still loads.

The pruned/solved supersede rule for every interleaving of two writers is
asserted in ``tests/test_search_fastpath.py`` (``…supersedes_a_pruned_marker…``),
through ``save`` + ``refresh`` on one section file.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.errors import JournalError, ServeError
from repro.journal import DurableLog, RunJournal, encode_line
from repro.pipeline import KernelSpec
from repro.serve.daemon import RequestLog, ServeRequest
from repro.synth.cache import PersistentCache
from tests.cachefile import read_section, section_log
from tests.test_journal import _env

DATA = Path(__file__).parent / "data"

# Saves one disjoint and one overlapping key per round; a line on stdout
# names a round only once its save has returned.
WRITER = textwrap.dedent(
    """
    import sys

    from repro.synth.cache import PersistentCache

    path, name, rounds = sys.argv[1], sys.argv[2], int(sys.argv[3])
    cache = PersistentCache(path)
    print("ready", flush=True)
    for i in range(rounds):
        cache.cost_put(f"{name}-{i}", float(i))
        cache.cost_put(f"shared-{i}", float(i))
        cache.save()
        print(i, flush=True)
    """
)

# Saves two rounds, then dies inside its third append: half a record is on
# disk, the directory lock is held, and only SIGKILL ends the sleep.
VICTIM = textwrap.dedent(
    """
    import sys
    import time

    from repro.resilience import FileLock
    from repro.synth.cache import PersistentCache

    path, name = sys.argv[1], sys.argv[2]
    cache = PersistentCache(path)
    for i in range(2):
        cache.cost_put(f"{name}-{i}", float(i))
        cache.save()
    with FileLock(cache.path / ".cache.lock"):
        cache._log("costs").append([{"k": f"{name}-torn", "v": 9.0}], torn=True)
        print("torn", flush=True)
        time.sleep(600)
    """
)

# Appends every record in two writes, so a reader can see half a line.
SLOW_WRITER = textwrap.dedent(
    """
    import sys
    import time

    from repro.journal import encode_line

    path, count = sys.argv[1], int(sys.argv[2])
    with open(path, "ab") as fh:
        for i in range(count):
            line = (encode_line({"k": f"key-{i}", "v": float(i)}) + "\\n").encode()
            fh.write(line[: len(line) // 2])
            fh.flush()
            time.sleep(0.002)
            fh.write(line[len(line) // 2 :])
            fh.flush()
    """
)


def _spawn(tmp_path: Path, script: str, *args) -> subprocess.Popen:
    file = tmp_path / f"script-{abs(hash(script))}.py"
    file.write_text(script)
    return subprocess.Popen(
        [sys.executable, str(file), *map(str, args)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_env(),
    )


def _torn_mid_append(tmp_path: Path, cache_dir: Path, name: str) -> subprocess.Popen:
    victim = _spawn(tmp_path, VICTIM, cache_dir, name)
    assert victim.stdout.readline().strip() == "torn", victim.stderr.read()
    return victim


def _sigkill(victim: subprocess.Popen) -> None:
    victim.kill()
    victim.wait(timeout=30)


# -- (a) concurrent appenders and a writer killed mid-append -----------------------


def test_concurrent_appends_fold_to_the_union_of_completed_appends(tmp_path):
    cache_dir, rounds = tmp_path / "cache", 12
    file = cache_dir / "costs.json"
    # The victim is inside its append, half a record written, when the three
    # arrive: they queue behind its lock until it is killed, then the first
    # of them cuts the fragment off and all three append at once.
    victim = _torn_mid_append(tmp_path, cache_dir, "v")
    writers = [_spawn(tmp_path, WRITER, cache_dir, name, rounds) for name in "abc"]
    for proc in writers:
        assert proc.stdout.readline().strip() == "ready", proc.stderr.read()
    time.sleep(0.3)
    assert not file.read_bytes().endswith(b"\n")  # nobody got past the lock
    _sigkill(victim)
    for proc in writers:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert out.split() == [str(i) for i in range(rounds)]

    want = {f"{name}-{i}": float(i) for name in "abc" for i in range(rounds)}
    want.update({f"shared-{i}": float(i) for i in range(rounds)})
    want.update({"v-0": 0.0, "v-1": 1.0})
    assert PersistentCache(cache_dir)._load("costs") == want
    records, _end, dropped = section_log(cache_dir, "costs").read()
    assert dropped == 0  # the fragment was cut off, not written around
    # A key costs one line per process that found it on its own: the three
    # never refreshed, so each wrote every shared key.
    assert len(records) - 1 == len(want) + 2 * rounds

    # Killed with nobody behind it: the tail stays torn until the next save.
    _sigkill(_torn_mid_append(tmp_path, cache_dir, "w"))
    assert not file.read_bytes().endswith(b"\n")
    want.update({"w-0": 0.0, "w-1": 1.0})
    survivor = PersistentCache(cache_dir)
    assert survivor._load("costs") == want
    survivor.cost_put("after", 1.0)
    survivor.save()
    assert file.read_bytes().endswith(b"\n")
    assert section_log(cache_dir, "costs").read()[2] == 0
    assert PersistentCache(cache_dir)._load("costs") == {**want, "after": 1.0}


# -- (b) a reader ahead of a slow writer -------------------------------------------


def test_polling_reader_never_consumes_a_partial_line(tmp_path, monkeypatch):
    count = 150
    seed = PersistentCache(tmp_path)
    seed.cost_put("seed", 0.0)
    seed.save()  # header + one record: the writer below only adds records
    file = tmp_path / "costs.json"

    consumed: list[str] = []
    real_read = DurableLog.read

    def spying_read(self, offset=0):
        entries, end, dropped = real_read(self, offset)
        consumed.extend(e["k"] for e in entries if "k" in e)
        return entries, end, dropped

    monkeypatch.setattr(DurableLog, "read", spying_read)
    reader = PersistentCache(tmp_path)
    assert reader.cost_get("seed") == 0.0
    writer = _spawn(tmp_path, SLOW_WRITER, file, count)
    partial_seen = 0
    while writer.poll() is None or reader._offsets["costs"] < file.stat().st_size:
        reader.refresh()
        offset = reader._offsets["costs"]
        data = file.read_bytes()
        assert data[offset - 1 : offset] == b"\n"  # always on a line boundary
        partial_seen += not data.endswith(b"\n")
    assert writer.returncode == 0, writer.stderr.read()
    assert partial_seen > 0  # the race this test is about did happen
    keys = ["seed"] + [f"key-{i}" for i in range(count)]
    assert consumed == keys  # every record folded exactly once, in file order
    assert reader._load("costs") == {"seed": 0.0, **{f"key-{i}": float(i) for i in range(count)}}
    # Nothing changed since: a refresh is one stat and no read.
    reader.refresh()
    assert consumed == keys


# -- (d) tombstones ----------------------------------------------------------------


def test_tombstone_lets_the_replacement_win_everywhere(tmp_path):
    first = PersistentCache(tmp_path)
    first.library_put("key", {"bad": True})
    first.save()
    peer = PersistentCache(tmp_path)
    assert peer.library_get("key") == {"bad": True}

    repairing = PersistentCache(tmp_path)
    assert repairing.library_get("key") == {"bad": True}
    repairing.library_reject("key")
    assert repairing.library_get("key") is None
    repairing.library_put("key", {"good": True})
    # Before the save the file still says the old thing to everyone else.
    assert PersistentCache(tmp_path).library_get("key") == {"bad": True}
    repairing.save()

    assert [sorted(r) for r in read_section(tmp_path, "library")[1]] == [
        ["k", "v"], ["drop", "k"], ["k", "v"]
    ]
    assert PersistentCache(tmp_path).library_get("key") == {"good": True}  # reload
    peer.refresh()
    assert peer.library_get("key") == {"good": True}  # a live peer drops its copy
    repairing.refresh()  # folding its own tombstone again ends in the same place
    assert repairing.library_get("key") == {"good": True}
    # Rejected and never re-put: gone for everyone.
    repairing.library_reject("key")
    repairing.save()
    peer.refresh()
    assert peer.library_get("key") is None
    assert PersistentCache(tmp_path).library_get("key") is None


# -- (e) files written before the journal and the request log were schemas ----------

K_SOLVER = KernelSpec(
    "k_solver",
    "def k_solver(A, B):\n    return np.diag(np.dot(A, B))\n",
    {"A": (2, 2), "B": (2, 2)},
)
K_EASY = KernelSpec("k_easy1", "def k_easy1(A):\n    return np.log(np.exp(A))\n", {"A": (2, 2)})
PR18_FINGERPRINT = "ab19fa58893ef5ed"


def _pr18_run(tmp_path) -> Path:
    (tmp_path / "pr18").mkdir()
    return Path(shutil.copy(DATA / "journal_pr18.jsonl", tmp_path / "pr18" / "journal.jsonl"))


def test_parent_commit_journal_still_loads(tmp_path):
    _pr18_run(tmp_path)
    journal = RunJournal.read("pr18", root=tmp_path)
    assert (journal.status, journal.fingerprint) == ("completed", PR18_FINGERPRINT)
    assert journal.dropped_lines == 0 and len(journal) == 2
    assert journal.final_metrics == {"counters": {"solver.calls": 3}}
    restored = journal.restore(K_SOLVER)
    assert restored.improved and restored.via == "synthesis" and restored.optimized_cost == 1.0
    assert journal.restore(K_EASY).improved is False


def test_parent_commit_request_log_still_loads_and_appends(tmp_path):
    path = Path(shutil.copy(DATA / "requests_pr18.jsonl", tmp_path / "requests.jsonl"))
    log = RequestLog(path, PR18_FINGERPRINT)
    requests, results = log.load()
    assert [(r["id"], r["priority"], r["timeout_s"]) for r in requests] == [
        ("r1", 2, 30.0), ("r2", 0, None)
    ]
    assert list(results) == ["r1"]
    outcome, served_from = results["r1"]
    assert outcome["via"] == "synthesis" and served_from == "synthesis"
    with pytest.raises(ServeError, match="different synthesis configuration"):
        RequestLog(path, "another-fingerprint").load()
    # Appending to the old file adds lines, not a second header.
    before = path.read_text()
    log.record_request(ServeRequest("r3", K_EASY))
    assert path.read_text().startswith(before)
    assert [r["id"] for r in log.load()[0]] == ["r1", "r2", "r3"]
    assert path.read_text().count('"serve-log"') == 1


# -- the header is the first valid line --------------------------------------------


def test_header_is_the_first_valid_line_for_every_schema(tmp_path):
    journal_file = _pr18_run(tmp_path)
    lines = journal_file.read_text().splitlines(keepends=True)

    # Garbage ahead of the header (a torn first write that was appended past):
    # the header is still the first line that decodes.
    journal_file.write_text("{not a line\n" + "".join(lines))
    journal = RunJournal.read("pr18", root=tmp_path)
    assert (journal.status, journal.dropped_lines, len(journal)) == ("completed", 1, 2)

    # The header itself corrupt: the first valid line is a status record, and
    # a header further down does not count.  Each schema says what that means.
    journal_file.write_text(lines[0][:40] + "\n" + "".join(lines[1:] + lines[:1]))
    with pytest.raises(JournalError, match="no readable version-1 header"):
        RunJournal.read("pr18", root=tmp_path)

    requests = tmp_path / "requests.jsonl"
    rlines = (DATA / "requests_pr18.jsonl").read_text().splitlines(keepends=True)
    requests.write_text(rlines[0][:40] + "\n" + "".join(rlines[1:] + rlines[:1]))
    with pytest.raises(ServeError, match="refusing to serve"):
        RequestLog(requests, PR18_FINGERPRINT).load()

    cache = PersistentCache(tmp_path / "cache")
    cache.cost_put("old", 1.0)
    cache.save()
    section = tmp_path / "cache" / "costs.json"
    clines = section.read_text().splitlines(keepends=True)
    section.write_text(clines[0][:20] + "\n" + "".join(clines[1:] + clines[:1]))
    reopened = PersistentCache(tmp_path / "cache")
    assert reopened.cost_get("old") is None  # an empty section, not an error
    reopened.cost_put("new", 2.0)
    reopened.save()  # and the first save replaces the file
    assert read_section(tmp_path / "cache", "costs")[1] == [{"k": "new", "v": 2.0}]


def test_read_reports_the_offset_of_the_last_complete_line(tmp_path):
    log = DurableLog(tmp_path / "log.jsonl", {"type": "t", "version": 1})
    assert log.read() == ([], 0, 0)  # a missing file is an empty log
    log.append([{"n": 1}, {"n": 2}])
    entries, end, dropped = log.read()
    assert entries == [{"type": "t", "version": 1}, {"n": 1}, {"n": 2}] and dropped == 0
    assert log.bound(entries[0]) and not log.bound(entries[1])
    assert end == log.path.stat().st_size
    with open(log.path, "ab") as fh:
        fh.write(encode_line({"n": 3}).encode()[:10])
    assert log.read(end) == ([], end, 1)  # seen, counted, not consumed
    log.append([{"n": 3}], torn=True)  # repairs the fragment, leaves its own
    assert log.read(end) == ([], end, 1)
    log.append([{"n": 4}])
    assert log.read(end)[0] == [{"n": 4}]
    assert [e.get("n") for e in log.read()[0]] == [None, 1, 2, 4]
