"""The resolution ladder of :class:`repro.pipeline.ModuleOptimizer`.

``readmit`` / ``resolve`` / ``settle`` are the one place that decides what is
tried before a search and what a finished attempt means; the sequential loop,
the wave scheduler and the daemon only schedule.  The unit tables pin each
step's contract on hand-built outcomes (no synthesis); the differential test
runs one module — duplicates of an improved, an unimproved and a failing
pattern — through all three drivers and compares what comes back.
"""

from __future__ import annotations

import pytest

from repro import pipeline
from repro.pipeline import KernelOutcome, KernelSpec, ModuleOptimizer, batch_key
from repro.resilience import FaultPlan
from repro.synth.config import SynthesisConfig
from tests.test_serve import serve

FAST = SynthesisConfig(timeout_seconds=60)

SHAPES = {"A": (2, 2), "B": (2, 2)}
EXP_LOG = KernelSpec("exp_log", "np.exp(np.log(A + B))", SHAPES)
EXP_LOG_DUP = KernelSpec("exp_log_dup", "np.exp(np.log(P + Q))", {"P": (2, 2), "Q": (2, 2)})
MATMUL = KernelSpec("matmul", "np.dot(A, B)", SHAPES)
MATMUL_DUP = KernelSpec("matmul_dup", "np.dot(P, Q)", {"P": (2, 2), "Q": (2, 2)})
BOOM = KernelSpec("boom", "np.diag(np.dot(A, B))", SHAPES)
BOOM_DUP = KernelSpec("boom_dup", "np.diag(np.dot(P, Q))", {"P": (2, 2), "Q": (2, 2)})
UNPARSABLE = KernelSpec("bad", "np.nope(A", SHAPES)


def _recorded(spec: KernelSpec, body: str | None, via: str, status: str = "ok") -> KernelOutcome:
    """An outcome as a journal or a request log would hand it back: improved
    to ``body`` when given, the identity otherwise."""
    original = ModuleOptimizer(config=FAST).unchanged_outcome(spec)
    if body is None:
        original.status = status
        return original
    args = ", ".join(spec.inputs)
    return KernelOutcome(
        name=spec.name, improved=True, via=via,
        original_source=original.original_source,
        optimized_source=f"def {spec.name}({args}):\n    return {body}\n",
        original_cost=original.original_cost, optimized_cost=1.0, status=status,
    )


# -- readmit ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "recorded, trusted, rules, verdicts",
    [
        # improved and still verifies: trusted, and a synthesized one re-mines its rule
        (_recorded(EXP_LOG, "A + B", "synthesis"), True, 1, 0),
        # ... a rule-cache hit never mined one
        (_recorded(EXP_LOG, "A + B", "rule-cache"), True, 0, 0),
        # improved and no longer verifies: do it again
        (_recorded(EXP_LOG, "A - B", "synthesis"), False, 0, 0),
        (_recorded(EXP_LOG, "np.nope(A", "synthesis"), False, 0, 0),
        # unimproved: taken as is; only a completed search is a verdict
        (_recorded(EXP_LOG, None, "unchanged"), True, 0, 1),
        (_recorded(EXP_LOG, None, "unchanged", status="degraded"), True, 0, 0),
        (_recorded(EXP_LOG, None, "unchanged", status="timeout"), True, 0, 0),
        (None, False, 0, 0),
    ],
)
def test_readmit(recorded, trusted, rules, verdicts):
    opt = ModuleOptimizer(config=FAST)
    assert opt.readmit(EXP_LOG, recorded) is (recorded if trusted else None)
    assert len(opt.rules) == rules
    assert len(opt.exhausted) == verdicts


def test_what_readmit_learned_resolves_the_next_kernel():
    opt = ModuleOptimizer(config=FAST)
    opt.readmit(EXP_LOG, _recorded(EXP_LOG, "A + B", "synthesis"))
    opt.readmit(MATMUL, _recorded(MATMUL, None, "unchanged"))
    renamed = opt.resolve(EXP_LOG_DUP)
    assert (renamed.via, renamed.improved, renamed.status) == ("rule-cache", True, "ok")
    assert "P + Q" in renamed.optimized_source
    same_pattern = opt.resolve(MATMUL_DUP)
    assert (same_pattern.via, same_pattern.improved, same_pattern.status) == (
        "unchanged", False, "ok",
    )
    assert opt.resolve(BOOM) is None  # nothing known: needs a search


# -- settle ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind, payload, status, error, lasting, run_scoped",
    [
        ("ok", (_recorded(MATMUL, None, "unchanged"), ()), "ok", None, True, False),
        ("ok", (_recorded(MATMUL, None, "unchanged", "degraded"), ()), "degraded", None, False, True),
        ("ok", (_recorded(MATMUL, "np.dot(A, B)", "synthesis"), ()), "ok", None, False, False),
        ("error", "Boom: no", "error", "Boom: no", False, True),
        ("timeout", "kernel exceeded its 1s deadline", "timeout", "kernel exceeded its 1s deadline", False, True),
        ("crashed", "worker crashed 2x", "error", "worker crashed 2x", False, True),
    ],
)
def test_settle(kind, payload, status, error, lasting, run_scoped):
    opt, failed = ModuleOptimizer(config=FAST), {}
    outcome = opt.settle(MATMUL, kind, payload, failed)
    assert (outcome.name, outcome.status, outcome.error) == ("matmul", status, error)
    if kind != "ok":  # the structured pass-through
        assert not outcome.improved
        assert outcome.optimized_source == outcome.original_source
    key = batch_key(MATMUL, FAST)
    assert opt.exhausted == ({key} if lasting else set())
    assert failed == ({key: (status, error)} if run_scoped else {})
    # The duplicate shares a failed representative's fate in this run only.
    dup = opt.resolve(MATMUL_DUP, failed)
    if lasting:
        assert (dup.status, dup.via) == ("ok", "unchanged")
    elif run_scoped:
        assert (dup.name, dup.status) == ("matmul_dup", status)
        assert dup.error == (error or "pattern representative failed")
        assert opt.resolve(MATMUL_DUP) is None  # no dict handed in: search it
    else:
        assert dup is None


def test_settle_without_a_run_keeps_no_failure_verdict():
    opt = ModuleOptimizer(config=FAST)
    opt.settle(MATMUL, "crashed", "worker crashed 2x")  # the daemon's call
    assert not opt.exhausted
    assert opt.resolve(MATMUL_DUP) is None


def test_settle_absorbs_the_workers_rules():
    worker, parent = ModuleOptimizer(config=FAST), ModuleOptimizer(config=FAST)
    recorded = _recorded(EXP_LOG, "A + B", "synthesis")
    worker.readmit(EXP_LOG, recorded)
    assert parent.settle(EXP_LOG, "ok", (recorded, worker.rules)) is recorded
    assert [str(r) for r in parent.rules] == [str(r) for r in worker.rules]
    assert parent.resolve(EXP_LOG_DUP).via == "rule-cache"


# -- resolve ---------------------------------------------------------------------


def test_resolve_never_raises_on_an_unparsable_kernel():
    cold = ModuleOptimizer(config=FAST)
    assert cold.resolve(UNPARSABLE) is None  # the search will report it
    warm = ModuleOptimizer(config=FAST)
    warm.readmit(EXP_LOG, _recorded(EXP_LOG, "A + B", "synthesis"))
    outcome = warm.resolve(UNPARSABLE)  # the rule cache has to parse it
    assert (outcome.status, outcome.improved) == ("error", False)
    assert outcome.optimized_source == UNPARSABLE.source
    guarded = cold.optimize_kernel_guarded(UNPARSABLE)
    assert guarded.status == "error" and guarded.error


def test_failure_verdicts_belong_to_one_module_run(monkeypatch):
    calls = []

    def boom(source, inputs, **kwargs):
        calls.append(kwargs["name"])
        raise RuntimeError("transient")

    opt = ModuleOptimizer(config=FAST)
    with monkeypatch.context() as patched:
        patched.setattr(pipeline, "superoptimize_source", boom)
        first = opt.optimize_module([MATMUL, MATMUL_DUP])
    # The sequential loop has failure verdicts too: one search, two errors.
    assert calls == ["matmul"]
    assert [o.status for o in first.outcomes] == ["error", "error"]
    assert all("transient" in o.error for o in first.outcomes)
    # The next run starts clean — and what it completes outlives it.
    second = opt.optimize_module([MATMUL_DUP, MATMUL])
    assert [(o.status, o.via) for o in second.outcomes] == [("ok", "unchanged")] * 2
    assert second.outcomes[0].metrics and not second.outcomes[1].metrics
    third = opt.optimize_module([MATMUL])
    assert not third.outcomes[0].metrics  # no third search


# -- the three drivers agree -----------------------------------------------------


def _row(outcome: KernelOutcome) -> tuple:
    return (
        outcome.name, outcome.improved, outcome.status,
        outcome.original_cost, outcome.optimized_cost, outcome.optimized_source,
    )


def test_sequential_waves_and_daemon_agree(tmp_path):
    module = [EXP_LOG, MATMUL, BOOM, EXP_LOG_DUP, MATMUL_DUP, BOOM_DUP]
    plan = FaultPlan.parse("solver[boom]:raise;solver[boom_dup]:raise")
    config = FAST.replace(fault_plan=plan)

    sequential = ModuleOptimizer(config=config).optimize_module(module, parallel=1)
    waves = ModuleOptimizer(config=config).optimize_module(module, parallel=2)
    with serve(tmp_path, workers=1, config=config) as (daemon, client):
        served, labels = [], []
        for spec in module:  # in order: each sees its predecessors' verdicts
            rid = client.submit(spec)
            served.append(client.result(rid, wait=True, timeout_s=300))
            labels.append(client.status(rid)["served_from"])

    rows = [_row(o) for o in sequential.outcomes]
    assert [(r[0], r[1], r[2]) for r in rows] == [
        ("exp_log", True, "ok"), ("matmul", False, "ok"), ("boom", False, "error"),
        ("exp_log_dup", True, "ok"), ("matmul_dup", False, "ok"), ("boom_dup", False, "error"),
    ]
    assert [_row(o) for o in waves.outcomes] == rows
    assert [_row(o) for o in served] == rows
    # Same ladder, same rungs: the duplicates never reached a search in the
    # module runs; the daemon keeps no failure verdict, so its boom_dup did.
    for result in (sequential, waves):
        assert [o.via for o in result.outcomes[3:5]] == ["rule-cache", "unchanged"]
        assert not any(o.metrics for o in result.outcomes[3:])
    assert labels == ["synthesis", "synthesis", "error", "rule-cache", "pattern", "error"]
