"""Fault-injection suite for the resilience layer (``repro.resilience``).

The contract under test: no single failure — a solver that raises or hangs
mid-kernel, a worker process that dies, a cache file that reads back corrupt
— may abort or stall a module run.  Every kernel always gets a structured
:class:`~repro.pipeline.KernelOutcome` (``ok | degraded | timeout | error``)
and the remaining kernels still optimize.

All faults here are *deterministic*, driven by :class:`FaultPlan` specs
(the same hook behind ``--faults`` and ``$STENSO_FAULTS``), so each failure
path is exercised repeatably in CI.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.errors import BudgetExhausted, SynthesisTimeout
from repro.pipeline import KernelSpec, ModuleOptimizer
from repro.resilience import (
    Budget,
    FaultInjected,
    FaultPlan,
    FaultRule,
    ResiliencePolicy,
    current_fault_plan,
    inject,
    set_fault_plan,
)
from repro.synth.cache import CACHE_VERSION, PersistentCache
from repro.synth.config import SynthesisConfig
from repro.synth.superoptimizer import superoptimize_source
from tests.cachefile import read_section

FAST = SynthesisConfig(timeout_seconds=60)

# The flagship kernel decomposes through sketches, so its search actually
# queries the solver (stub-matched programs never reach the ``solver`` site).
SOLVER_KERNEL = KernelSpec(
    "k_solver",
    "def k_solver(A, B):\n    return np.diag(np.dot(A, B))\n",
    {"A": (2, 2), "B": (2, 2)},
)
EASY_KERNELS = [
    KernelSpec("k_easy1", "def k_easy1(A):\n    return np.log(np.exp(A))\n", {"A": (2, 2)}),
    KernelSpec("k_easy2", "def k_easy2(C):\n    return C + 0\n", {"C": (2, 2)}),
]


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    yield
    set_fault_plan(None)


# ---------------------------------------------------------------------------
# FaultPlan: grammar and firing semantics
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_full_grammar(self):
        plan = FaultPlan.parse("solver[k2]:hang=30; cache-read:corrupt, worker:die@1")
        assert [str(r) for r in plan.rules] == [
            "solver[k2]:hang=30",
            "cache-read:corrupt",
            "worker:die@1",
        ]
        assert plan.rules[0] == FaultRule("solver", "hang", scope="k2", value=30.0)
        assert plan.rules[2].at == 1

    def test_parse_rejects_unknown_site_and_action(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan.parse("oracle:raise")
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultPlan.parse("solver:explode")
        with pytest.raises(ValueError, match="missing"):
            FaultPlan.parse("solver")

    def test_raise_rule_fires_only_in_scope(self):
        plan = FaultPlan.parse("solver[k2]:raise")
        assert plan.fire("solver", key="k1") is None  # other kernel: no-op
        assert plan.fire("verify", key="k2") is None  # other site: no-op
        with pytest.raises(FaultInjected):
            plan.fire("solver", key="k2")

    def test_at_n_fires_on_nth_invocation_only(self):
        plan = FaultPlan.parse("solver:raise@3")
        plan.fire("solver")
        plan.fire("solver")
        with pytest.raises(FaultInjected):
            plan.fire("solver")
        plan.fire("solver")  # counter moved past 3: silent again

    def test_explicit_index_overrides_counter(self):
        # The parallel driver passes its own attempt number, so ``die@1``
        # means "attempt 1" even though each attempt is a fresh process.
        plan = FaultPlan.parse("worker:raise@1")
        with pytest.raises(FaultInjected):
            plan.fire("worker", index=1)
        assert plan.fire("worker", index=2) is None

    def test_corrupt_returns_directive(self):
        plan = FaultPlan.parse("cache-read[solver]:corrupt")
        assert plan.fire("cache-read", key="solver") == "corrupt"
        assert plan.fire("cache-read", key="library") is None

    def test_resolution_order_config_beats_process_beats_env(self, monkeypatch):
        monkeypatch.setenv("STENSO_FAULTS", "verify:corrupt")
        env_plan = current_fault_plan()
        assert env_plan is not None and env_plan.rules[0].site == "verify"
        process_plan = set_fault_plan("solver:corrupt")
        assert current_fault_plan() is process_plan
        config = FAST.replace(fault_plan=FaultPlan.parse("worker:corrupt"))
        assert current_fault_plan(config).rules[0].site == "worker"

    def test_inject_without_plan_is_noop(self):
        assert inject("solver", key="anything") is None


# ---------------------------------------------------------------------------
# Budget
# ---------------------------------------------------------------------------


class TestBudget:
    def test_wall_clock_expiry(self):
        budget = Budget.start(wall_s=0.01)
        assert not budget.expired()
        time.sleep(0.02)
        assert budget.expired()
        assert budget.time_left() < 0
        with pytest.raises(SynthesisTimeout):
            budget.check()

    def test_solver_call_budget(self):
        budget = Budget.start(solver_calls=2)
        budget.charge_solver()
        budget.charge_solver()
        assert not budget.expired()
        with pytest.raises(BudgetExhausted):
            budget.charge_solver()
        assert budget.expired()

    def test_budget_exhausted_is_a_synthesis_timeout(self):
        # Every graceful-degradation handler catches SynthesisTimeout; a
        # spent solver budget must flow through the same paths.
        assert issubclass(BudgetExhausted, SynthesisTimeout)

    def test_unlimited_budget_never_expires(self):
        budget = Budget()
        assert budget.time_left() == float("inf")
        assert not budget.expired()
        budget.check()


# ---------------------------------------------------------------------------
# Graceful degradation of a single synthesis run
# ---------------------------------------------------------------------------


class TestDegradation:
    def test_expired_deadline_degrades_not_raises(self):
        config = FAST.replace(timeout_seconds=0.2)
        result = superoptimize_source(
            SOLVER_KERNEL.source,
            dict(SOLVER_KERNEL.inputs),
            config=config,
            name="k_solver",
        )
        assert result.status == "degraded"
        assert result.stats.timed_out
        assert not result.improved  # best-so-far: the original program
        assert "degraded" in result.summary()

    def test_solver_call_budget_degrades_gracefully(self):
        config = FAST.replace(max_solver_calls=1)
        result = superoptimize_source(
            SOLVER_KERNEL.source,
            dict(SOLVER_KERNEL.inputs),
            config=config,
            name="k_solver",
        )
        assert result.status == "degraded"
        assert result.stats.solver_calls <= 2
        assert result.stats.timed_out

    def test_verify_fault_fails_the_kernel_not_the_module(self):
        # The verify site fires when synthesis found a candidate: an
        # unexpected error there must not leak a half-verified program.
        plan = FaultPlan.parse("verify[k_easy1]:raise")
        optimizer = ModuleOptimizer(config=FAST.replace(fault_plan=plan))
        result = optimizer.optimize_module(EASY_KERNELS)
        by = {o.name: o for o in result.outcomes}
        assert by["k_easy1"].status == "error"
        assert "FaultInjected" in by["k_easy1"].error
        assert by["k_easy1"].optimized_source == by["k_easy1"].original_source
        assert by["k_easy2"].status == "ok"


# ---------------------------------------------------------------------------
# Persistent cache: corrupt and torn reads
# ---------------------------------------------------------------------------


class TestCacheResilience:
    def test_truncated_json_reads_as_empty(self, tmp_path):
        cache = PersistentCache(tmp_path)
        cache.solver_put("some-key", None)
        cache.save()
        file = tmp_path / "solver.json"
        text = file.read_text()
        file.write_text(text[: len(text) // 2])  # torn write, inside the header
        reloaded = PersistentCache(tmp_path)
        from repro.synth.cache import MISS

        assert reloaded.solver_get("some-key") is MISS  # empty, not a crash
        # Torn inside a record: the complete lines before it still count, and
        # the next save cuts the fragment off before appending.
        file.write_text(text + text.splitlines()[1][:20])
        reloaded = PersistentCache(tmp_path)
        assert reloaded.solver_get("some-key") is None
        reloaded.solver_put("other-key", None)
        reloaded.save()
        assert [r["k"] for r in read_section(tmp_path, "solver")[1]] == ["some-key", "other-key"]

    def test_valid_json_wrong_shape_reads_as_empty(self, tmp_path):
        from repro.journal import encode_line
        from repro.synth.cache import MISS

        # Whole lines, none of them this version's header: a foreign file.
        (tmp_path / "solver.json").write_text(json.dumps([1, 2, 3]) + "\n")
        (tmp_path / "costs.json").write_text(
            json.dumps({"version": 3, "entries": {"k": 1.0}}) + "\n"
        )
        # The right header, then checksummed lines that are not records.
        header = {"type": "cache-library", "version": CACHE_VERSION}
        (tmp_path / "library.json").write_text(
            "".join(
                encode_line(p) + "\n"
                for p in (header, {"entries": "not-a-dict"}, {"k": None, "v": 1}, {"v": 2})
            )
        )
        cache = PersistentCache(tmp_path)
        assert cache.solver_get("k") is MISS
        assert cache.cost_get("k") is None
        assert cache.library_get("k") is None and cache._load("library") == {}
        # The first save replaces a foreign file instead of appending to it.
        cache.cost_put("k", 2.0)
        cache.save()
        assert read_section(tmp_path, "costs") == (
            {"type": "cache-costs", "version": CACHE_VERSION},
            [{"k": "k", "v": 2.0}],
        )
        assert (tmp_path / "solver.json").read_text() == "[1, 2, 3]\n"  # not ours to touch

    def test_save_is_atomic_no_temp_droppings(self, tmp_path):
        cache = PersistentCache(tmp_path)
        cache.solver_put("k", None)
        cache.save()
        # An append has no temporary to leave: the section file and the lock.
        assert sorted(p.name for p in tmp_path.iterdir()) == [".cache.lock", "solver.json"]
        header, records = read_section(tmp_path, "solver")
        assert header == {"type": "cache-solver", "version": CACHE_VERSION}
        assert records == [{"k": "k", "v": {"solved": False}}]

    def test_injected_corrupt_read_degrades_to_cold_cache(self, tmp_path):
        cache = PersistentCache(tmp_path)
        cache.solver_put("k", None)
        cache.save()
        set_fault_plan("cache-read[solver]:corrupt")
        try:
            reloaded = PersistentCache(tmp_path)
            from repro.synth.cache import MISS

            assert reloaded.solver_get("k") is MISS  # corrupt file == cold cache
        finally:
            set_fault_plan(None)


# ---------------------------------------------------------------------------
# Hardened parallel driver
# ---------------------------------------------------------------------------


class TestParallelResilience:
    def test_solver_raise_marks_kernel_error_module_continues(self):
        plan = FaultPlan.parse("solver[k_solver]:raise")
        config = FAST.replace(fault_plan=plan)
        kernels = [SOLVER_KERNEL] + EASY_KERNELS
        result = ModuleOptimizer(config=config).optimize_module(kernels, parallel=2)
        by = {o.name: o for o in result.outcomes}
        assert by["k_solver"].status == "error"
        assert "FaultInjected" in by["k_solver"].error
        assert by["k_easy1"].status == "ok" and by["k_easy1"].improved
        assert by["k_easy2"].status == "ok" and by["k_easy2"].improved
        assert result.status_counts() == {"error": 1, "ok": 2}
        assert "1 failed" in result.summary()

    def test_transient_worker_death_is_retried(self):
        plan = FaultPlan.parse("worker[k_easy1]:die@1")
        config = FAST.replace(fault_plan=plan)
        result = ModuleOptimizer(config=config).optimize_module(
            EASY_KERNELS, parallel=2, policy=ResiliencePolicy(retry_backoff_s=0.05)
        )
        by = {o.name: o for o in result.outcomes}
        assert by["k_easy1"].status == "ok" and by["k_easy1"].improved
        assert by["k_easy2"].status == "ok"

    def test_persistent_worker_death_falls_back_to_parent(self):
        plan = FaultPlan.parse("worker[k_easy1]:die")
        config = FAST.replace(fault_plan=plan)
        result = ModuleOptimizer(config=config).optimize_module(
            EASY_KERNELS,
            parallel=2,
            policy=ResiliencePolicy(max_retries=1, retry_backoff_s=0.05),
        )
        by = {o.name: o for o in result.outcomes}
        assert by["k_easy1"].status == "degraded"
        assert "crashed" in by["k_easy1"].error
        assert by["k_easy1"].improved  # the in-parent fallback still optimized it
        assert by["k_easy2"].status == "ok"

    def test_policy_kernel_timeout_reaches_every_path(self):
        # Regression: only the wave scheduler read ``policy.kernel_timeout_s``
        # — ``parallel=1`` and a one-kernel ``parallel=2`` call (which runs
        # the sequential loop) searched to completion.  The sequential path
        # has no worker to kill, so the budget is cooperative: it expires and
        # the best-so-far program comes back ``degraded``.
        policy = ResiliencePolicy(kernel_timeout_s=0.01)
        for parallel in (1, 2):
            result = ModuleOptimizer(config=FAST).optimize_module(
                [SOLVER_KERNEL], parallel=parallel, policy=policy
            )
            (outcome,) = result.outcomes
            assert outcome.status == "degraded", (parallel, outcome)
            assert outcome.optimized_source == outcome.original_source

    def test_hung_solver_is_hard_killed_others_finish(self):
        # ISSUE acceptance scenario: a fault plan hangs the solver on one
        # kernel of a 4-kernel module.  The other three kernels must come
        # back ok, the hung kernel must be reported ``timeout``, and the
        # module must exit within ~2x the per-kernel deadline.
        plan = FaultPlan.parse("solver[k_hang]:hang=120")
        config = FAST.replace(fault_plan=plan)
        kernels = [
            KernelSpec("k_hang", SOLVER_KERNEL.source.replace("k_solver", "k_hang"),
                       dict(SOLVER_KERNEL.inputs)),
            KernelSpec("k_a", "def k_a(A):\n    return np.log(np.exp(A))\n", {"A": (2, 2)}),
            KernelSpec("k_b", "def k_b(C):\n    return C + 0\n", {"C": (2, 2)}),
            KernelSpec("k_c", "def k_c(D):\n    return np.transpose(np.transpose(D))\n", {"D": (2, 2)}),
        ]
        deadline = 10.0  # wide enough that enum reaches the solver under contention
        optimizer = ModuleOptimizer(config=config)
        start = time.monotonic()
        result = optimizer.optimize_module(
            kernels,
            parallel=2,
            timeout_s=deadline,
            policy=ResiliencePolicy(hard_kill_factor=1.0, kill_grace_s=0.5),
        )
        elapsed = time.monotonic() - start
        by = {o.name: o for o in result.outcomes}
        assert by["k_hang"].status == "timeout"
        assert "deadline" in by["k_hang"].error
        assert by["k_hang"].optimized_source == by["k_hang"].original_source
        for name in ("k_a", "k_b", "k_c"):
            assert by[name].status == "ok", by[name]
        assert elapsed < 2 * deadline, f"module run took {elapsed:.1f}s"
        assert result.status_counts() == {"timeout": 1, "ok": 3}
