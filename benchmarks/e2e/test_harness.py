"""Self-test of the benchmark harness on the ``--smoke`` subset (< 60 s).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.  It checks the
harness, not the program: metric names and limits, that ``BENCHMARK.json`` is
the projection of ``spec``, that the layer wrappers account for the whole
timed region and agree with the program's own stage timers, and that the
checker and ``compare.py`` give the verdicts they document.
"""

from __future__ import annotations

import collections
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def layers() -> dict[str, dict]:
    """One traced + one untraced smoke repeat of every workload."""
    return {w: run.measure_per_layer(w, seed=3, smoke=True) for w in spec.WORKLOAD_NAMES}


def test_names_units_and_limits():
    e2e, per_layer = spec.END_TO_END, spec.PER_LAYER
    assert 1 <= len(e2e) <= 16 and 1 <= len(per_layer) <= 128
    assert 2 <= len(spec.WORKLOADS) <= 8
    names = [m["name"] for m in e2e + per_layer] + spec.WORKLOAD_NAMES
    assert len(names) == len(set(names))
    for m in e2e + per_layer:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in e2e)
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= e2e[0].items()
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec.WORKLOADS)


def test_every_layer_metric_names_an_end_to_end_metric_and_a_workload():
    e2e = {m["name"] for m in spec.END_TO_END}
    for m in spec.PER_LAYER:
        assert m["moves"] and set(m["moves"]) <= e2e, m["name"]
        assert m["on"] and set(m["on"]) <= set(spec.WORKLOAD_NAMES), m["name"]


def test_benchmark_json_is_the_projection_of_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    assert spec.RUN_SECONDS * (4 + 22 * len(spec.WORKLOADS)) <= 3420


def test_driver_form_prints_one_result_object_last():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "suite_enum", "--seed", "5",
         "--seconds", "1", "--trace", "0", "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 3 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec.END_TO_END]
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric(layers):
    for workload, result in layers.items():
        assert result["correct"], result["detail"]["failures"]
        assert list(result["metrics"]) == [m["name"] for m in spec.PER_LAYER]
        assert result["metrics"]["trace.spans"]["value"] > 0, workload


@pytest.mark.parametrize("workload", spec.SEQUENTIAL)
def test_layer_self_times_account_for_the_timed_region(layers, workload):
    result = layers[workload]
    detail = result["detail"]
    unattributed = result["metrics"]["pipeline.unattributed_s"]["value"]
    assert unattributed >= 0
    assert detail["self_seconds"] + unattributed == pytest.approx(detail["traced_raw_wall_s"], rel=0.05)
    # ... and the wrappers cover it: little is left outside every layer.
    assert unattributed <= 0.05 * detail["traced_raw_wall_s"]


def test_wrappers_agree_with_the_programs_own_stage_timers(layers):
    result = layers["suite_search"]
    own = result["detail"]["stats_times"]
    metrics = result["metrics"]
    assert metrics["enum.build_s"]["value"] == pytest.approx(own["time_enumeration"], rel=0.05)
    assert metrics["solver.solve_s"]["value"] == pytest.approx(own["time_solver"], rel=0.05)
    assert metrics["search.match_s"]["value"] == pytest.approx(own["time_base_match"], rel=0.05)


def test_workloads_reach_the_layer_they_were_chosen_for(layers):
    value = lambda w, name: layers[w]["metrics"][name]["value"]  # noqa: E731
    assert value("suite_enum", "solver.calls") == 0
    assert value("suite_search", "solver.calls") > 0
    assert value("batch_warm_cache", "cache.solver_hits") > 0
    assert value("batch_warm_cache", "solver.calls") == 0
    assert value("daemon_mixed", "store.hit_ratio") >= 0.6
    assert value("daemon_mixed", "pool.tasks") > 0


def test_stream_is_the_same_multiset_for_every_seed():
    import workloads

    a, b = workloads.stream_inputs(1, smoke=False), workloads.stream_inputs(2, smoke=False)
    count = lambda stream: collections.Counter((kind, kernel) for kind, kernel, _ in stream)  # noqa: E731
    assert count(a) == count(b) and a != b
    kinds = collections.Counter(kind for kind, _, _ in a)
    assert kinds == {"first": 29, "shape": 28, "rename": 58, "repeat": 285}
    assert a == workloads.stream_inputs(1, smoke=False)  # same seed, same inputs
    # Kernels are first seen in suite order, and traffic about one comes
    # only after STREAM_GAP later kernels were first seen.
    firsts = [kernel for kind, kernel, _ in a if kind == "first"]
    assert firsts == [b.name for b in workloads._suite_kernels("daemon_mixed", smoke=False)]
    seen: list[str] = []
    for kind, kernel, _ in a:
        if kind == "first":
            seen.append(kernel)
        else:
            assert kernel in seen[: max(len(seen) - workloads.STREAM_GAP, 0)] or len(seen) == 29
    # ... and the cheap requests are spread over the run, not kept for its end.
    assert sum(1 for kind, _, _ in a[:200] if kind != "first") >= 150


def test_speed_meter_restates_intervals_at_reference_speed():
    import hostspeed

    def meter(exclusive, spins):
        m = hostspeed.SpeedMeter(exclusive)
        # a 1 ms calibration loop every 10 ms
        m.samples = [(0.010 * i, 0.010 * i + 0.001, spin) for i, spin in enumerate(spins)]
        m._integrate()
        return m

    ref = hostspeed.REFERENCE_SPIN_S
    # At reference speed, work keeps its length but for the loop's own time...
    assert meter(True, [ref] * 20).reference_seconds(0.0, 0.1) == pytest.approx(0.09)
    # ... which counts when the work runs beside the loop, not under it.
    assert meter(False, [ref] * 20).reference_seconds(0.0, 0.1) == pytest.approx(0.1)
    # A host at half speed did half the work in the same time.
    assert meter(False, [2 * ref] * 20).reference_seconds(0.0, 0.1) == pytest.approx(0.05)
    # One disturbed sample among steady ones is ignored (median of neighbours).
    assert meter(False, [ref] * 10 + [9 * ref] + [ref] * 9).reference_seconds(0.0, 0.19) == \
        pytest.approx(0.19)
    # A change of regime is followed.
    stepped = meter(False, [ref] * 20 + [2 * ref] * 20)
    assert stepped.reference_seconds(0.0, 0.1) == pytest.approx(0.1)
    assert stepped.reference_seconds(0.3, 0.39) == pytest.approx(0.045)


def _row(optimized_source: str, improved: bool = True) -> dict:
    return {
        "name": "k", "kernel": "k", "kind": "kernel", "status": "ok", "improved": improved,
        "source": "np.exp(np.log(A + B))", "shapes": {"A": [4, 3], "B": [4, 3]},
        "original_cost": 3.0, "optimized_cost": 1.0, "optimized_source": optimized_source,
    }


def test_checker_accepts_a_right_program_and_names_a_wrong_one():
    right = _row("def k(A, B):\n    return (A + B)\n")
    assert check.check_op(right, seed=0) is None
    assert check.domain_narrowed(right, seed=0)  # exp(log(x)) -> x needs x > 0
    assert "differs" in check.check_op(_row("def k(A, B):\n    return (A - B)\n"), seed=0)
    assert "does not run" in check.check_op(_row("def k(A, B):\n    return np.nope(A)\n"), seed=0)
    degraded = dict(right, status="timeout")
    assert check.check_op(degraded, seed=0).startswith("status timeout")


def test_compare_verdicts():
    lower = ("lower", 0.10)
    assert compare.verdict([10.0, 10.1, 10.2], [10.3, 10.4, 10.5], *lower)[0] == "ok"
    assert compare.verdict([10.0, 10.1, 10.2], [12.0, 12.1, 12.2], *lower)[0] == "worse"
    assert compare.verdict([8.0, 10.0, 12.0], [9.0, 11.5, 14.0], *lower)[0] == "unresolved"
    # wide spread, yet every run of B beats every run of A
    assert compare.verdict([8.0, 10.0, 12.0], [5.0, 6.0, 7.0], *lower)[0] == "ok"
    assert compare.verdict([20.0, 20.0], [19.0, 19.0], "higher", 0.002)[0] == "worse"

    def result(wall):
        e2e = {m["name"]: {"unit": m["unit"], "values": [1.0, 1.0]} for m in spec.END_TO_END}
        e2e["wall_s"]["values"] = wall
        per_layer = {m["name"]: {"unit": m["unit"], "value": 1.0} for m in spec.PER_LAYER}
        return {"workloads": {"suite_enum": {"end_to_end": e2e, "per_layer": per_layer,
                                             "failed_share": 0.0}}}

    slower = result([2.0, 2.0])
    slower["workloads"]["suite_enum"]["per_layer"]["enum.build_s"]["value"] = 2.0
    out = io.StringIO()
    assert compare.compare(result([1.0, 1.0]), slower, out=out) == 1
    assert "worse" in out.getvalue() and "enum.build_s" in out.getvalue()
    assert compare.compare(result([1.0, 1.0]), result([1.0, 1.01]), out=io.StringIO()) == 0
