"""The benchmark's one command.

Driver form (what ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload and prints, as the last line of standard output, one JSON
object ``{correct, attempted, failed, metrics}`` — the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Without ``--workload`` it is the report a person reads::

    PYTHONPATH=src python -m benchmarks.e2e.run --seed N

every workload ``--runs`` times untraced plus one traced run each, every
metric printed by name with its unit, the result written to
``out/result-seed<N>.json`` for ``compare.py``, and a non-zero exit when the
independent checker found a mismatch.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import spec  # noqa: E402

OUT = HERE / "out"
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 170


# -- host ----------------------------------------------------------------------


def load_size() -> int:
    """Pool workers and client threads: never more than the cores we have."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(2, cores or 1)


def _git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def host_header(seed: int) -> dict:
    return {
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "sched_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "sympy": importlib.metadata.version("sympy"),
        "numpy": importlib.metadata.version("numpy"),
        "git_commit": _git_commit(),
        "pool_workers": load_size(),
        "client_threads": load_size(),
        "generator_processes": 1,
    }


# -- running the workload process ------------------------------------------------


def _spawn_child(workload: str, seed: int, trace: bool, smoke: bool, scratch: Path,
                 setup_only: bool = False) -> dict:
    scratch.mkdir(parents=True, exist_ok=True)
    out_file = scratch / "result.json"
    env = dict(os.environ, TMPDIR=str(scratch))
    spawned_at = time.time()
    # Its own session, so a hung repeat can be killed with its daemon and pool.
    proc = subprocess.Popen(
        [
            sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed),
            "--trace", str(int(trace)), "--smoke", str(int(smoke)),
            "--workers", str(load_size()), "--clients", str(load_size()),
            "--setup-only", str(int(setup_only)),
            "--spawned-at", repr(spawned_at), "--scratch", str(scratch), "--out", str(out_file),
        ],
        stdout=sys.stderr, env=env, start_new_session=True,
    )
    try:
        returncode = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if returncode != 0:
        raise RuntimeError(f"workload process for {workload} exited with {returncode}")
    return json.loads(out_file.read_text())


_repeat_ids = itertools.count()


def run_repeat(workload: str, seed: int, trace: bool, smoke: bool, setup_only: bool = False) -> dict:
    """One repeat: its set-up and (unless ``setup_only``) its timed region."""
    scratch = OUT / f"tmp-{os.getpid()}-{next(_repeat_ids)}"
    try:
        if workload != "batch_warm_cache":
            return _spawn_child(workload, seed, trace, smoke, scratch, setup_only)
        # Set-up writes the cache in one process; the timed run reads it in another.
        cold = _spawn_child(workload, seed, trace, smoke, scratch)
        warm = _spawn_child(workload, seed, trace, smoke, scratch, setup_only)
        warm["setup_s"] += cold["process_s"]
        warm["cold"] = {k: cold.get(k) for k in ("wall_s", "raw_wall_s", "ops", "trace", "counts")}
        return warm
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


# -- end-to-end metrics ----------------------------------------------------------


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def check_repeat(repeat: dict, seed: int) -> list[str]:
    """Run the independent checker over a repeat's ops; returns the failures."""
    failures = []
    for row in repeat["ops"]:
        reason = check.check_op(row, seed)
        row["check"] = reason or "ok"
        if reason is not None:
            failures.append(f"{row['name']}: {reason}")
    return failures


#: In ``op_s_geomean`` an operation counts for at least this long: below it
#: an in-process operation's time is allocator and collector noise, which a
#: geometric mean would weigh like a real change (``op_s_p50`` covers the
#: fast path).
OP_FLOOR_S = 0.01


TIMES = ("wall_s", "op_s_geomean", "op_s_p50", "op_s_p95")


def repeat_metrics(repeat: dict, raw: bool = False) -> dict[str, float]:
    """A repeat's metrics, from reference-speed seconds; ``raw=True`` takes the
    wall-clock readings instead, for the detail that shows both."""
    ops = repeat["ops"]
    seconds = [r["raw_seconds" if raw else "seconds"] for r in ops]
    return {
        "wall_s": repeat["raw_wall_s" if raw else "wall_s"],
        "op_s_geomean": geomean([max(s, OP_FLOOR_S) for s in seconds]),
        "op_s_p50": percentile(seconds, 0.50),
        "op_s_p95": percentile(seconds, 0.95),
        "peak_rss_mb": repeat["peak_rss_mb"],
        "improved_count": sum(1 for r in ops if check.strictly_improved(r)),
        "cost_ratio_geomean": geomean([check.cost_ratio(r) for r in ops]),
    }


def measure_end_to_end(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    n = 1 if smoke else spec.repeats_for(workload, seconds)
    repeats = [run_repeat(workload, seed, False, smoke) for _ in range(n)]
    setups = [r["setup_s"] for r in repeats]
    for _ in range(0 if smoke else max(0, spec.setup_samples_for(workload) - n)):
        setups.append(run_repeat(workload, seed, False, smoke, setup_only=True)["setup_s"])
    failures = [f for r in repeats for f in check_repeat(r, seed)]
    per_repeat = [repeat_metrics(r) for r in repeats]
    # Low median: with two repeats, the one the host disturbed less — noise
    # on a shared CPU only ever adds time.
    values = {"setup_s": statistics.median_low(setups)}
    for name in per_repeat[0]:
        values[name] = statistics.median_low(m[name] for m in per_repeat)
    units = {m["name"]: m["unit"] for m in spec.END_TO_END}
    return {
        "correct": not failures,
        "attempted": sum(len(r["ops"]) for r in repeats),
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "detail": {
            "repeats": n,
            "setup_samples": len(setups),
            "wall_clock": [
                {k: v for k, v in repeat_metrics(r, raw=True).items() if k in TIMES}
                for r in repeats
            ],
            "host_slowdown": [r["host_slowdown"] for r in repeats],
            "failures": failures,
            "quality_changes": sorted(
                {q for r in repeats for row in r["ops"] if (q := check.quality_change(workload, row))}
            ),
            "ops": [_public_row(row) for row in repeats[0]["ops"]],
        },
    }


def _public_row(row: dict) -> dict:
    return {k: v for k, v in row.items() if k not in ("metrics", "stats", "source", "shapes")}


# -- per-layer metrics -------------------------------------------------------------


def _histogram_percentile(hist: dict | None, p: float) -> float:
    """Upper bound of the bucket holding the ``p`` quantile (0.0 when empty)."""
    if not hist or not hist.get("count"):
        return 0.0
    rank, seen = p * hist["count"], 0
    for bound, count in zip(hist["bounds"], hist["counts"]):
        seen += count
        if seen >= rank:
            return float(bound)
    return float(hist["max"])


def layer_metrics(workload: str, traced: dict, untraced_wall: float, seed: int) -> dict[str, float]:
    processes = [traced["trace"]["workload"]]
    if "daemon" in traced["trace"]:
        processes.append(traced["trace"]["daemon"])
    setup_processes = [traced["cold"]["trace"]["workload"]] if "cold" in traced else []

    def total(layer: str, index: int, procs=processes) -> float:
        return sum(p["totals"].get(layer, [0, 0.0, 0.0])[index] for p in procs)

    def calls(layer: str) -> float:
        return total(layer, 0)

    def inclusive(layer: str) -> float:
        return total(layer, 1)

    def spans(layer: str) -> list[dict]:
        return [s for p in processes for s in p["spans"] if s["name"] == layer]

    def durations(layer: str) -> list[float]:
        return [s["end"] - s["start"] for s in spans(layer)]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    counters = traced["metrics"].get("counters", {})
    histograms = traced["metrics"].get("histograms", {})
    counts = traced.get("counts", {})
    daemon = counts.get("daemon", {}).get("counters", {})
    daemon_hists = counts.get("daemon", {}).get("histograms", {})
    pool = counts.get("pool", {})
    cache = counts.get("cache", {})
    wall = traced["raw_wall_s"]  # spans are wall-clock readings

    def c(name: str) -> float:
        return counters.get(name, 0)

    builds = spans("enum.build")
    solves = durations("solver.solve")
    verifies = spans("verify.candidate")
    gets = spans("store.get")

    # Pool round trips: submit() call to the step() that reported the task done.
    submitted = {s["task"]: s["start"] for s in spans("pool.submit")}
    roundtrips, overheads = [], []
    for step in spans("pool.step"):
        for done in step.get("done", ()):
            if done["task"] in submitted:
                roundtrip = step["end"] - submitted[done["task"]]
                roundtrips.append(roundtrip)
                if done["worker_s"] is not None:
                    overheads.append(roundtrip - done["worker_s"])

    lanes = load_size() if workload == "daemon_mixed" else 1
    hits = sum(1 for s in gets if s.get("hit"))
    ops = [r for r in traced["ops"] if r["kind"] != "repeat"]

    if solves:
        solver_p50, solver_p95 = percentile(solves, 0.5), percentile(solves, 0.95)
    else:  # daemon_mixed: the solver runs in untraced pool workers
        hist = histograms.get("solver.latency_s")
        solver_p50, solver_p95 = _histogram_percentile(hist, 0.5), _histogram_percentile(hist, 0.95)

    return {
        "ir.parse_s": inclusive("ir.parse"),
        "ir.parse_calls": calls("ir.parse"),
        "symexec.execute_s": inclusive("symexec.execute"),
        "symexec.execute_calls": calls("symexec.execute"),
        "symexec.canonical_s": inclusive("symexec.canonical"),
        "symexec.equivalent_s": inclusive("symexec.equivalent"),
        "symexec.equivalent_calls": calls("symexec.equivalent"),
        "equiv.residue_batteries": c("equiv.residue_batteries"),
        "equiv.fingerprint_rejects": c("equiv.fingerprint_rejects"),
        "equiv.fingerprint_hits": c("equiv.fingerprint_hits"),
        "equiv.sympy_fallbacks": c("equiv.sympy_fallbacks"),
        "equiv.intern_hit_ratio": ratio(
            c("equiv.intern_hits"), c("equiv.intern_hits") + c("equiv.intern_misses")
        ),
        "analysis.prescreen_checks": c("analysis.prescreen_checks"),
        "analysis.prescreen_pruned": c("analysis.prescreen_pruned"),
        "analysis.prescreen_pruned_ratio": ratio(
            c("analysis.prescreen_pruned"), c("analysis.prescreen_checks")
        ),
        "enum.build_s": inclusive("enum.build"),
        "enum.enumerate_s": inclusive("enum.enumerate"),
        "enum.assemble_s": inclusive("enum.assemble"),
        "enum.stubs": sum(s.get("stubs", 0) for s in builds),
        "enum.sketches": sum(s.get("sketches", 0) for s in builds),
        "enum.library_cache_hits": sum(1 for s in builds if s.get("from_cache")),
        "search.dfs_s": total("search.dfs", 2),
        "search.match_s": inclusive("search.match"),
        "search.nodes_expanded": c("search.nodes_expanded"),
        "search.pruned_bound": c("search.prune.bound"),
        "search.pruned_simplification": c("search.prune.simplification"),
        "search.base_case_matches": c("search.base_case_matches"),
        "search.memo_hits": c("search.memo_hits"),
        "search.max_depth": (histograms.get("search.depth") or {}).get("max") or 0,
        "solver.solve_s": inclusive("solver.solve"),
        "solver.calls": c("solver.calls"),
        "solver.hits": c("solver.hits"),
        "solver.hit_ratio": ratio(c("solver.hits"), c("solver.calls") + c("solver.cache_hits")),
        "solver.cache_hits": c("solver.cache_hits"),
        "solver.latency_s_p50": solver_p50,
        "solver.latency_s_p95": solver_p95,
        "cost.program_cost_s": inclusive("cost.program_cost"),
        "cost.calls": calls("cost.program_cost"),
        "cost.cache_hits": c("cost.cache_hits"),
        "verify.candidate_s": inclusive("verify.candidate"),
        "verify.calls": len(verifies),
        "verify.rejected": sum(1 for s in verifies if not s.get("verified", False)),
        "verify.domain_narrowed": sum(1 for r in ops if check.domain_narrowed(r, seed)),
        "cache.open_s": inclusive("cache.open"),
        # Writes happen in set-up (the cold process); the warm run's save is a no-op.
        "cache.save_s": inclusive("cache.save") + total("cache.save", 1, setup_processes),
        "cache.library_get_s": inclusive("cache.library_get"),
        "cache.solver_get_s": inclusive("cache.solver_get"),
        "cache.library_hits": cache.get("library_hits", 0),
        "cache.solver_hits": cache.get("solver_hits", 0),
        "cache.disk_bytes": counts.get("cache.disk_bytes", 0),
        "pipeline.kernel_s": inclusive("pipeline.kernel"),
        "pipeline.rule_cache_s": inclusive("pipeline.rule_cache"),
        "pipeline.rule_cache_hits": sum(1 for r in traced["ops"] if r.get("via") == "rule-cache"),
        "pipeline.unattributed_s": lanes * wall - _self_seconds(traced),
        "rules.mine_s": inclusive("rules.mine"),
        "rules.mined": c("analysis.audit_admitted") + c("analysis.audit_rejected"),
        "rules.audit_rejected": c("analysis.audit_rejected"),
        "client.submit_s_p50": percentile(durations("client.submit") or [0.0], 0.5),
        "client.result_wait_s_p50": percentile(durations("client.result_wait") or [0.0], 0.5),
        "serve.log_append_s": inclusive("serve.log_append"),
        "serve.log_appends": calls("serve.log_append"),
        "serve.served_from.store": daemon.get("serve.served_from.store", 0),
        "serve.served_from.synthesis": daemon.get("serve.served_from.synthesis", 0),
        "serve.served_from.rule-cache": daemon.get("serve.served_from.rule-cache", 0),
        "serve.served_from.pattern": daemon.get("serve.served_from.pattern", 0),
        "serve.served_from.dedup": daemon.get("serve.served_from.dedup", 0),
        "serve.shed": daemon.get("serve.shed", 0),
        "serve.request_seconds_p50": _histogram_percentile(
            daemon_hists.get("serve.request_seconds"), 0.5
        ),
        "store.get_s": inclusive("store.get"),
        "store.put_s": inclusive("store.put"),
        "store.gets": len(gets),
        "store.hits": hits,
        "store.hit_ratio": ratio(hits, len(gets)),
        "pool.submit_s": inclusive("pool.submit"),
        "pool.step_s": inclusive("pool.step"),
        "pool.tasks": pool.get("pool.tasks", 0),
        "pool.task_roundtrip_s": statistics.fmean(roundtrips) if roundtrips else 0.0,
        "pool.ipc_overhead_s": statistics.fmean(overheads) if overheads else 0.0,
        "pool.worker_busy_share": ratio(sum(roundtrips), load_size() * wall),
        "pool.retries": pool.get("pool.crash_retries", 0),
        "trace.overhead_share": (traced["wall_s"] - untraced_wall) / untraced_wall,
        "trace.spans": sum(len(p["spans"]) for p in processes),
    }


def _self_seconds(traced: dict) -> float:
    """Self time of every layer in the workload process; with the time outside
    all of them it adds up to the traced ``wall_s`` (times the client threads)."""
    return sum(t[2] for t in traced["trace"]["workload"]["totals"].values())


def measure_per_layer(workload: str, seed: int, smoke: bool) -> dict:
    traced = run_repeat(workload, seed, True, smoke)
    untraced = run_repeat(workload, seed, False, smoke)
    failures = check_repeat(traced, seed) + check_repeat(untraced, seed)
    values = layer_metrics(workload, traced, untraced["wall_s"], seed)
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"{workload}.trace.json"
    trace_file.write_text(
        json.dumps({"seed": seed, "raw_wall_s": traced["raw_wall_s"], **traced["trace"]})
    )
    return {
        "correct": not failures,
        "attempted": len(traced["ops"]) + len(untraced["ops"]),
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec.PER_LAYER
        },
        "detail": {
            "failures": failures,
            "traced_wall_s": traced["wall_s"],
            "untraced_wall_s": untraced["wall_s"],
            "traced_raw_wall_s": traced["raw_wall_s"],
            "self_seconds": _self_seconds(traced),
            "stats_times": _stats_times(traced),
            "trace_file": str(trace_file.relative_to(HERE)),
        },
    }


def _stats_times(traced: dict) -> dict[str, float]:
    """The program's own stage timers, to cross-check the wrappers against."""
    out = {"time_enumeration": 0.0, "time_solver": 0.0, "time_base_match": 0.0}
    for row in traced["ops"]:
        for key in out:
            out[key] += row.get("stats", {}).get(key, 0.0)
    return out


# -- determinism -------------------------------------------------------------------


def exact_counts(workload: str, seed: int, smoke: bool) -> dict[str, float]:
    traced = run_repeat(workload, seed, True, smoke)
    check_repeat(traced, seed)
    layers = layer_metrics(workload, traced, traced["wall_s"], seed)
    counts = {m["name"]: layers[m["name"]] for m in spec.PER_LAYER if m["unit"] != "s"}
    e2e = repeat_metrics(traced)
    counts.update({name: e2e[name] for name in spec.EXACT_END_TO_END})
    return counts


def check_determinism(seed: int, smoke: bool) -> int:
    """Run every workload's counts twice; exact ones must repeat exactly."""
    must_repeat = {m["name"] for m in spec.PER_LAYER if m["exact"]} | set(spec.EXACT_END_TO_END)
    status = 0
    for workload in spec.WORKLOAD_NAMES:
        first, second = exact_counts(workload, seed, smoke), exact_counts(workload, seed, smoke)
        differing = sorted(k for k in first if first[k] != second[k] and k != "trace.overhead_share")
        broken = [k for k in differing if k in must_repeat and workload in spec.SEQUENTIAL]
        print(f"{workload}: {len(first) - len(differing)} counts repeat exactly")
        for k in differing:
            tag = "NOT EXACT (declared exact)" if k in broken else "non-exact"
            print(f"  {tag}: {k}: {first[k]} vs {second[k]}")
        if broken:
            status = 1
    return status


# -- entry points --------------------------------------------------------------------


def run_all(seed: int, seconds: float, runs: int, smoke: bool) -> int:
    header = host_header(seed)
    print("host: " + json.dumps(header))
    report = {"header": header, "run_seconds": seconds, "runs": runs, "workloads": {}}
    status = 0
    for workload in spec.WORKLOAD_NAMES:
        untraced = [measure_end_to_end(workload, seed, seconds, smoke) for _ in range(runs)]
        layers = measure_per_layer(workload, seed, smoke)
        results = untraced + [layers]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        if failed:
            status = 1
        entry = {
            "end_to_end": {
                m["name"]: {
                    "unit": m["unit"],
                    "values": [r["metrics"][m["name"]]["value"] for r in untraced],
                }
                for m in spec.END_TO_END
            },
            "failed_share": failed / attempted,
            "per_layer": layers["metrics"],
            "detail": {"untraced": [r["detail"] for r in untraced], "traced": layers["detail"]},
        }
        report["workloads"][workload] = entry
        print(f"\n== {workload} ({runs} runs x {untraced[0]['detail']['repeats']} repeats, "
              f"{untraced[0]['attempted']} ops per run) ==")
        for name, m in entry["end_to_end"].items():
            print(f"  {name:<32} {statistics.median(m['values']):>14.6g} {m['unit']:<6} "
                  f"(median of {len(m['values'])})")
        print(f"  {'failed_share':<32} {entry['failed_share']:>14.6g} ratio")
        for name, m in entry["per_layer"].items():
            print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}")
        for line in [f for r in results for f in r["detail"]["failures"]]:
            print(f"  FAILED {line}")
        for line in untraced[0]["detail"]["quality_changes"]:
            print(f"  quality: {line}")
    OUT.mkdir(exist_ok=True)
    name = f"result-seed{seed}{'-smoke' if smoke else ''}.json"
    (OUT / name).write_text(json.dumps(report, indent=1))
    print(f"\nwrote {OUT / name}")
    return status


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=spec.WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=2, help="untraced runs per workload (report form)")
    ap.add_argument("--smoke", action="store_true", help="3 kernels per workload, 40 requests")
    ap.add_argument("--check-determinism", action="store_true")
    args = ap.parse_args(argv)

    if args.check_determinism:
        return check_determinism(args.seed, args.smoke)
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.runs, args.smoke)
    if args.trace:
        result = measure_per_layer(args.workload, args.seed, args.smoke)
    else:
        result = measure_end_to_end(args.workload, args.seed, args.seconds, args.smoke)
    OUT.mkdir(exist_ok=True)
    detail = result.pop("detail")
    suffix = "layers" if args.trace else "e2e"
    (OUT / f"{args.workload}.{suffix}.json").write_text(
        json.dumps({"header": host_header(args.seed), **result, "detail": detail}, indent=1)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
