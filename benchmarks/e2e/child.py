"""The workload process: one repeat of one workload in a fresh interpreter.

``run.py`` starts it, passes the wall-clock time of the spawn, and reads the
JSON it writes to ``--out``.  ``setup_s`` runs from that spawn to the moment
imports are done and the seeded inputs are built (for ``daemon_mixed``: the
daemon answers and its pool is alive).  With ``--trace 1`` the layer wrappers
of :mod:`layers` are installed between set-up and the timed region.

Every time it reports is in reference-speed seconds (:mod:`hostspeed`); the
wall-clock readings they were made from are kept beside them as ``raw_*``.

``--role daemon`` is the daemon process ``daemon_mixed`` starts for itself;
pool workers re-import this file as ``__mp_main__``, so it does nothing at
import.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))


def _peak_rss_mb() -> float:
    """This process plus its largest waited-for descendant (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    descendants = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + descendants) / 1024.0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=("workload", "daemon"), default="workload")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--smoke", type=int, default=0)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--clients", type=int, default=2)
    ap.add_argument("--spawned-at", type=float, default=None)
    ap.add_argument("--scratch", help="directory for this repeat's cache / daemon state")
    ap.add_argument("--setup-only", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    if args.role == "daemon":
        import workloads

        workloads.daemon_main(args.workers, bool(args.trace))
        return 0

    import hostspeed

    spawned_at = args.spawned_at if args.spawned_at is not None else time.time()
    meter = hostspeed.SpeedMeter(exclusive=args.workload != "daemon_mixed")
    unmetered_s = time.time() - spawned_at  # interpreter start-up
    meter.start()
    try:
        result = run_workload(args, meter, unmetered_s)
    finally:
        meter.cancel()
    Path(args.out).resolve().write_text(json.dumps(result))
    return 0


def run_workload(args, meter, unmetered_s: float) -> dict:
    metered_from = time.perf_counter()

    import workloads  # imports repro (and SymPy): part of set-up

    smoke = bool(args.smoke)
    scratch = Path(args.scratch).resolve()
    handle = None
    if args.workload in ("suite_enum", "suite_search"):
        inputs = workloads.suite_inputs(args.workload, smoke)
    elif args.workload == "batch_warm_cache":
        inputs = workloads.batch_inputs(args.seed, smoke)
    else:
        inputs = workloads.stream_inputs(args.seed, smoke)
        handle = workloads.DaemonHandle(scratch / "daemon", args.workers, bool(args.trace))
    try:
        if handle is not None:
            handle.wait_up()
        ready = time.perf_counter()
        result = {}
        if not args.setup_only:
            recorder = None
            if args.trace:
                import layers

                recorder = layers.install()
            if handle is not None:
                result.update(workloads.run_stream(inputs, handle, args.clients, args.seed))
            elif args.workload == "batch_warm_cache":
                result.update(workloads.run_batch(inputs, str(scratch / "cache"), recorder))
            else:
                result.update(workloads.run_suite(inputs, recorder))
            result["metrics"] = workloads.merged_metrics(result["ops"])
            if recorder is not None:
                result["trace"] = {"workload": recorder.dump()}
        done = time.perf_counter()
        meter.stop()
    finally:
        if handle is not None:
            handle.shutdown()
    result["setup_s"] = unmetered_s + meter.reference_seconds(metered_from, ready)
    result["process_s"] = unmetered_s + meter.reference_seconds(metered_from, done)
    result["host_slowdown"] = meter.slowdown()
    if not args.setup_only:
        start, end = result.pop("start"), result.pop("end")
        result["raw_wall_s"] = end - start
        result["wall_s"] = meter.reference_seconds(start, end)
        for row in result["ops"]:
            row["raw_seconds"] = row["seconds"]
            row["at_s"] = row["start"] - start  # wall clock, from the start of the timed region
            row["seconds"] = meter.reference_seconds(row.pop("start"), row.pop("end"))
    if handle is not None and args.trace and not args.setup_only:
        result["trace"]["daemon"] = json.loads(
            (handle.state_dir / "daemon.trace.json").read_text()
        )
    result["peak_rss_mb"] = _peak_rss_mb()
    return result


if __name__ == "__main__":
    sys.exit(main())
