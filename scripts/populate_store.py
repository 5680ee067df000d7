"""Populate the synthesis-result store, optionally in parallel.

The store (results/synthesis.json) memoizes one record per (benchmark, cost
model, configuration); ``scripts/generate_experiments.py`` reads from it.  This script fills it:

    python scripts/populate_store.py                      # measured, default
    python scripts/populate_store.py --cost-model flops
    python scripts/populate_store.py --config simplification_only
    python scripts/populate_store.py --jobs 8             # parallel synthesis

Parallel mode runs synthesis in worker processes and writes the store only
from the parent, so concurrent corruption is impossible.  Use --jobs 1 (the
default) when the cost model is `measured`: concurrent profiling runs
distort each other's timings.
"""

from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.bench import ALL_BENCHMARKS, benchmark_names, get_benchmark  # noqa: E402
from repro.bench.store import SynthesisStore, run_bottom_up, run_synthesis  # noqa: E402


def _work(args: tuple[str, str, str, float]):
    name, cost_model, config, timeout = args
    bench = get_benchmark(name)
    if config == "bottom_up":
        return run_bottom_up(bench, cost_model, timeout)
    return run_synthesis(bench, cost_model, config, timeout)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--cost-model", default="measured")
    parser.add_argument("--config", default="default")
    parser.add_argument("--timeout", type=float, default=240.0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--benchmarks", nargs="*", default=None)
    args = parser.parse_args()

    store = SynthesisStore()
    names = args.benchmarks or benchmark_names()
    todo = [
        n for n in names if store.get(n, args.cost_model, args.config) is None
    ]
    print(f"{len(todo)}/{len(names)} benchmarks to synthesize "
          f"({args.cost_model}/{args.config}, jobs={args.jobs})")

    if args.jobs <= 1:
        for name in todo:
            start = time.time()
            record = store.get_or_run(
                name, cost_model=args.cost_model, config=args.config,
                timeout_seconds=args.timeout,
            )
            print(f"{name:15s} improved={record.improved} {time.time() - start:6.1f}s",
                  flush=True)
    else:
        jobs = [(n, args.cost_model, args.config, args.timeout) for n in todo]
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = {pool.submit(_work, job): job[0] for job in jobs}
            for future in as_completed(futures):
                record = future.result()
                store.put(record)
                store.save()
                print(f"{record.benchmark:15s} improved={record.improved} "
                      f"{record.synthesis_seconds:6.1f}s", flush=True)
    store.save()
    print("done")


if __name__ == "__main__":
    main()
