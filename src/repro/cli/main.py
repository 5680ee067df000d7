"""STENSO command-line interface (paper Appendix F).

Usage matches the artifact's entry point::

    python -m repro.cli.main --program original.py --synth_out optimized.py \\
                             --cost_estimator measured

The program file contains a single function over NumPy arrays (or a bare
expression).  Input shapes come either from a module-level ``SHAPES`` dict in
the program file::

    SHAPES = {"A": (64, 64), "B": (64, 64)}

    def kernel(A, B):
        return np.diag(np.dot(A, B))

or from the ``--shapes`` flag (``--shapes "A=64,64;B=64,64"``; a scalar is
an empty spec: ``a=``).

``--module module.py`` optimizes *every* function in a file as one batch run
(optionally ``--parallel N``).  Module runs are journaled under
``results/runs/<run_id>/`` (see :mod:`repro.journal`): Ctrl-C exits cleanly
with all completed kernels durable, and ``--resume <run_id>`` finishes an
interrupted run without re-synthesizing journaled kernels.  ``SHAPES`` in a
module file maps input names to shapes (shared across kernels), or kernel
names to per-kernel shape dicts.
"""

from __future__ import annotations

import argparse
import ast
import sys
import time
from pathlib import Path

from repro.bench.suite import benchmark_names, get_benchmark
from repro.errors import StensoError
from repro.ir.types import TensorType, float_tensor
from repro.synth.config import SynthesisConfig
from repro.synth.superoptimizer import superoptimize_source


def parse_shapes_flag(spec: str) -> dict[str, TensorType]:
    """Parse ``"A=64,64;B=64"`` into tensor types."""
    out: dict[str, TensorType] = {}
    for item in spec.split(";"):
        item = item.strip()
        if not item:
            continue
        name, _, dims = item.partition("=")
        dims = dims.strip()
        shape = tuple(int(d) for d in dims.split(",") if d.strip()) if dims else ()
        out[name.strip()] = float_tensor(*shape)
    return out


def load_program_file(path: Path) -> tuple[str, dict[str, TensorType] | None]:
    """Source text plus the SHAPES dict, if the file declares one."""
    text = path.read_text()
    shapes: dict[str, TensorType] | None = None
    try:
        tree = ast.parse(text)
    except SyntaxError as exc:
        raise StensoError(f"cannot parse {path}: {exc}") from exc
    source_parts: list[str] = []
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == "SHAPES"
        ):
            raw = ast.literal_eval(stmt.value)
            shapes = {k: float_tensor(*v) for k, v in raw.items()}
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue  # `import numpy as np` headers are implied
        else:
            source_parts.append(ast.get_source_segment(text, stmt) or "")
    return "\n".join(p for p in source_parts if p), shapes


def load_module_kernels(path: Path):
    """Parse a multi-kernel module file into :class:`KernelSpec`\\ s.

    Every top-level function becomes one kernel.  The module-level ``SHAPES``
    dict either maps input names to shapes (shared by all kernels) or kernel
    names to their own ``{input: shape}`` dicts.
    """
    from repro.pipeline import KernelSpec

    text = path.read_text()
    try:
        tree = ast.parse(text)
    except SyntaxError as exc:
        raise StensoError(f"cannot parse {path}: {exc}") from exc
    shapes: dict = {}
    functions: list[ast.FunctionDef] = []
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == "SHAPES"
        ):
            shapes = ast.literal_eval(stmt.value)
        elif isinstance(stmt, ast.FunctionDef):
            functions.append(stmt)
    if not functions:
        raise StensoError(f"{path} defines no kernel functions")
    per_kernel = shapes and all(isinstance(v, dict) for v in shapes.values())
    specs = []
    for fn in functions:
        table = shapes.get(fn.name, {}) if per_kernel else shapes
        inputs = {}
        for arg in fn.args.args:
            if arg.arg not in table:
                raise StensoError(
                    f"{path}: no shape for input {arg.arg!r} of kernel {fn.name!r} "
                    "(declare it in SHAPES)"
                )
            inputs[arg.arg] = float_tensor(*table[arg.arg])
        specs.append(
            KernelSpec(fn.name, ast.get_source_segment(text, fn) or "", inputs)
        )
    return specs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stenso",
        description="Superoptimize a NumPy tensor program via cost-guided symbolic synthesis.",
    )
    parser.add_argument("--program", type=Path, help="Source program in Python.")
    parser.add_argument(
        "--module",
        type=Path,
        default=None,
        help="Optimize every function in this file as one journaled batch run.",
    )
    parser.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help="Worker processes for --module runs (default: 1, sequential).",
    )
    parser.add_argument(
        "--run-id",
        default=None,
        metavar="ID",
        help="Run id for the --module journal (default: generated).",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="RUN_ID",
        help="Resume an interrupted --module run: journaled kernels are "
        "restored without synthesis.",
    )
    parser.add_argument(
        "--runs-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="Journal root for --module runs (default: $STENSO_RUNS or results/runs/).",
    )
    parser.add_argument(
        "--synth_out",
        type=Path,
        default=None,
        help="Output file for the synthesized program (stdout if omitted).",
    )
    parser.add_argument(
        "--cost_estimator",
        choices=("flops", "measured"),
        default="flops",
        help="Cost estimator to use. Supported: flops, measured.",
    )
    parser.add_argument("--shapes", default=None, help='Input shapes, e.g. "A=64,64;B=64".')
    parser.add_argument(
        "--benchmark",
        default=None,
        help="Run a named suite benchmark instead of --program "
        f"(one of: {', '.join(benchmark_names()[:4])}, ...).",
    )
    parser.add_argument("--list-benchmarks", action="store_true", help="List suite benchmarks.")
    parser.add_argument("--timeout", type=float, default=600.0, help="Synthesis budget (s).")
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="N",
        help="Solver-call budget: stop after N symbolic solver queries and "
        "return the best program found so far (status: degraded).",
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="PLAN",
        help="Deterministic fault-injection plan for resilience testing, e.g. "
        "'solver:raise' or 'solver[kernel]:hang=5@2' (overrides $STENSO_FAULTS).",
    )
    parser.add_argument("--max-depth", type=int, default=2, help="Stub enumeration depth.")
    parser.add_argument(
        "--no-branch-and-bound",
        action="store_true",
        help="Disable cost-based pruning (simplification objective only).",
    )
    parser.add_argument("--shrink", type=int, default=3, help="Synthesis dimension cap (0 = off).")
    parser.add_argument(
        "--cache",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help="Reuse solver/library/cost results across runs. With no DIR, "
        "uses $STENSO_CACHE or results/cache/.",
    )
    parser.add_argument("--stats", action="store_true", help="Print search statistics.")
    parser.add_argument(
        "--report",
        action="store_true",
        help="Print a full optimization report (cost breakdown, class, mined rule).",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="Record a span trace of the run (search, solver, enumeration, "
        "verification) under results/runs/<run_id>/; inspect with repro-trace.",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="Emit structured logs as one JSON object per line on stderr.",
    )
    return parser


def _export_run_telemetry(tracer, run_dir: Path, metrics: dict | None) -> None:
    """Write trace + metrics files for a traced run (best-effort)."""
    import json as _json

    tracer.close_open_spans()
    trace_path = run_dir / "trace.json"
    if tracer.export_chrome(trace_path):
        print(f"trace -> {trace_path}", file=sys.stderr)
    if metrics is not None:
        try:
            metrics_path = run_dir / "metrics.json"
            metrics_path.parent.mkdir(parents=True, exist_ok=True)
            metrics_path.write_text(_json.dumps(metrics, indent=1, sort_keys=True))
            print(f"metrics -> {metrics_path}", file=sys.stderr)
        except Exception:  # noqa: BLE001 — telemetry export is best-effort
            pass


def _run_module(args: argparse.Namespace, config: SynthesisConfig) -> int:
    """Journaled multi-kernel run (``--module``), resumable via ``--resume``."""
    from repro.errors import JournalError
    from repro.journal import open_run
    from repro.pipeline import ModuleOptimizer
    from repro.synth.cache import PersistentCache

    try:
        specs = load_module_kernels(args.module)
    except StensoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    cache = None
    if args.cache is not None:
        cache = PersistentCache(args.cache or None)

    try:
        journal = open_run(
            config,
            cost_model=args.cost_estimator,
            run_id=args.run_id,
            resume=args.resume,
            root=args.runs_dir,
        )
    except JournalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    with journal:
        print(f"run {journal.run_id} -> {journal.run_dir}", file=sys.stderr)
        optimizer = ModuleOptimizer(
            cost_model=args.cost_estimator, config=config, cache=cache
        )
        start = time.time()
        try:
            result = optimizer.optimize_module(
                specs, parallel=args.parallel, journal=journal
            )
        except StensoError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.trace:
            from repro.obs.trace import get_tracer

            _export_run_telemetry(
                get_tracer(), journal.run_dir, result.metrics_rollup()
            )

    print(result.summary(), file=sys.stderr)
    output = result.module_source()
    if args.synth_out:
        args.synth_out.write_text(output)
        print(f"wrote {args.synth_out}", file=sys.stderr)
    else:
        print(output, end="")
    print(f"total {time.time() - start:.1f}s", file=sys.stderr)
    if result.interrupted:
        print(
            f"interrupted; finish with --resume {journal.run_id}", file=sys.stderr
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_benchmarks:
        for name in benchmark_names():
            print(name)
        return 0

    from repro.obs.log import configure as configure_logging

    configure_logging(json_mode=args.log_json)
    if args.trace:
        from repro.obs.trace import Tracer, install_tracer

        install_tracer(Tracer())

    fault_plan = None
    if args.faults:
        from repro.resilience import FaultPlan

        try:
            fault_plan = FaultPlan.parse(args.faults)
        except ValueError as exc:
            print(f"error: bad --faults plan: {exc}", file=sys.stderr)
            return 2
    config = SynthesisConfig(
        timeout_seconds=args.timeout,
        max_depth=args.max_depth,
        use_branch_and_bound=not args.no_branch_and_bound,
        max_solver_calls=args.budget,
        fault_plan=fault_plan,
    )

    if args.module or args.resume:
        if args.module is None:
            print("error: --resume requires --module", file=sys.stderr)
            return 2
        return _run_module(args, config)

    if args.benchmark:
        bench = get_benchmark(args.benchmark)
        source = bench.source_for(bench.synth_shapes)
        inputs: dict[str, TensorType] = bench.types_for(bench.synth_shapes)
        shrink = None
        name = bench.name
    else:
        if not args.program:
            print("error: one of --program / --benchmark is required", file=sys.stderr)
            return 2
        source, file_shapes = load_program_file(args.program)
        inputs = parse_shapes_flag(args.shapes) if args.shapes else file_shapes
        if not inputs:
            print(
                "error: no input shapes (declare SHAPES in the file or pass --shapes)",
                file=sys.stderr,
            )
            return 2
        shrink = args.shrink or None
        name = args.program.stem

    cache = None
    if args.cache is not None:
        from repro.synth.cache import PersistentCache

        cache = PersistentCache(args.cache or None)

    start = time.time()
    try:
        result = superoptimize_source(
            source,
            inputs,
            cost_model=args.cost_estimator,
            config=config,
            name=name,
            shrink=shrink,
            cache=cache,
        )
    except StensoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if cache is not None:
        cache.save()

    if args.trace:
        from repro.journal import default_runs_dir, new_run_id
        from repro.obs.trace import get_tracer

        run_root = Path(args.runs_dir) if args.runs_dir else default_runs_dir()
        run_dir = run_root / (args.run_id or new_run_id())
        _export_run_telemetry(
            get_tracer(), run_dir, result.stats.metrics_snapshot()
        )

    print(result.summary(), file=sys.stderr)
    if args.stats:
        print(f"  status: {result.status}", file=sys.stderr)
        for key, value in result.stats.as_dict().items():
            print(f"  {key}: {value}", file=sys.stderr)
    if args.report:
        from repro.cost import make_cost_model
        from repro.report import render_report

        model = make_cost_model(args.cost_estimator)
        print(render_report(result, model), file=sys.stderr)
    output = result.optimized_source
    if args.synth_out:
        args.synth_out.write_text("import numpy as np\n\n\n" + output)
        print(f"wrote {args.synth_out}", file=sys.stderr)
    else:
        print(output, end="")
    print(f"total {time.time() - start:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
