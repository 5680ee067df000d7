"""Measure which ``src/repro`` functions the workloads reach; write docs/reach.md.

Usage:  python scripts/reach.py [--with-tests] [--output docs/reach.md]

Records function-level reach with the stdlib only (``sys.setprofile`` on
every thread of this process) while one process runs, in order:

* the 32 suite kernels of the ``suite_enum`` and ``suite_search`` workloads
  through ``run_synthesis`` (FLOPs);
* the ``batch_warm_cache`` module through ``ModuleOptimizer(cache=...)``,
  cold and then warm;
* a daemon session: ``SynthesisDaemon`` serving the smoke request stream of
  ``daemon_mixed`` to a ``ServeClient``;
* ``scripts/generate_experiments.py --samples 1`` writing to a temp file;
* the entry points CI runs: ``stenso --module``, ``repro-trace`` and
  ``stenso-lint`` (the catalog, the ``--module`` run's journal and the
  daemon's request log).

``--with-tests`` then runs the tier-1 suite (``pytest tests``) in the same
process as one more stage, last, so that its warm caches cannot hide a call
from a workload stage.  Its reach is a column of its own, never part of the
union: the report tells a function reached by tests only from one reached by
nothing.

Pool worker processes, and the subprocesses tests start, are not traced:
the workers run ``ModuleOptimizer.search``, which the suite and batch stages
reach in this process.  ``results/`` and
``EXPERIMENTS.md`` are hashed before and after; the script fails if the run
changed either.  The report lists, per subsystem, the lines of its
top-level functions and methods, how many of those lines belong to a
function that was called at least once, and the keep-or-delete decision.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import os
import platform
import runpy
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

#: Why each subsystem stays.  A subsystem missing here fails the run: a new
#: package needs a decision before the report can be regenerated.
SUBSYSTEMS = {
    "repro": "the public API (`repro.superoptimize`); examples and the user guide call it",
    "repro.analysis": "the MATCH pre-screen and the rule audit: abstract interpretation "
    "where it prunes a search",
    "repro.backends": "code generation for the emitted programs; the simulated frameworks "
    "time Figs. 4, 7 and 8",
    "repro.baselines": "Fig. 5's bottom-up series; EXPERIMENTS.md reads its rows from the "
    "synthesis store, which `scripts/populate_store.py --config bottom_up` fills",
    "repro.bench": "the paper's suite, the synthesis store and the figures of EXPERIMENTS.md",
    "repro.cli": "the entry points CI runs",
    "repro.cost": "Algorithm 1's objective",
    "repro.egraph": "the rule cache's matcher",
    "repro.errors": "the exception hierarchy",
    "repro.ir": "the tensor IR every layer reads",
    "repro.journal": "the durable log under caches, run journals and the request log",
    "repro.obs": "one metric namespace, traces and logs",
    "repro.parallel": "the wave scheduler of `optimize_module(parallel=N)`",
    "repro.pipeline": "the module driver and its resolution ladder",
    "repro.report": "the CLI's documented `--report` flag; no stage passes it",
    "repro.resilience": "budgets, fault injection and the worker policy",
    "repro.rules": "rule mining and the finite catalog; the e-graph matches",
    "repro.serve": "the daemon, its worker pool, content store and watchdog",
    "repro.symexec": "symbolic execution and the tiered equivalence check",
    "repro.synth": "Algorithms 1 and 2: enumeration, SOLVE, PRUNE and the DFS",
    "repro.verify": "the one concrete-input verifier",
}

#: ROADMAP item 13's candidates and the paths it asks to be named, as
#: ``(label, [(file under src/repro, qualname or None for the whole file)],
#: decision, reason)``; a directory entry ends in ``/``.  A knob or a deleted
#: name has no functions to measure here: its selectors are None.
CANDIDATES = [
    ("simulated `xla` / `inductor` backends",
     [("backends/xla_sim.py", None), ("backends/inductor_sim.py", None)], "keep",
     "Figs. 4, 7 and 8 time them (the experiments stage)."),
    ("`repro.egraph`", [("egraph/", None)], "keep",
     "The rule cache matches mined rules with it."),
    ("`cli/`", [("cli/", None)], "keep",
     "CI runs `stenso --module`, `repro-trace`, `stenso-lint` and `python -m repro.cli serve`."),
    ("`verify`'s shape transport",
     [("verify.py", "jitter_shapes"), ("verify.py", "has_shape_attrs")], "keep",
     "A documented API layer; ROADMAP item 4 will want results checked at other shapes."),
    ("`serve.watchdog.Supervisor`", [("serve/watchdog.py", "Supervisor")], "keep",
     "A deployment feature (`stenso-serve --supervise`), driven by "
     "`tests/test_serve_watchdog.py`."),
    ("`solver._generic_solve`", [("synth/solver.py", "_generic_solve")], "keep",
     "A path of Algorithm 2 (a sketch no inverter handles). Target for item 1's "
     "differential matrix and item 4's fuzzer."),
    ("`solver._invert_where`", [("synth/solver.py", "_invert_where")], "keep",
     "A path of Algorithm 2 (SOLVE through `where`). Target for item 1's matrix and "
     "item 4's fuzzer."),
    ("`canonical._equivalent_exprs_slow`",
     [("symexec/canonical.py", "_equivalent_exprs_slow")], "keep",
     "`equivalent`'s court of last resort. Target for item 1's matrix and item 4's fuzzer."),
    ("`SynthesisConfig.extra_constants`", None, "keep",
     "A documented tuning knob (`docs/user_guide.md`); the enumerator reads it on every run."),
    # Deleted, each measured by this script on the tree that still had it
    # (the first ones at commit c6fc6d1).
    ("`analysis/loopcheck.py` (`check_loop_function`, `LoopFinding`)", None, "**deleted**",
     "0 of its 185 function lines (275 file lines) reached; every synthesis process "
     "imported it, and through it the five loop-IR modules."),
    ("the loop IR (Section IV-A's scalar loop nests: lowering, numeric and symbolic "
     "interpreters, printer)", None, "**deleted**",
     "0 of its 542 function lines (998 file lines) reached; only its own test file used "
     "it, as a reference oracle. NumPy's `eval` of each source is the reference now "
     "(DESIGN.md decision 28)."),
    ("two-hole sketch derivation (`SynthesisConfig.multi_hole_sketches`, "
     "`sketch._two_hole_sketches`, `Library.multi_hole`)", None, "**deleted**",
     "0 of the 15 function lines of `_two_hole_sketches` reached; the paper evaluates "
     "single-hole sketches. `Sketch`'s hole tuple, `fill_many`, the search's per-hole "
     "loop and the multi-hole generic solve followed later (DESIGN.md decision 27): "
     "a sketch has one hole, end to end."),
    ("`SynthesisConfig.max_stub_entries`, `max_recursion_depth`", None, "**deleted**",
     "Set by nothing but tests; now the constants `enumerator.MAX_STUB_ENTRIES` (128) "
     "and `search.MAX_RECURSION_DEPTH` (6)."),
    ("`ResiliencePolicy.kernel_timeout_s`", None, "**deleted**",
     "Set by nothing but tests; a second spelling of `optimize_module(timeout_s=)` and "
     "`WorkerPool.submit(timeout_s=)`."),
    ("`errors.SolverError`, `AbstractValue.maybe_undefined` / `with_range`, "
     "`RunJournal.kernel_names`, `Supervisor.read_heartbeat`, `obs.log.json_mode_enabled`",
     None, "**deleted**",
     "Called by nothing, not even a test; none of the five functions' 15 lines reached."),
    ("`Interval.top` / `is_nonnegative`, `FileLock.held`, `AuditReport.warnings`", None,
     "**deleted**", "Called by nothing, not even a test; none of the four functions' 11 lines "
     "reached."),
    ("the tree matcher (`MinedRule.match` / `apply` / `as_named_rule` / `metavariables`, "
     "`mining._match` / `_instantiate`)", None, "**deleted**",
     "0 of its 51 function lines reached; only tests used it, beside the e-graph's "
     "e-matching. Equality saturation is the only rule matcher (DESIGN.md decision 32)."),
    ("the catalog's vectorization rule (`VECTORIZE_STACK`, `_vectorize_stack`, "
     "`_split_body`, `_indexes`)", None, "**deleted**",
     "0 of its 55 function lines reached: no stage applied it and the auditor skipped it. "
     "Synthesis finds vectorization by itself (`synth_10`, `vec_lerp`)."),
    ("`stenso-lint`'s second miner (`_remine`, `_input_names`, `_CANDIDATE_SHAPES`)", None,
     "**deleted**",
     "0 of its 44 function lines reached; it guessed 3x3 inputs and mined other rules than "
     "the run. Both lint modes call `repro.pipeline.synthesized_rule`, as `readmit` does."),
    ("`backends.rewriter.is_const_scalar`", None, "**deleted**",
     "Called by nothing but its own test; 4 function lines."),
]

#: The stage ``--with-tests`` adds; it never counts toward the union.
TESTS = "tier-1 tests"

#: The same stages on commit c6fc6d1, before the deletions.
BEFORE = "635 of 964 functions reached, 9,126 of 12,372 function lines"


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------


class Recorder:
    """The code objects each stage called, per stage, on every thread."""

    def __init__(self) -> None:
        self.reached: dict[str, set] = {}
        self.seconds: dict[str, float] = {}
        self._current: set = set()
        # A forked pool worker is not traced (see the module docstring).
        os.register_at_fork(after_in_child=self._stop)

    def _profile(self, frame, event, arg) -> None:
        if event == "call":
            self._current.add(frame.f_code)

    @staticmethod
    def _stop() -> None:
        sys.setprofile(None)
        threading.setprofile(None)

    @contextmanager
    def stage(self, name: str):
        self._current = self.reached.setdefault(name, set())
        print(f"[reach] {name} ...", flush=True)
        start = time.monotonic()
        threading.setprofile(self._profile)
        sys.setprofile(self._profile)
        try:
            yield
        finally:
            self._stop()
            self.seconds[name] = time.monotonic() - start


def run_stages(recorder: Recorder, scratch: Path) -> None:
    import workloads
    from repro.bench.store import run_synthesis
    from repro.pipeline import ModuleOptimizer
    from repro.serve import ServeClient, SynthesisDaemon

    with recorder.stage("suite kernels"):
        kernels = workloads.suite_inputs("suite_enum", False)
        kernels += workloads.suite_inputs("suite_search", False)
        for bench in kernels:
            run_synthesis(bench, "flops", "default", workloads.TIMEOUT_S)

    with recorder.stage("batch_warm_cache"):
        specs = [spec for _, spec in workloads.batch_inputs(7, False)]
        for _ in ("cold", "warm"):
            ModuleOptimizer(
                cost_model="flops", config=workloads._config(), cache=scratch / "cache"
            ).optimize_module(specs)

    with recorder.stage("daemon session"):
        daemon = SynthesisDaemon(
            scratch / "state", workers=2, config=workloads._config(),
            socket_path=scratch / "d.sock",
        )
        daemon.start()
        server = threading.Thread(target=daemon.serve_forever, daemon=True)
        server.start()
        client = ServeClient(daemon.socket_path)
        client.wait_ready(timeout_s=60)
        for _, _, spec in workloads.stream_inputs(7, True):
            client.result(client.submit(spec), wait=True, timeout_s=workloads.TIMEOUT_S * 2)
        client.shutdown(drain=True)
        server.join(120)

    with recorder.stage("generate_experiments"):
        # Its exit status is the paper's claims' verdict, not a reach question.
        experiments = runpy.run_path(str(ROOT / "scripts" / "generate_experiments.py"))
        experiments["main"](["--samples", "1", "--output", str(scratch / "exp.md")])

    from repro.cli import lint, main, trace

    runs = scratch / "runs"
    with recorder.stage("stenso --module"):
        main.main([
            "--module", str(ROOT / "examples" / "kernels_module.py"), "--parallel", "2",
            "--trace", "--log-json", "--runs-dir", str(runs), "--run-id", "reach",
        ])
    with recorder.stage("repro-trace"):
        for command in ("validate", "summary"):
            trace.main([command, str(runs / "reach" / "trace.json")])
    with recorder.stage("stenso-lint"):
        lint.main(["--policy", "strict", "--json", str(scratch / "lint.json")])
        lint.main(["--journal", str(runs / "reach" / "journal.jsonl"), "--policy", "positive"])
        lint.main(["--store", str(scratch / "state"), "--policy", "positive"])


def run_tests(recorder: Recorder) -> int:
    """The tier-1 suite under the recorder; its exit status."""
    import pytest

    os.chdir(ROOT)
    with recorder.stage(TESTS):
        return int(pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]))


# ---------------------------------------------------------------------------
# Function table
# ---------------------------------------------------------------------------


def function_table() -> list[dict]:
    """Every top-level function and method under ``src/repro``.

    A nested function counts as part of the function around it.  ``start``
    is the first decorator's line, which is what a code object's
    ``co_firstlineno`` holds.
    """
    rows = []

    def visit(body, path: Path, prefix: str) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, path, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                start = min([node.lineno] + [d.lineno for d in node.decorator_list])
                rows.append({
                    "file": path.relative_to(PACKAGE).as_posix(),
                    "filename": os.path.realpath(path),
                    "qualname": prefix + node.name,
                    "start": start,
                    "lines": node.end_lineno - start + 1,
                })

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text()).body, path, "")
    return rows


def subsystem_of(file: str) -> str:
    head = file.split("/")[0]
    if head == "__init__.py":
        return "repro"
    return "repro." + head.removesuffix(".py")


def select(rows: list[dict], selectors) -> list[dict]:
    out = []
    for file, qualname in selectors:
        for row in rows:
            in_file = row["file"].startswith(file) if file.endswith("/") else row["file"] == file
            if in_file and (
                qualname is None
                or row["qualname"] == qualname
                or row["qualname"].startswith(qualname + ".")
            ):
                out.append(row)
    return out


def tally(rows: list[dict]) -> tuple[int, int]:
    return sum(r["lines"] for r in rows), sum(r["lines"] for r in rows if r["reached"])


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def digest(paths: list[Path]) -> dict[str, str]:
    files = []
    for path in paths:
        files += sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    return {str(p.relative_to(ROOT)): hashlib.sha1(p.read_bytes()).hexdigest() for p in files}


def render(rows: list[dict], recorder: Recorder, tests_exit: int | None) -> str:
    reached_by_stage = {
        stage: {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in codes}
        for stage, codes in recorder.reached.items()
    }
    by_tests = reached_by_stage.pop(TESTS, set())
    keys = {(r["filename"], r["start"]): r for r in rows}
    union: set = set().union(*reached_by_stage.values()) & keys.keys()
    for row in rows:
        key = (row["filename"], row["start"])
        row["reached"] = key in union
        row["tests_only"] = key in by_tests and not row["reached"]
    total_lines, total_reached = tally(rows)
    stage_seconds = sum(t for stage, t in recorder.seconds.items() if stage != TESTS)

    command = "python scripts/reach.py" + (" --with-tests" if tests_exit is not None else "")
    lines = [
        "# Reach report",
        "",
        f"Generated by `{command}` (Python "
        f"{platform.python_version()}, {os.cpu_count()} CPUs, "
        f"{stage_seconds:.0f} s with the profiler on). A function is "
        "*reached* when some stage called it at least once; its lines are those of the "
        "top-level function or method, nested functions included.",
        "",
    ]
    if tests_exit is not None:
        lines += [
            f"The tier-1 suite ran after the stages, in the same process, in "
            f"{recorder.seconds[TESTS]:.0f} s wall time with the profiler on (pytest exit "
            f"status {tests_exit}). It is a column of its own: *tests only* counts what it "
            "reached and no stage did; the subprocesses tests start are not traced.",
            "",
        ]
    lines += [
        "## Stages",
        "",
        "All stages run in one process. Pool worker processes are not traced: they run "
        "`ModuleOptimizer.search`, which the suite and batch stages reach in this process. "
        "`results/` and `EXPERIMENTS.md` are byte-identical after the run.",
        "",
        "| stage | seconds | `src/repro` functions reached |",
        "|---|---:|---:|",
    ]
    for stage, reached in reached_by_stage.items():
        lines.append(f"| {stage} | {recorder.seconds[stage]:.1f} | {len(reached & keys.keys())} |")
    lines += [
        f"| **union** | | **{len(union)} of {len(rows)}** |",
        "",
        f"Function lines reached: {total_reached:,} of {total_lines:,} "
        f"({100 * total_reached / total_lines:.0f} %).",
        "",
        "## Subsystems",
        "",
        "| subsystem | function lines | reached | share | tests only | decision | reason |",
        "|---|---:|---:|---:|---:|---|---|",
    ]
    by_subsystem: dict[str, list[dict]] = {}
    for row in rows:
        by_subsystem.setdefault(subsystem_of(row["file"]), []).append(row)
    unknown = set(by_subsystem) - set(SUBSYSTEMS)
    if unknown:
        raise SystemExit(f"no decision recorded for {sorted(unknown)}: add them to SUBSYSTEMS")
    for name, reason in SUBSYSTEMS.items():
        fn_lines, reached = tally(by_subsystem.get(name, []))
        share = f"{100 * reached / fn_lines:.0f} %" if fn_lines else "—"
        tests_only = (
            f"{sum(r['lines'] for r in by_subsystem.get(name, []) if r['tests_only']):,}"
            if tests_exit is not None else "—"
        )
        lines.append(
            f"| `{name}` | {fn_lines:,} | {reached:,} | {share} | {tests_only} | keep | {reason} |"
        )
    lines += [
        "",
        "## ROADMAP item 13's candidates and the named paths",
        "",
        "| candidate | function lines | reached | decision | reason |",
        "|---|---:|---:|---|---|",
    ]
    for label, selectors, decision, reason in CANDIDATES:
        counts = "— | —"
        if selectors is not None:
            fn_lines, reached = tally(select(rows, selectors))
            counts = f"{fn_lines:,} | {reached:,}"
        lines.append(f"| {label} | {counts} | {decision} | {reason} |")
    lines += ["", f"Before the deletions (commit c6fc6d1) the same stages gave: {BEFORE}."]
    lines += ["", "## Functions no stage reached", ""]
    if tests_exit is None:
        sections = [("Tests may reach them; no workload, paper table or CI entry point does.",
                     lambda row: True)]
    else:
        sections = [
            ("### Reached by tests only", lambda row: row["tests_only"]),
            ("### Reached by nothing\n\nBesides dead code, this lists what runs only at import "
             "time (op registration, module loggers) or only in a process the profiler does not "
             "follow (pool workers, `stenso-serve`'s supervisor).",
             lambda row: not row["tests_only"]),
        ]
    for title, keep in sections:
        unreached: dict[str, list[str]] = {}
        for row in rows:
            if not row["reached"] and keep(row):
                unreached.setdefault(row["file"], []).append(row["qualname"])
        lines += [title, ""]
        lines += [f"- `{f}`: " + ", ".join(f"`{n}`" for n in ns) for f, ns in unreached.items()]
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--output", type=Path, default=ROOT / "docs" / "reach.md")
    parser.add_argument(
        "--with-tests", action="store_true", help="add the tier-1 suite as its own column"
    )
    args = parser.parse_args()

    guarded = [ROOT / "results", ROOT / "EXPERIMENTS.md"]
    before = digest(guarded)
    recorder = Recorder()
    with tempfile.TemporaryDirectory(prefix="reach") as scratch:
        run_stages(recorder, Path(scratch))
    tests_exit = run_tests(recorder) if args.with_tests else None
    if digest(guarded) != before:
        raise SystemExit("the run changed results/ or EXPERIMENTS.md")
    args.output.write_text(render(function_table(), recorder, tests_exit))
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
