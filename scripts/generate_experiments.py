"""Generate EXPERIMENTS.md: paper-vs-measured for every table and figure.

The one renderer of the paper's evaluation (Tables I-II, Figs. 4-8, the
ablations, the cost-model comparison and the discovery-vs-application
split).  One ``evaluate_suite`` times the 33 kernels; the paper's
qualitative claims are checked on the result and listed under *Claims*,
each ``holds`` or ``VIOLATED``; the script exits 1 if any is violated.

Relies on the synthesis store (results/synthesis.json); a store miss runs
synthesis with a 240 s budget (30 s for the bottom-up baseline), the
budgets ``run_all.sh`` populates the store with.

Usage:  python scripts/generate_experiments.py [--cost-model measured] [--samples 5]
                                              [--output EXPERIMENTS.md]
"""

from __future__ import annotations

import argparse
import platform
import sys
import time
from datetime import date
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.backends import ALL_BACKEND_NAMES  # noqa: E402
from repro.bench import (  # noqa: E402
    TRANSFORMATION_CLASSES,
    SynthesisStore,
    evaluate_suite,
    fig4_speedups,
    fig5_synthesis_times,
    fig6_class_counts,
    fig7_class_speedups,
    fig8_detailed,
)
from repro.cost import FlopsCostModel, MeasuredCostModel, RooflineCostModel  # noqa: E402
from repro.egraph import optimize_with_rules  # noqa: E402
from repro.ir import float_tensor, parse  # noqa: E402
from repro.rules import DISCOVERED_RULES  # noqa: E402

#: Synthesis budgets on a store miss (seconds): a search, the bottom-up baseline.
SEARCH_BUDGET = 240.0
BOTTOM_UP_BUDGET = 30.0

#: The paper's values (AMD platform): Fig. 4, the two class counts Section
#: VII-C states, the Fig. 7 speedups it quotes, and Fig. 8's highlights.
FIG4_PAPER = {"numpy": 3.8, "jax": 1.9, "pytorch": 1.6}
FIG6_PAPER = {"Algebraic Simplification": 9, "Strength Reduction": 8}
FIG7_PAPER = {
    ("Vectorization", "numpy"): 10.7,
    ("Vectorization", "jax"): 2.9,
    ("Vectorization", "pytorch"): 4.4,
    ("Identity Replacement", "numpy"): 6.1,
    ("Identity Replacement", "jax"): 3.5,
    ("Identity Replacement", "pytorch"): 2.1,
}
FIG8_PAPER_HIGHLIGHTS = {
    "vec_lerp": ("numpy", 16.4),
    "log_exp_1": ("numpy", 23.6),
    "reshape_dot": ("numpy", 6.1),
}

#: A small but structurally diverse subset for the ablations.
ABLATION_SUBSET = ["diag_dot", "log_exp_2", "scalar_sum", "synth_3", "synth_8"]
ABLATION_CONFIGS = ["default", "simplification_only", "depth1", "no_memo", "global_complexity"]

#: Cost-model probes spanning compute-, memory- and overhead-bound ops.
PROBES = [
    "np.dot(A, B)", "A * B", "A + B", "np.power(A, 2.5)", "np.sqrt(A)",
    "np.sum(A, axis=0)", "np.sum(A)", "np.transpose(A)", "np.exp(A)", "A / B",
]
PROBE_TYPES = {"A": float_tensor(256, 256), "B": float_tensor(256, 256)}

#: Fresh programs the mined-rule catalog covers, each with the suite kernel
#: whose synthesis discovered its rewrite.
DEPLOY_TARGETS = [
    ("diag_dot", "np.diag(np.dot(P, Q))", {"P": (48, 64), "Q": (64, 48)}),
    ("synth_3", "(P + Q) / np.sqrt(P + Q)", {"P": (64, 64), "Q": (64, 64)}),
    ("trace_dot", "np.trace(np.dot(P, np.transpose(Q)))", {"P": (48, 64), "Q": (48, 64)}),
    ("power_neg", "np.power(P, -1)", {"P": (64, 64)}),
]


def _rank_correlation(a: list[float], b: list[float]) -> float:
    """Spearman rank correlation (scipy-free)."""
    def ranks(values):
        order = np.argsort(values)
        out = np.empty(len(values))
        out[order] = np.arange(len(values))
        return out

    ra, rb = ranks(np.asarray(a)), ranks(np.asarray(b))
    if np.std(ra) == 0 or np.std(rb) == 0:
        return 1.0
    return float(np.corrcoef(ra, rb)[0, 1])


def rank_correlations() -> dict[str, float]:
    """Each analytic cost model's rank correlation with measurement over PROBES:
    branch-and-bound depends on the *ordering* of candidate costs."""
    models = {"flops": FlopsCostModel(), "roofline": RooflineCostModel(),
              "measured": MeasuredCostModel()}
    costs = {
        name: [model.program_cost(parse(p, PROBE_TYPES).node) for p in PROBES]
        for name, model in models.items()
    }
    return {name: _rank_correlation(costs[name], costs["measured"])
            for name in ("flops", "roofline")}


def deployments() -> list[tuple[float, float, float]]:
    """Per DEPLOY_TARGETS entry: e-graph application ms, FLOPs before, after."""
    model = FlopsCostModel()
    out = []
    for _, source, shapes in DEPLOY_TARGETS:
        node = parse(source, {k: float_tensor(*v) for k, v in shapes.items()}).node
        start = time.perf_counter()
        best, _ = optimize_with_rules(node, list(DISCOVERED_RULES), model)
        apply_ms = (time.perf_counter() - start) * 1e3
        out.append((apply_ms, model.program_cost(node), model.program_cost(best)))
    return out


def _expression(record) -> str:
    if not record.improved:
        return "(unchanged)"
    return f"`{record.optimized_source.strip().splitlines()[-1].strip().removeprefix('return ')}`"


def _failures(pairs) -> str:
    """The items a per-benchmark claim fails on, or ``none``."""
    return ", ".join(pairs) if pairs else "none"


def render(store, evals, cost_model, ranks, deployed) -> tuple[str, list[tuple[str, bool]]]:
    """EXPERIMENTS.md's text and its claims, each ``(statement, holds)``."""
    fig4 = fig4_speedups(evals)
    fig5 = fig5_synthesis_times(store, cost_model, SEARCH_BUDGET, BOTTOM_UP_BUDGET)
    fig6 = fig6_class_counts(evals)
    fig7 = fig7_class_speedups(evals)
    fig8 = {row["benchmark"]: row for row in fig8_detailed(evals)}

    lines: list[str] = []
    w = lines.append
    claims: list[tuple[str, bool]] = []

    def claim(statement: str, holds: bool) -> None:
        claims.append((statement, bool(holds)))

    def record(name: str, config: str = "default"):
        return store.get_or_run(
            name, cost_model=cost_model, config=config, timeout_seconds=SEARCH_BUDGET
        )

    w("# EXPERIMENTS — paper vs. measured")
    w("")
    w(f"Generated {date.today().isoformat()} on `{platform.machine()}` "
      f"({platform.system()}), Python {platform.python_version()}, "
      f"cost model `{cost_model}`, by `python scripts/generate_experiments.py`.")
    w("")
    w("The paper evaluates on three physical CPUs with real JAX/PyTorch; this")
    w("reproduction runs on one host against *simulated* compiled frameworks")
    w("(see DESIGN.md substitutions), so the claims checked here are the")
    w("paper's *qualitative* ones — orderings, who-wins, and approximate")
    w("magnitudes — not absolute numbers.  Each is a line of *Claims* below.")
    w("")

    # ---- Tables I / II -----------------------------------------------------
    w("## Tables I & II — benchmark suite")
    w("")
    w("| metric | paper | this repo |")
    w("|---|---|---|")
    w(f"| GitHub benchmarks | 21 | {sum(e.benchmark.suite == 'github' for e in evals)} |")
    w(f"| synthetic benchmarks | 12 | {sum(e.benchmark.suite == 'synthetic' for e in evals)} |")
    improved = sum(e.record.improved for e in evals)
    w(f"| benchmarks improved | (all contribute to Fig. 4) | {improved}/{len(evals)} |")
    w("")
    w("Two table entries are repaired as documented in `repro/bench/suite.py`")
    w("(`inner_prod`'s `np.sum(a, b)` typo, `sum_stack`/`max_stack`'s stray")
    w("duplicated `axis=0`).  Unimproved benchmarks and the reason:")
    w("")
    for e in evals:
        if not e.record.improved:
            w(f"* `{e.name}` — see notes below.")
    w("")
    w("Table I — GitHub benchmarks:")
    w("")
    w("| benchmark | domain | original | optimized |")
    w("|---|---|---|---|")
    for e in evals:
        if e.benchmark.suite == "github":
            w(f"| {e.name} | {e.benchmark.domain} | `{e.benchmark.source}` | "
              f"{_expression(e.record)} |")
    w("")
    w("Table II — synthetic benchmarks:")
    w("")
    w("| benchmark | original | optimized |")
    w("|---|---|---|")
    for e in evals:
        if e.benchmark.suite == "synthetic":
            w(f"| {e.name} | `{e.benchmark.source}` | {_expression(e.record)} |")
    w("")
    unverified = [e.name for e in evals
                  if any(m.improved != e.record.improved for m in e.measurements)]
    claim(f"Tables I-II: every record's improved verdict holds at the timing shapes, "
          f"where Figs. 4-8 time it, over {len(evals)} kernels "
          f"(disagreeing: {_failures(unverified)})", not unverified)

    # ---- Fig. 4 ------------------------------------------------------------
    w("## Fig. 4 — geomean speedups per framework")
    w("")
    w("| framework | paper (AMD) | measured (host) |")
    w("|---|---|---|")
    for backend in ALL_BACKEND_NAMES:
        w(f"| {backend} | {FIG4_PAPER[backend]:.1f}x | {fig4[backend]:.2f}x |")
    w("")
    ordering = fig4["numpy"] >= fig4["jax"] >= fig4["pytorch"] > 1.0
    w(f"Shape check — NumPy ≥ JAX ≥ PyTorch > 1: **{'holds' if ordering else 'VIOLATED'}**.")
    w("")
    claim(f"Fig. 4: NumPy geomean > 1.3x ({fig4['numpy']:.2f}x)", fig4["numpy"] > 1.3)
    claim(f"Fig. 4: JAX geomean > 1.0x ({fig4['jax']:.2f}x)", fig4["jax"] > 1.0)
    claim(f"Fig. 4: PyTorch geomean > 1.0x ({fig4['pytorch']:.2f}x)", fig4["pytorch"] > 1.0)
    for other in ("jax", "pytorch"):
        claim(f"Fig. 4: NumPy geomean ≥ 0.95 × {other} "
              f"({fig4['numpy']:.2f}x vs {fig4[other]:.2f}x)",
              fig4["numpy"] >= fig4[other] * 0.95)

    # ---- Fig. 5 ------------------------------------------------------------
    w("## Fig. 5 — synthesis times")
    w("")
    w("| benchmark | B&B (s) | simplification-only (s) | bottom-up (s) |")
    w("|---|---|---|---|")

    def cell(row, key):
        mark = " ⏱" if row[f"{key}_timed_out"] else ""
        found = "" if row[f"{key}_improved"] else " (no rewrite)"
        return f"{row[key]:.1f}{mark}{found}"

    for row in fig5:
        w(f"| {row['benchmark']} | {cell(row, 'default')} | "
          f"{cell(row, 'simplification_only')} | {cell(row, 'bottom_up')} |")
    w("")
    bnb_timeouts = sum(r["default_timed_out"] for r in fig5)
    so_timeouts = sum(r["simplification_only_timed_out"] for r in fig5)
    bnb_improved = sum(r["default_improved"] for r in fig5)
    bu_improved = sum(r["bottom_up_improved"] for r in fig5)
    w("Paper: B&B synthesizes all benchmarks (most ≪ 200 s), simplification-only")
    w("times out on ≈1/4, the bottom-up baseline fails to scale.  Measured: B&B")
    w(f"timeouts {bnb_timeouts}/{len(fig5)}, simplification-only timeouts "
      f"{so_timeouts}/{len(fig5)}, improved {bnb_improved} (B&B) vs {bu_improved} "
      f"(bottom-up, {BOTTOM_UP_BUDGET:.0f} s budget).")
    w("")
    claim(f"Fig. 5: B&B synthesizes every benchmark within its budget "
          f"({bnb_timeouts} timeouts)", bnb_timeouts == 0)
    claim(f"Fig. 5: B&B improves more benchmarks than bottom-up "
          f"({bnb_improved} vs {bu_improved})", bnb_improved > bu_improved)

    # ---- Fig. 6 ------------------------------------------------------------
    w("## Fig. 6 — benchmarks per transformation class")
    w("")
    w("| class | paper | this repo (improved) |")
    w("|---|---|---|")
    ranked = sorted(fig6.items(), key=lambda kv: -kv[1])
    for cls, count in ranked:
        w(f"| {cls} | {FIG6_PAPER.get(cls, '—')} | {count} |")
    w("")
    claim("Fig. 6: every transformation class is counted",
          set(fig6) == set(TRANSFORMATION_CLASSES))
    for cls, floor in (("Algebraic Simplification", 7), ("Strength Reduction", 2),
                       ("Vectorization", 2)):
        claim(f"Fig. 6: {cls} ≥ {floor} ({fig6.get(cls, 0)})", fig6.get(cls, 0) >= floor)
    top = {ranked[0][0], ranked[1][0]}
    claim(f"Fig. 6: the two largest classes ({', '.join(sorted(top))}) are among "
          f"Algebraic Simplification, Strength Reduction and Identity Replacement",
          top <= {"Algebraic Simplification", "Strength Reduction", "Identity Replacement"})

    # ---- Fig. 7 ------------------------------------------------------------
    w("## Fig. 7 — geomean speedup per class (NumPy / JAX / PyTorch)")
    w("")
    w("| class | paper (AMD) | measured (host) |")
    w("|---|---|---|")
    for cls, per_backend in fig7.items():
        paper_bits = []
        for backend in ALL_BACKEND_NAMES:
            val = FIG7_PAPER.get((cls, backend))
            paper_bits.append(f"{val:.1f}x" if val else "—")
        measured_bits = [f"{per_backend[b]:.2f}x" for b in ALL_BACKEND_NAMES]
        w(f"| {cls} | {' / '.join(paper_bits)} | {' / '.join(measured_bits)} |")
    w("")
    vec = fig7.get("Vectorization", {}).get("numpy", 0.0)
    ident = fig7.get("Identity Replacement", {"numpy": 0.0, "jax": 0.0, "pytorch": 0.0})
    others = [v["numpy"] for cls, v in fig7.items()
              if cls not in ("Vectorization", "Identity Replacement")]
    claim(f"Fig. 7: Vectorization beats every class but Identity Replacement on NumPy "
          f"({vec:.2f}x vs at most {max(others, default=0.0):.2f}x)",
          vec > max(others, default=0.0))
    claim(f"Fig. 7: Identity Replacement NumPy geomean > 1.2x ({ident['numpy']:.2f}x)",
          ident["numpy"] > 1.2)
    claim(f"Fig. 7: Identity Replacement's NumPy geomean ≥ 0.9 × the lesser of JAX's "
          f"and PyTorch's ({ident['numpy']:.2f}x vs "
          f"{min(ident['jax'], ident['pytorch']):.2f}x)",
          ident["numpy"] >= min(ident["jax"], ident["pytorch"]) * 0.9)

    # ---- Fig. 8 ------------------------------------------------------------
    w("## Fig. 8 — per-benchmark speedups")
    w("")
    w("| benchmark | class | numpy | jax | pytorch |")
    w("|---|---|---|---|---|")
    for row in sorted(fig8.values(), key=lambda r: (r["class"], r["benchmark"])):
        cells = " | ".join(f"{row.get(b, float('nan')):.2f}x" for b in ALL_BACKEND_NAMES)
        w(f"| {row['benchmark']} | {row['class']} | {cells} |")
    w("")
    w("Paper highlights vs measured (NumPy):")
    w("")
    for name, (backend, paper_val) in FIG8_PAPER_HIGHLIGHTS.items():
        measured = fig8.get(name, {}).get(backend, float("nan"))
        w(f"* `{name}`: paper {paper_val}x, measured {measured:.2f}x")
    w("")
    for name, floor in (("vec_lerp", 2.0), ("diag_dot", 2.0), ("log_exp_1", 1.5)):
        row = fig8.get(name, {})
        claim(f"Fig. 8: `{name}` is improved", row.get("improved", False))
        speedup = row.get("numpy", 0.0)
        claim(f"Fig. 8: `{name}` NumPy speedup > {floor}x ({speedup:.2f}x)", speedup > floor)
    slow = [f"`{r['benchmark']}` {r['numpy']:.3f}x" for r in fig8.values()
            if r["improved"] and not r.get("numpy", 0.0) > 0.8]
    claim(f"Fig. 8: every improved benchmark's NumPy speedup > 0.8x "
          f"(below: {_failures(slow)})", not slow)

    # ---- Ablations -----------------------------------------------------------
    w("## Ablations")
    w("")
    w("Improved (Y/n) and optimized cost per synthesizer configuration")
    w("(`repro.bench.store.CONFIGS`) on a structurally diverse subset.")
    w("")
    w("| benchmark | " + " | ".join(ABLATION_CONFIGS) + " |")
    w("|---|" + "---|" * len(ABLATION_CONFIGS))
    ablation = {config: {name: record(name, config) for name in ABLATION_SUBSET}
                for config in ABLATION_CONFIGS}
    for name in ABLATION_SUBSET:
        cells = [f"{'Y' if r.improved else 'n'} {r.optimized_cost:.4g}"
                 for r in (ablation[config][name] for config in ABLATION_CONFIGS)]
        w(f"| {name} | " + " | ".join(cells) + " |")
    w("")
    extended = record("max_stack", "extended_grammar")
    w("`extended_grammar` (`np.maximum` / `np.minimum` added to the grammar) on "
      f"`max_stack`: {_expression(extended)}.")
    w("")
    full, ablated = ablation["default"], ablation["simplification_only"]
    worse = [n for n in ABLATION_SUBSET if full[n].improved and ablated[n].improved
             and not full[n].optimized_cost <= ablated[n].optimized_cost * 1.05]
    claim(f"Ablations: B&B's program costs at most 1.05 × simplification-only's "
          f"where both improve (costlier: {_failures(worse)})", not worse)
    shallow = ablation["depth1"]
    shallow_n = sum(r.improved for r in shallow.values())
    full_n = sum(r.improved for r in full.values())
    claim(f"Ablations: depth 2 improves at least as many as depth 1 "
          f"({full_n} vs {shallow_n})", full_n >= shallow_n)
    claim("Ablations: depth 1 finds no cheaper `diag_dot` than depth 2",
          not shallow["diag_dot"].improved
          or shallow["diag_dot"].optimized_cost >= full["diag_dot"].optimized_cost)
    plain = ablation["no_memo"]
    differ = [n for n in ABLATION_SUBSET if plain[n].improved != full[n].improved
              or (full[n].improved and abs(plain[n].optimized_cost - full[n].optimized_cost)
                  > max(0.05 * full[n].optimized_cost, 1e-6))]
    claim(f"Ablations: memoization changes no outcome, and no cost by more than 5 % "
          f"(differing: {_failures(differ)})", not differ)
    glob = ablation["global_complexity"]
    claim("Ablations: the global complexity metric still improves `log_exp_2` and `synth_3`",
          glob["log_exp_2"].improved and glob["synth_3"].improved)
    claim("Ablations: `extended_grammar` rewrites `max_stack` to `np.maximum`",
          extended.improved and "np.maximum" in extended.optimized_source)

    # ---- Cost models ---------------------------------------------------------
    w("## Cost models")
    w("")
    w("Spearman rank correlation of each analytic model with the measured model")
    w(f"over {len(PROBES)} op applications at 256×256: branch-and-bound depends on")
    w("the *ordering* of candidate costs, not their absolute values.")
    w("")
    w("| model | rank correlation |")
    w("|---|---|")
    for name, value in ranks.items():
        w(f"| {name} | {value:.3f} |")
    w("")
    claim(f"Cost models: roofline rank correlation > 0.5 ({ranks['roofline']:.3f})",
          ranks["roofline"] > 0.5)
    claim(f"Cost models: roofline orders at least as well as FLOPs, within 0.15 "
          f"({ranks['roofline']:.3f} vs {ranks['flops']:.3f})",
          ranks["roofline"] >= ranks["flops"] - 0.15)

    # ---- Discovery vs application ---------------------------------------------
    w("## Discovery vs application")
    w("")
    w("Seconds for STENSO to *discover* a rewrite (the suite kernel's synthesis)")
    w("vs milliseconds for equality saturation with the mined-rule catalog to")
    w("*apply* it to a fresh program (Section VIII's complementarity).")
    w("")
    w("| program | discovered on | discover (s) | apply (ms) | FLOPs before → after |")
    w("|---|---|---|---|---|")
    for (bench_name, source, _), (apply_ms, before, after) in zip(DEPLOY_TARGETS, deployed):
        w(f"| `{source}` | {bench_name} | {record(bench_name).synthesis_seconds:.1f} | "
          f"{apply_ms:.1f} | {before:.4g} → {after:.4g} |")
    w("")
    raised = [source for (_, source, _), (_, before, after) in zip(DEPLOY_TARGETS, deployed)
              if after > before]
    claim(f"Discovery vs application: applying the catalog never raises a program's "
          f"FLOPs (raised: {_failures(raised)})", not raised)

    # ---- Notes -------------------------------------------------------------
    w("## Notes on divergences")
    w("")
    w("Benchmarks the measured cost model (4% noise margin, profiling with")
    w("the program's actual scalar constants) deliberately leaves unchanged")
    w("on this host:")
    w("")
    w("* **elem_square / euclidian_dist** — NumPy ≥ 2 fast-paths")
    w("  `np.power(A, 2)` to an internal multiply, so the paper's pow→mul")
    w("  strength reduction is genuinely neutral here (`power_neg`, whose")
    w("  `-1` exponent has no fast path, still wins and is performed).")
    w("* **synth_11** — `np.power(A, 5)` loses to the four-multiply chain")
    w("  under measurement (pow is transcendental); the FLOPS model performs")
    w("  the rewrite, the measured model declines it.")
    w("* **reorder_dot** — `x.T @ A @ x` is already the optimal evaluation")
    w("  order; both the paper's grammar and ours contain no cheaper variant.")
    w("* **dot_trans / sum_sum / synth_5** — the available rewrite removes")
    w("  only view-returning transposes, one extra pass over a vector, or a")
    w("  couple of scalar ops: all below the measurement noise margin, so")
    w("  shipping them would be fitting noise.")
    w("* **max_stack** — the Fig. 3 grammar can only spell elementwise max as")
    w("  `where(less(A,B), B, A)`; whether that beats `stack`+`max` is")
    w("  host-dependent and the measured model decides per host.  The")
    w("  `extended_grammar` configuration (`np.maximum` added to the grammar)")
    w("  reaches the canonical rewrite — see the Ablations section.")
    w("")

    # ---- Claims --------------------------------------------------------------
    w("## Claims")
    w("")
    w("The paper's qualitative claims as checks on the numbers above; the")
    w("script exits non-zero if any reads `VIOLATED`.")
    w("")
    for statement, holds in claims:
        w(f"* **{'holds' if holds else 'VIOLATED'}** — {statement}")
    w("")
    return "\n".join(lines), claims


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--cost-model", default="measured")
    parser.add_argument("--output", type=Path, default=ROOT / "EXPERIMENTS.md")
    parser.add_argument("--samples", type=int, default=5)
    args = parser.parse_args(argv)

    store = SynthesisStore()
    evals = evaluate_suite(
        store, cost_model=args.cost_model, measure=True,
        min_sample_seconds=0.03, samples=args.samples,
    )
    text, claims = render(store, evals, args.cost_model, rank_correlations(), deployments())
    args.output.write_text(text)
    violated = [statement for statement, holds in claims if not holds]
    print(f"wrote {args.output}: {len(claims) - len(violated)} of {len(claims)} claims hold")
    for statement in violated:
        print(f"VIOLATED: {statement}", file=sys.stderr)
    return 1 if violated else 0


if __name__ == "__main__":
    sys.exit(main())
