"""Tests for the figure data and the one renderer of the paper's tables
(``scripts/generate_experiments.py``), using a fabricated store (no timing)."""

import importlib.util
from pathlib import Path

import pytest

from repro.backends import ALL_BACKEND_NAMES
from repro.bench import (
    ALL_BENCHMARKS,
    TRANSFORMATION_CLASSES,
    SynthesisStore,
    evaluate_benchmark,
    fig4_speedups,
    fig6_class_counts,
    fig7_class_speedups,
    fig8_detailed,
    get_benchmark,
)
from repro.bench.figures import BenchmarkEvaluation
from repro.bench.runner import Measurement
from repro.bench.store import CONFIGS, SynthesisRecord

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "generate_experiments.py"


def fake_record(bench, improved=True, optimized="A + B", config="default", timed_out=False):
    source = f"def {bench.name}({', '.join(bench.parse_synth().input_names)}):\n"
    source += f"    return {optimized}\n"
    return SynthesisRecord(
        benchmark=bench.name,
        cost_model="measured",
        config=config,
        improved=improved,
        optimized_source=source,
        synthesis_seconds=1.5,
        original_cost=10.0,
        optimized_cost=5.0 if improved else 10.0,
        stats={"timed_out": timed_out},
    )


def fake_eval(name, speedups, improved=True):
    bench = get_benchmark(name)
    measurements = [
        Measurement(name, backend, original_seconds=s, optimized_seconds=1.0, improved=improved)
        for backend, s in zip(ALL_BACKEND_NAMES, speedups)
    ]
    return BenchmarkEvaluation(
        benchmark=bench,
        record=fake_record(bench, improved=improved),
        measurements=measurements,
        transformation_class=bench.transformation_class,
    )


@pytest.fixture
def store(tmp_path):
    """A record for every suite kernel under every configuration the renderer
    reads; simplification-only times out on ``diag_dot``."""
    store = SynthesisStore(tmp_path / "synthesis.json")
    for bench in ALL_BENCHMARKS:
        for config in [*CONFIGS, "bottom_up"]:
            timed_out = config == "simplification_only" and bench.name == "diag_dot"
            store.put(fake_record(bench, config=config, timed_out=timed_out))
    return store


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("generate_experiments", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Fabricated cost-model rank correlations and e-graph deployments
#: (apply ms, FLOPs before, after), in place of the script's measurements.
RANKS = {"flops": 0.5, "roofline": 0.6}
DEPLOYED = [(0.5, 10.0, 5.0)] * 4


def rendered(script, store, evaluations):
    """The fabricated suite through the script's renderer: no timing."""
    return script.render(store, evaluations, "measured", RANKS, DEPLOYED)


def section(text, heading):
    """The body of one ``## heading`` section of the rendered report."""
    return text.split(f"\n## {heading}")[1].split("\n## ")[0]


@pytest.fixture
def evaluations():
    # Three fabricated evaluations with known speedups.
    return [
        fake_eval("diag_dot", (4.0, 2.0, 2.0)),
        fake_eval("log_exp_1", (9.0, 2.0, 0.5)),
        fake_eval("synth_3", (1.0, 1.0, 1.0), improved=False),
    ]


class TestFig4:
    def test_geomean_per_backend(self, evaluations):
        out = fig4_speedups(evaluations)
        assert out["numpy"] == pytest.approx((4.0 * 9.0 * 1.0) ** (1 / 3))
        assert out["jax"] == pytest.approx((2.0 * 2.0 * 1.0) ** (1 / 3))

    def test_format_contains_paper_reference(self, script, store, evaluations):
        text, _ = rendered(script, store, evaluations)
        fig4 = section(text, "Fig. 4")
        assert "paper (AMD)" in fig4 and "| numpy | 3.8x | 3.30x |" in fig4


class TestFig6:
    def test_counts_only_improved(self, evaluations):
        counts = fig6_class_counts(evaluations)
        assert counts["Identity Replacement"] == 2  # diag_dot + log_exp_1
        assert counts["Algebraic Simplification"] == 0  # synth_3 unimproved
        assert set(counts) == set(TRANSFORMATION_CLASSES)

    def test_format(self, script, store, evaluations):
        text, _ = rendered(script, store, evaluations)
        assert "| Identity Replacement | — | 2 |" in section(text, "Fig. 6")


class TestFig7:
    def test_class_grouping(self, evaluations):
        out = fig7_class_speedups(evaluations)
        assert out["Identity Replacement"]["numpy"] == pytest.approx(6.0)  # gm(4, 9)
        assert out["Algebraic Simplification"]["numpy"] == 1.0

    def test_format(self, script, store, evaluations):
        text, _ = rendered(script, store, evaluations)
        assert "| Identity Replacement | 6.1x / 3.5x / 2.1x | 6.00x / 2.00x / 1.00x |" in (
            section(text, "Fig. 7")
        )


class TestFig8:
    def test_rows(self, evaluations):
        rows = fig8_detailed(evaluations)
        by_name = {r["benchmark"]: r for r in rows}
        assert by_name["diag_dot"]["numpy"] == 4.0
        assert by_name["synth_3"]["improved"] is False

    def test_format_sorted_by_class(self, script, store, evaluations):
        text = section(rendered(script, store, evaluations)[0], "Fig. 8")
        # Alphabetical by class: Algebraic (synth_3) before Identity rows.
        assert text.index("synth_3") < text.index("diag_dot")


class TestFig5Format:
    def test_marks_timeouts(self, script, store, evaluations):
        fig5 = section(rendered(script, store, evaluations)[0], "Fig. 5")
        assert "| diag_dot | 1.5 | 1.5 ⏱ | 1.5 |" in fig5
        assert "| log_exp_1 | 1.5 | 1.5 | 1.5 |" in fig5


class TestRender:
    HEADINGS = [
        "Tables I & II", "Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7", "Fig. 8",
        "Ablations", "Cost models", "Discovery vs application", "Notes on divergences",
        "Claims",
    ]

    def test_every_section_present(self, script, store, evaluations):
        text, claims = rendered(script, store, evaluations)
        for heading in self.HEADINGS:
            assert f"\n## {heading}" in text, heading
        assert "| diag_dot | Astrophysics | `np.diag(np.dot(A, B))` | `A + B` |" in text
        verdicts = [line for line in section(text, "Claims").splitlines() if line.startswith("* ")]
        assert len(verdicts) == len(claims) > 30
        # Thresholds as the paper states them: the fabricated suite has no
        # vec_lerp, and bottom-up improves as many kernels as B&B there.
        assert "* **VIOLATED** — Fig. 8: `vec_lerp` is improved" in verdicts
        fig5 = "* **VIOLATED** — Fig. 5: B&B improves more benchmarks than bottom-up (33 vs 33)"
        assert fig5 in verdicts

    def test_failing_claim_fails_main(self, script, store, evaluations, monkeypatch, tmp_path):
        monkeypatch.setattr(script, "SynthesisStore", lambda: store)
        monkeypatch.setattr(script, "evaluate_suite", lambda *a, **k: evaluations)
        monkeypatch.setattr(script, "rank_correlations", lambda: RANKS)
        monkeypatch.setattr(script, "deployments", lambda: DEPLOYED)
        output = tmp_path / "EXPERIMENTS.md"
        render = script.render
        for claims, code in (([("a", True)], 0), ([("a", True), ("forced", False)], 1)):
            monkeypatch.setattr(script, "render", lambda *a, c=claims: (render(*a)[0], c))
            output.unlink(missing_ok=True)
            assert script.main(["--output", str(output)]) == code
            assert "\n## Claims" in output.read_text()


class TestEvaluateBenchmark:
    def test_no_measure_mode(self, tmp_path):
        store = SynthesisStore(tmp_path / "s.json")
        bench = get_benchmark("log_exp_1")
        store.put(fake_record(bench, improved=True, optimized="(A + B)"))
        out = evaluate_benchmark(bench, store, cost_model="measured", measure=False)
        assert out.measurements == []
        assert out.record.improved
        assert out.transformation_class == "Identity Replacement"

    def test_speedup_lookup_raises_for_unknown_backend(self, evaluations):
        with pytest.raises(KeyError):
            evaluations[0].speedup("tpu")
