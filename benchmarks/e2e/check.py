"""Independent correctness check: plain NumPy, nothing from ``repro``.

The original source string and the emitted ``optimized_source`` are both run
by the Python interpreter itself on seeded inputs in ``[0.5, 2)`` — the
domain the pipeline verifies on — and compared.  ``repro.ir.evaluator`` and
``repro.verify`` are the code under test and are never consulted.

``expected.json`` holds, per workload and kernel, whether the seed commit
improved it and the optimised/original FLOP ratio it reached, so a quality
loss is named by kernel and not only visible as a moved mean.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text())["workloads"]

RTOL, ATOL = 1e-7, 1e-9


def _inputs(row: dict, seed: int, low: float, high: float) -> dict[str, np.ndarray]:
    rng = np.random.default_rng([seed, zlib.crc32(row["name"].encode())])
    return {
        name: rng.uniform(low, high, size=tuple(shape))
        for name, shape in row["shapes"].items()
    }


def _reference(row: dict, inputs: dict) -> np.ndarray:
    return np.asarray(eval(row["source"], {"np": np}, dict(inputs)), dtype=float)  # noqa: S307


def _emitted(row: dict, inputs: dict) -> np.ndarray:
    namespace: dict = {"np": np}
    exec(row["optimized_source"], namespace)  # noqa: S102 — the program's own output
    functions = [v for k, v in namespace.items() if callable(v) and k not in ("np", "__builtins__")]
    if len(functions) != 1:
        raise ValueError(f"expected one emitted function, found {len(functions)}")
    return np.asarray(functions[0](**inputs), dtype=float)


def _agree(want: np.ndarray, got: np.ndarray) -> bool:
    return want.shape == got.shape and bool(np.allclose(got, want, rtol=RTOL, atol=ATOL))


def check_op(row: dict, seed: int) -> str | None:
    """None when the emitted program matches its source; else the reason."""
    if row["status"] != "ok":
        return f"status {row['status']}: {row.get('error', '')}".strip()
    inputs = _inputs(row, seed, 0.5, 2.0)
    try:
        want = _reference(row, inputs)
    except Exception as exc:  # noqa: BLE001 — any failure is the verdict
        return f"original source does not run: {type(exc).__name__}: {exc}"
    try:
        got = _emitted(row, inputs)
    except Exception as exc:  # noqa: BLE001
        return f"emitted program does not run: {type(exc).__name__}: {exc}"
    if not _agree(want, got):
        return f"emitted program differs from its source (shape {got.shape} vs {want.shape})"
    return None


def strictly_improved(row: dict) -> bool:
    """Checked, and cheaper by the cost model — not just flagged ``improved``.

    (At the seed commit ``max_stack`` through the pipeline is flagged improved
    on a 5e-15 rounding difference and re-prices *higher*; it does not count.)
    """
    return (
        row["improved"] and row["check"] == "ok"
        and row["optimized_cost"] < row["original_cost"]
    )


def domain_narrowed(row: dict, seed: int) -> bool:
    """Does an improved program differ from its source on mixed-sign inputs?

    Informational (ROADMAP item 4): ``exp(log(x)) -> x`` is verified on the
    positive box only, and this counts how many emitted rewrites rely on it.
    """
    if not row["improved"] or row["status"] != "ok":
        return False
    inputs = _inputs(row, seed, -2.0, 2.0)
    with np.errstate(all="ignore"):
        try:
            return not _agree(_reference(row, inputs), _emitted(row, inputs))
        except Exception:  # noqa: BLE001 — raising where the source did not: differs
            return True


def cost_ratio(row: dict) -> float:
    """Optimised / original FLOPs, floored so a free program stays finite."""
    if row["original_cost"] <= 0:
        return 1.0
    return max(row["optimized_cost"] / row["original_cost"], 1e-3)


def quality_change(workload: str, row: dict) -> str | None:
    """How this row departs from the seed commit's result for its kernel."""
    expected = EXPECTED.get(workload, {}).get(row["kernel"])
    if expected is None or row["status"] != "ok":
        return None
    if row["improved"] != expected["improved"]:
        was = "improved" if expected["improved"] else "unchanged"
        now = "improved" if row["improved"] else "unchanged"
        return f"{row['name']}: was {was}, now {now}"
    if row["kind"] == "shape":
        return None  # another shape, another FLOP ratio: only the verdict compares
    ratio = cost_ratio(row)
    if abs(ratio - expected["cost_ratio"]) > 1e-6 * expected["cost_ratio"]:
        return f"{row['name']}: cost ratio was {expected['cost_ratio']:.6g}, now {ratio:.6g}"
    return None
