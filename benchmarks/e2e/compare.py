"""Compare two result files of ``run.py`` (report form): ``compare.py A.json B.json``.

One row per (workload, end-to-end metric): both medians and quartiles, how
much worse B is than A as a share of A's median, the bound from ``spec``, and
a verdict —

* ``ok``          B's median is within the bound of A's (or better);
* ``worse``       it is not, and the runs agree well enough to say so;
* ``unresolved``  the quartile spread of either side is wider than the bound,
  so the row cannot be called unchanged — unless every run of B reads better
  than every run of A, which is ``ok``.

Beneath each workload its per-layer metrics that moved, largest relative move
first, so the layer behind an end-to-end change is named.  Exact counts
(``spec.PER_LAYER[...]["exact"]``) are flagged on any change at all.
Exit status 1 when some row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spec  # noqa: E402

LAYER_MOVE_SHOWN = 0.02


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _fmt(q: tuple[float, float, float]) -> str:
    return "/".join(f"{v:.5g}" for v in q)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """(verdict, how much worse B's median is as a share of A's)."""
    sign = 1.0 if better == "lower" else -1.0
    (a1, a_med, a3), (b1, b_med, b3) = quartiles(a), quartiles(b)
    worse_by = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    spread = max(
        (a3 - a1) / abs(a_med) if a_med else 0.0,
        (b3 - b1) / abs(b_med) if b_med else 0.0,
    )
    if spread > bound:
        all_better = max(sign * v for v in b) < min(sign * v for v in a)
        return ("ok" if all_better else "unresolved"), worse_by
    return ("worse" if worse_by > bound else "ok"), worse_by


def compare(a: dict, b: dict, out=sys.stdout) -> int:
    status = 0
    for workload in spec.WORKLOAD_NAMES:
        wa, wb = a["workloads"].get(workload), b["workloads"].get(workload)
        if wa is None or wb is None:
            continue
        print(f"== {workload} ==", file=out)
        print(f"  {'metric':<20} {'A q1/median/q3':<34} {'B q1/median/q3':<34} "
              f"{'worse by':>9} {'bound':>6}  verdict", file=out)
        for m in spec.END_TO_END:
            va = wa["end_to_end"][m["name"]]["values"]
            vb = wb["end_to_end"][m["name"]]["values"]
            word, worse_by = verdict(va, vb, m["better"], m["bound"])
            if word == "worse":
                status = 1
            print(f"  {m['name']:<20} {_fmt(quartiles(va)):<34} {_fmt(quartiles(vb)):<34} "
                  f"{worse_by:>+9.1%} {m['bound']:>6.1%}  {word}", file=out)
        fa, fb = wa.get("failed_share", 0.0), wb.get("failed_share", 0.0)
        if fb > fa:
            status = 1
        print(f"  {'failed_share':<20} {fa:<34.6g} {fb:<34.6g} {'':>9} {'any':>6}  "
              f"{'worse' if fb > fa else 'ok'}", file=out)
        moved = []
        for m in spec.PER_LAYER:
            la = wa["per_layer"][m["name"]]["value"]
            lb = wb["per_layer"][m["name"]]["value"]
            if la == lb:
                continue
            rel = (lb - la) / abs(la) if la else float("inf")
            if m["exact"] and workload in spec.SEQUENTIAL:
                moved.append((float("inf"), m, la, lb, rel, "exact count changed"))
            elif abs(rel) >= LAYER_MOVE_SHOWN:
                moved.append((abs(rel), m, la, lb, rel, ""))
        for _, m, la, lb, rel, note in sorted(moved, key=lambda t: -t[0]):
            print(f"    {m['layer']:<16} {m['name']:<30} {la:>12.6g} -> {lb:<12.6g} "
                  f"{rel:>+8.1%} {m['unit']:<6} {note}", file=out)
    return status


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    return compare(a, b)


if __name__ == "__main__":
    sys.exit(main())
