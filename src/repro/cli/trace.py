"""``repro-trace``: offline analysis of STENSO run traces.

Consumes the Chrome trace-event JSON (``trace.json``, the file Perfetto
loads) written by ``stenso --trace`` and ``stenso serve --trace``.

Subcommands::

    repro-trace summary results/runs/<id>/trace.json
        Hottest stages, top prune reasons, the ``equiv.*`` counters of the
        ``metrics.json`` beside the trace, deepest search paths, and a
        per-worker utilization timeline.

    repro-trace validate results/runs/<id>/trace.json
        Schema-check the file (used by CI); exit 1 on any violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Chrome event phases we emit: complete span, instant, metadata.
_CHROME_PHASES = {"X", "i", "M"}


# ---------------------------------------------------------------------------
# Loading (normalized to the internal event dicts of repro.obs.trace:
# {type, id, parent, name, cat, tid, ts, dur, args})
# ---------------------------------------------------------------------------


def load_events(path: Path) -> list[dict]:
    """Load a Chrome trace into internal-format event dicts."""
    payload = json.loads(path.read_text())
    events: list[dict] = []
    for raw in payload.get("traceEvents", []):
        ph = raw.get("ph")
        if ph not in ("X", "i"):
            continue  # metadata rows carry no timing
        args = dict(raw.get("args") or {})
        events.append(
            {
                "type": "span" if ph == "X" else "instant",
                "id": args.pop("id", None),
                "parent": args.pop("parent", None),
                "name": raw.get("name", "?"),
                "cat": raw.get("cat", ""),
                "tid": raw.get("tid", "main"),
                "ts": (raw.get("ts") or 0.0) / 1e6,
                "dur": (raw.get("dur") or 0.0) / 1e6 if ph == "X" else None,
                "args": args,
            }
        )
    return events


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------


def _hottest_stages(events: list[dict], top: int) -> list[str]:
    totals: dict[str, tuple[float, int]] = {}
    for e in events:
        if e["type"] != "span":
            continue
        dur, count = totals.get(e["name"], (0.0, 0))
        totals[e["name"]] = (dur + (e.get("dur") or 0.0), count + 1)
    ranked = sorted(totals.items(), key=lambda kv: -kv[1][0])[:top]
    return [
        f"  {name:<16} {dur:8.3f}s total  ({count} spans)"
        for name, (dur, count) in ranked
    ]


def _top_prunes(events: list[dict], top: int) -> list[str]:
    reasons: dict[str, int] = {}
    for e in events:
        if e["type"] == "instant" and e["name"] == "prune":
            reason = (e.get("args") or {}).get("reason", "?")
            reasons[reason] = reasons.get(reason, 0) + 1
    ranked = sorted(reasons.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
    return [f"  {reason:<16} {count} prunes" for reason, count in ranked]


def _solver_outcomes(events: list[dict]) -> list[str]:
    """SOLVE answers by outcome, computed (``solve`` spans), floor-pruned
    (``solver-floor`` spans) and restored (``solver-cache-hit`` instants)
    alike — the trace's ``solver.verified``."""
    counts: dict[str, int] = {}
    for e in events:
        if e["name"] in ("solve", "solver-floor", "solver-cache-hit"):
            outcome = (e.get("args") or {}).get("outcome", "?")
            counts[outcome] = counts.get(outcome, 0) + 1
    labels = {"hit": "verified", "pruned": "pruned unverified", "miss": "unsolvable"}
    return [
        f"  {labels.get(outcome, outcome):<18} {count} sketches"
        for outcome, count in sorted(counts.items())
    ]


def _equiv_counts(trace_path: Path) -> list[str]:
    """The run's ``equiv.*`` counters, from the ``metrics.json`` a traced run
    writes beside its trace (spans carry no counter values)."""
    try:
        counters = json.loads(trace_path.with_name("metrics.json").read_text())["counters"]
        ranked = sorted((k, v) for k, v in counters.items() if k.startswith("equiv."))
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return []
    return [f"  {name:<28} {count}" for name, count in ranked]


def _deepest_paths(events: list[dict], top: int) -> list[str]:
    """Deepest ``dfs`` chains, reconstructed from parent links per tid."""
    by_tid: dict[str, dict] = {}
    for e in events:
        if e["type"] == "span" and e.get("id") is not None:
            by_tid.setdefault(e.get("tid", "main"), {})[e["id"]] = e

    chains: list[tuple[int, str, list[str]]] = []
    for tid, spans in by_tid.items():
        for e in spans.values():
            if e["name"] != "dfs":
                continue
            path: list[str] = []
            cursor, hops = e, 0
            while cursor is not None and hops < 1000:
                if cursor["name"] == "dfs":
                    path.append(str((cursor.get("args") or {}).get("depth", "?")))
                cursor = spans.get(cursor.get("parent"))
                hops += 1
            chains.append((len(path), tid, list(reversed(path))))
    chains.sort(key=lambda c: -c[0])
    out = []
    for length, tid, path in chains[:top]:
        out.append(f"  depth {length:>2} on {tid}: dfs levels {' -> '.join(path)}")
    return out


def _worker_timeline(events: list[dict]) -> list[str]:
    by_tid: dict[str, list[dict]] = {}
    for e in events:
        if e["type"] == "span":
            by_tid.setdefault(e.get("tid", "main"), []).append(e)
    lines = []
    for tid in sorted(by_tid):
        spans = by_tid[tid]
        ids = {e.get("id") for e in spans}
        start = min(e["ts"] for e in spans)
        end = max(e["ts"] + (e.get("dur") or 0.0) for e in spans)
        window = max(end - start, 1e-9)
        # Busy time from root spans only (children are contained in parents).
        busy = sum(
            e.get("dur") or 0.0
            for e in spans
            if e.get("parent") is None or e.get("parent") not in ids
        )
        util = min(busy / window, 1.0)
        bar = "#" * round(util * 30)
        lines.append(
            f"  {tid:<16} [{bar:<30}] {util * 100:5.1f}% busy, "
            f"{len(spans)} spans over {window:.2f}s"
        )
    return lines


def cmd_summary(path: Path, top: int) -> int:
    try:
        events = load_events(path)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace {path}: {exc}", file=sys.stderr)
        return 1
    if not events:
        print(f"{path}: empty trace")
        return 0
    spans = sum(1 for e in events if e["type"] == "span")
    instants = len(events) - spans
    print(f"{path}: {spans} spans, {instants} instant events")
    sections = (
        ("hottest stages", _hottest_stages(events, top)),
        ("top prune reasons", _top_prunes(events, top)),
        ("solver outcomes", _solver_outcomes(events)),
        ("equivalence tiers", _equiv_counts(path)),
        ("deepest search paths", _deepest_paths(events, top)),
        ("per-worker utilization", _worker_timeline(events)),
    )
    for title, lines in sections:
        print(f"\n{title}:")
        if lines:
            print("\n".join(lines))
        else:
            print("  (none)")
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def validate_chrome(payload: object) -> list[str]:
    """Schema violations in a Chrome trace-event JSON payload ([] = valid)."""
    errors: list[str] = []
    if not isinstance(payload, dict):
        return ["top level is not a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["'traceEvents' missing or not a list"]
    for i, e in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(e, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = e.get("ph")
        if ph not in _CHROME_PHASES:
            errors.append(f"{where}: bad phase {ph!r}")
            continue
        for field in ("name", "pid", "tid"):
            if field not in e:
                errors.append(f"{where}: missing {field!r}")
        if ph == "X":
            if not isinstance(e.get("ts"), (int, float)):
                errors.append(f"{where}: complete event without numeric 'ts'")
            if not isinstance(e.get("dur"), (int, float)) or e.get("dur", 0) < 0:
                errors.append(f"{where}: complete event without nonnegative 'dur'")
        if ph == "i" and e.get("s") not in ("t", "p", "g"):
            errors.append(f"{where}: instant event without scope 's'")
        if len(errors) >= 20:
            errors.append("... (further errors suppressed)")
            break
    return errors


def cmd_validate(path: Path) -> int:
    try:
        text = path.read_text()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 1
    try:
        payload = json.loads(text)
    except ValueError as exc:
        print(f"{path}: INVALID (not JSON: {exc})", file=sys.stderr)
        return 1
    errors = validate_chrome(payload)
    if errors:
        print(f"{path}: INVALID (chrome format)", file=sys.stderr)
        for err in errors:
            print(f"  {err}", file=sys.stderr)
        return 1
    print(f"{path}: OK (chrome format)")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Analyze traces recorded by 'stenso --trace'.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_summary = sub.add_parser(
        "summary", help="Hot stages, prune reasons, search depth, worker timeline."
    )
    p_summary.add_argument("trace", type=Path, help="trace.json")
    p_summary.add_argument(
        "--top", type=int, default=5, help="Rows per section (default: 5)."
    )
    p_validate = sub.add_parser("validate", help="Schema-check a trace file.")
    p_validate.add_argument("trace", type=Path, help="trace.json")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "summary":
        return cmd_summary(args.trace, args.top)
    return cmd_validate(args.trace)


if __name__ == "__main__":
    sys.exit(main())
