"""``stenso-lint`` — offline rule-soundness auditing.

Audits rewrite rules with the abstract-interpretation auditor
(:mod:`repro.analysis.audit`) and reports structured findings.  Three
sources of rules are supported:

* ``--catalog MOD[:ATTR]`` (default ``repro.rules.catalog:DISCOVERED_RULES``)
  — a Python module attribute holding rules.  When the module also defines
  ``AUDIT_WAIVERS``, those waivers are applied and reported.
* ``--journal PATH`` — a run journal (``journal.jsonl``); rules are re-mined
  from every *improved* kernel outcome and audited.
* ``--store DIR`` — a daemon state directory; same re-mining over every
  ``result`` entry of its request log (``DIR/requests.jsonl``).

Exit status is 1 when any audited rule has an unwaivered error-severity
finding, 0 otherwise.  ``--json PATH`` writes the full findings report
(written even on failure, so CI can always upload it as an artifact).
"""

from __future__ import annotations

import argparse
import ast
import importlib
import json
import sys
from pathlib import Path

from repro.analysis.audit import (
    POSITIVE_POLICY,
    STRICT_POLICY,
    AuditReport,
    AuditWaiver,
    RuleAuditor,
)
from repro.rules.mining import MinedRule, mine_rule

#: Prototype input shapes tried (in order) when re-mining a rule from
#: journaled sources, which do not record input types.  The first assignment
#: under which both sides parse and mine is used.
_CANDIDATE_SHAPES: tuple[tuple[int, ...], ...] = ((3, 3), (3,), (2, 3), (4, 4), ())

_POLICIES = {"strict": STRICT_POLICY, "positive": POSITIVE_POLICY}


def _input_names(source: str) -> list[str]:
    """Best-effort free input names of a kernel source (function or expr)."""
    tree = ast.parse(source.strip())
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return [a.arg for a in node.args.args]
    assigned = {
        t.id
        for n in ast.walk(tree)
        if isinstance(n, ast.Assign)
        for t in n.targets
        if isinstance(t, ast.Name)
    }
    names: list[str] = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id not in ("np", "numpy")
            and node.id not in assigned
            and node.id not in names
        ):
            names.append(node.id)
    return names


def _remine(name: str, original: str, optimized: str, notes: list[str]) -> MinedRule | None:
    """Reconstruct a MinedRule from an outcome's source pair, or None."""
    from repro.ir.parser import parse
    from repro.ir.types import float_tensor

    try:
        inputs = _input_names(original)
    except SyntaxError:
        notes.append(f"{name}: unparseable original source; skipped")
        return None
    for shape in _CANDIDATE_SHAPES:
        types = {n: float_tensor(*shape) for n in inputs}
        try:
            lhs = parse(original, types, name=name)
            rhs = parse(optimized, types, name=name)
            return mine_rule(lhs.node, rhs.node, name=name)
        except Exception:
            continue
    notes.append(f"{name}: no candidate input shapes type-check; skipped")
    return None


def _rules_from_outcomes(outcomes: list[dict], notes: list[str]) -> list[MinedRule]:
    rules: list[MinedRule] = []
    seen: set[MinedRule] = set()
    for outcome in outcomes:
        if not outcome.get("improved"):
            continue
        rule = _remine(
            outcome.get("name", "?"),
            outcome.get("original_source", ""),
            outcome.get("optimized_source", ""),
            notes,
        )
        if rule is not None and rule not in seen:
            seen.add(rule)
            rules.append(rule)
    return rules


def _load_catalog(spec: str, notes: list[str]) -> tuple[list[MinedRule], tuple[AuditWaiver, ...]]:
    module_name, _, attr = spec.partition(":")
    attr = attr or "DISCOVERED_RULES"
    module = importlib.import_module(module_name)
    rules = getattr(module, attr)
    waivers = tuple(getattr(module, "AUDIT_WAIVERS", ()))
    mined: list[MinedRule] = []
    for rule in rules:
        if isinstance(rule, MinedRule):
            mined.append(rule)
        else:
            notes.append(
                f"{getattr(rule, 'name', rule)!s}: not a finite MinedRule "
                "(pattern-function rules are not statically auditable); skipped"
            )
    return mined, waivers


def _load_log(path: Path, notes: list[str]) -> list[MinedRule]:
    """Rules re-mined from a run journal's ``kernel`` entries or a request
    log's ``result`` entries."""
    from repro.journal import read_entries

    entries, dropped = read_entries(path)
    if dropped:
        notes.append(f"{path.name}: {dropped} corrupt/torn line(s) dropped")
    outcomes = [
        e["outcome"]
        for e in entries
        if e.get("type") in ("kernel", "result") and e.get("outcome")
    ]
    return _rules_from_outcomes(outcomes, notes)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="stenso-lint",
        description="Audit rewrite-rule soundness with the abstract-interpretation analyzer.",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--catalog",
        metavar="MOD[:ATTR]",
        default=None,
        help="audit a rule catalog attribute (default repro.rules.catalog:DISCOVERED_RULES)",
    )
    source.add_argument(
        "--journal", metavar="PATH", help="re-mine and audit rules from a run journal"
    )
    source.add_argument(
        "--store",
        metavar="DIR",
        help="re-mine and audit rules from a daemon state dir's request log",
    )
    parser.add_argument(
        "--policy",
        choices=sorted(_POLICIES),
        default="strict",
        help="audit policy (default: strict — unrestricted input domain)",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write the findings report as JSON"
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="only print rejected rules"
    )
    args = parser.parse_args(argv)

    notes: list[str] = []
    waivers: tuple[AuditWaiver, ...] = ()
    if args.journal:
        rules = _load_log(Path(args.journal), notes)
        origin = f"journal {args.journal}"
    elif args.store:
        rules = _load_log(Path(args.store) / "requests.jsonl", notes)
        origin = f"store {args.store}"
    else:
        spec = args.catalog or "repro.rules.catalog:DISCOVERED_RULES"
        rules, waivers = _load_catalog(spec, notes)
        origin = f"catalog {spec}"

    auditor = RuleAuditor(_POLICIES[args.policy], waivers=waivers)
    reports: list[AuditReport] = [auditor.audit(rule) for rule in rules]
    rejected = [r for r in reports if not r.admitted]

    for report in reports:
        if report.admitted and args.quiet:
            continue
        print(report.render())
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    print(
        f"stenso-lint: {origin}: {len(reports)} rule(s) audited under "
        f"{args.policy} policy, {len(rejected)} rejected"
    )

    if args.json:
        payload = {
            "origin": origin,
            "policy": args.policy,
            "audited": len(reports),
            "rejected": len(rejected),
            "notes": notes,
            "reports": [r.as_dict() for r in reports],
        }
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")

    return 1 if rejected else 0


if __name__ == "__main__":
    raise SystemExit(main())
