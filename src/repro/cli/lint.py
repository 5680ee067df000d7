"""``stenso-lint`` — offline rule-soundness auditing.

Audits rewrite rules with the abstract-interpretation auditor
(:mod:`repro.analysis.audit`) and reports structured findings.  Three
sources of rules are supported:

* ``--catalog MOD[:ATTR]`` (default ``repro.rules.catalog:DISCOVERED_RULES``)
  — a Python module attribute holding rules.  When the module also defines
  ``AUDIT_WAIVERS``, those waivers are applied and reported.
* ``--journal PATH`` — a run journal (``journal.jsonl``): the rule each
  synthesized kernel outcome teaches, mined as the run mined it
  (:func:`repro.pipeline.synthesized_rule`, at the spec the line records).
* ``--store DIR`` — a daemon state directory; the same over every
  ``result`` entry of its request log (``DIR/requests.jsonl``), each with
  its ``request`` entry's spec.

A log written before kernel lines carried their spec has none to mine at;
such an outcome is skipped with a note.

Exit status is 1 when any audited rule has an unwaivered error-severity
finding, 0 otherwise.  ``--json PATH`` writes the full findings report
(written even on failure, so CI can always upload it as an artifact).
"""

from __future__ import annotations

import argparse
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
from repro.errors import StensoError
from repro.rules.mining import MinedRule

_POLICIES = {"strict": STRICT_POLICY, "positive": POSITIVE_POLICY}


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
    """The rules :meth:`~repro.pipeline.ModuleOptimizer.readmit` learns from
    a run journal's ``kernel`` lines or a request log's ``result`` entries:
    one per synthesized outcome, mined at its spec's synthesis types (a
    journal line carries its spec; a result takes its ``request``'s)."""
    from repro.journal import read_entries
    from repro.pipeline import KernelOutcome, spec_from_payload, synthesized_rule

    entries, dropped = read_entries(path)
    if dropped:
        notes.append(f"{path.name}: {dropped} corrupt/torn line(s) dropped")
    requested = {e.get("id"): e.get("spec") for e in entries if e.get("type") == "request"}
    rules: list[MinedRule] = []
    seen: set[str] = set()
    for entry in entries:
        kind, outcome = entry.get("type"), entry.get("outcome")
        if kind not in ("kernel", "result") or not outcome:
            continue
        if not outcome.get("improved") or outcome.get("via") != "synthesis":
            continue
        name = outcome.get("name", "?")
        spec = entry.get("spec") if kind == "kernel" else requested.get(entry.get("id"))
        if spec is None:
            notes.append(f"{name}: no recorded spec (written before logs carried one); skipped")
            continue
        try:
            rule = synthesized_rule(spec_from_payload(spec), KernelOutcome(**outcome))
        except (StensoError, TypeError) as exc:  # unparseable, or another outcome schema
            notes.append(f"{name}: {type(exc).__name__}: {exc}; skipped")
            continue
        if rule is not None and str(rule) not in seen:  # the rule cache's identity
            seen.add(str(rule))
            rules.append(rule)
    return rules


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
        "--journal",
        metavar="PATH",
        help="audit the rules a run journal's synthesized kernels teach",
    )
    source.add_argument(
        "--store",
        metavar="DIR",
        help="audit the rules a daemon state dir's request log teaches",
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
