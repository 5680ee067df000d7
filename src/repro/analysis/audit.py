"""Rule soundness auditor: a static gate in front of every rewrite rule.

A :class:`~repro.rules.mining.MinedRule` is *sound* (as a refinement) when
for every input on which the left-hand side is defined, the right-hand side
is defined and equal.  The auditor checks this layer by layer:

1. **Structural** — metavariable capture/escape (the rhs may only mention
   lhs metavariables), and shape/dtype well-formedness of both sides.
2. **Abstract** — both sides are run through the abstract interpreter over
   the policy's input box; provably disjoint value hulls, definedness
   *regressions* (hazards the rhs has but the lhs does not), and
   definedness *narrowings* (lhs hazards the rhs lacks — the rewrite
   silently extends the domain) become findings.
3. **Counterexample search** — concrete probe batteries through
   ``ir.evaluator`` and the symbolic ``equivalent()`` check (residue
   batteries first), each of which can only *refute* equivalence and
   therefore yields sound evidence in every policy.

Two policies ship.  ``STRICT`` audits over all of R (signed and zero
probes; definedness narrowing is an error) — the right lens for a shared,
fleet-wide catalog.  ``POSITIVE`` audits over the strictly positive
domain of the verifier's random draws (probes in ``[1/2, 2]``; narrowing
demotes to a warning) — the admission gate for rules mined from verified
synthesis results.  Its probes are not :mod:`repro.verify`'s: every kernel
the rule cache rewrites is still re-checked there, adversarial battery
included.

Reports are cached process-wide per ``(rule, policy)``: rules are frozen
and hashable, and mined rules recur across kernels, workers, and requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.analysis.domains import POSITIVE, TOP
from repro.analysis.interp import abstract_eval
from repro.ir.evaluator import evaluate
from repro.ir.types import DType

if TYPE_CHECKING:  # pragma: no cover - typing only; a module-level import
    # would close the cycle audit -> rules.mining -> rules.catalog -> audit.
    from repro.rules.mining import MinedRule
from repro.symexec.canonical import equivalent
from repro.symexec.engine import symbolic_execute

__all__ = [
    "AuditFinding",
    "AuditPolicy",
    "AuditReport",
    "AuditWaiver",
    "RuleAuditor",
    "POSITIVE_POLICY",
    "STRICT_POLICY",
]

_RTOL = 1e-6
_ATOL = 1e-9


@dataclass(frozen=True)
class AuditPolicy:
    """Input domain and severity conventions for one audit run."""

    name: str
    input_box: Interval
    fills: tuple[float, ...]
    random_low: float
    random_high: float
    narrowing_severity: str  # severity of definedness-narrowing findings


STRICT_POLICY = AuditPolicy(
    name="strict",
    input_box=TOP,
    fills=(-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0),
    random_low=-2.0,
    random_high=2.0,
    narrowing_severity="error",
)

POSITIVE_POLICY = AuditPolicy(
    name="positive",
    input_box=POSITIVE,
    fills=(0.5, 1.0, 2.0),
    random_low=0.5,
    random_high=2.0,
    narrowing_severity="warning",
)


@dataclass(frozen=True)
class AuditFinding:
    """One structured diagnosis about a rule."""

    code: str  # not-equivalent | metavar-escape | type-mismatch |
    #            range-disjoint | definedness-regression |
    #            definedness-narrowing | uncheckable
    severity: str  # "error" | "warning"
    message: str
    witness: tuple[tuple[str, str], ...] = ()

    def as_dict(self) -> dict:
        out = {"code": self.code, "severity": self.severity, "message": self.message}
        if self.witness:
            out["witness"] = dict(self.witness)
        return out


@dataclass(frozen=True)
class AuditWaiver:
    """An explicit, documented acceptance of specific findings on a rule."""

    rule_name: str
    codes: tuple[str, ...]
    reason: str

    def matches(self, rule_name: str, finding: AuditFinding) -> bool:
        return rule_name == self.rule_name and finding.code in self.codes


@dataclass(frozen=True)
class AuditReport:
    """Audit outcome of one rule under one policy."""

    rule_name: str
    rule: str
    policy: str
    findings: tuple[AuditFinding, ...] = ()
    waived: tuple[AuditFinding, ...] = ()
    waiver_reasons: tuple[str, ...] = ()

    @property
    def errors(self) -> tuple[AuditFinding, ...]:
        return tuple(f for f in self.findings if f.severity == "error")

    @property
    def admitted(self) -> bool:
        return not self.errors

    def as_dict(self) -> dict:
        return {
            "rule_name": self.rule_name,
            "rule": self.rule,
            "policy": self.policy,
            "admitted": self.admitted,
            "findings": [f.as_dict() for f in self.findings],
            "waived": [f.as_dict() for f in self.waived],
            "waiver_reasons": list(self.waiver_reasons),
        }

    def render(self) -> str:
        status = "ok" if self.admitted else "REJECTED"
        lines = [f"{self.rule_name}: {status}  [{self.rule}]  (policy={self.policy})"]
        for f in self.findings:
            lines.append(f"  {f.severity}: {f.code}: {f.message}")
            for key, value in f.witness:
                lines.append(f"      {key} = {value}")
        for f, reason in zip(self.waived, self.waiver_reasons):
            lines.append(f"  waived: {f.code}: {reason}")
        return "\n".join(lines)


def _render_array(arr: np.ndarray) -> str:
    flat = np.asarray(arr).reshape(-1)
    if flat.size > 9:
        return f"array{np.asarray(arr).shape}"
    return np.array2string(np.asarray(arr), precision=4, separator=", ")


def _probe_envs(rule: MinedRule, policy: AuditPolicy) -> Iterable[dict[str, np.ndarray]]:
    """Deterministic concrete input batteries for the rule's prototypes."""
    inputs = {i.name: i.type for i in rule.lhs.inputs()}
    for fill in policy.fills:
        yield {
            name: (
                np.full(t.shape, fill % 2 == 0)
                if t.dtype is DType.BOOL
                else np.full(t.shape, fill)
            )
            for name, t in inputs.items()
        }
    rng = np.random.default_rng(20260809)
    for _ in range(3):
        yield {
            name: (
                rng.random(t.shape) < 0.5
                if t.dtype is DType.BOOL
                else rng.uniform(policy.random_low, policy.random_high, t.shape)
            )
            for name, t in inputs.items()
        }


def _defined(value: np.ndarray | None) -> bool:
    if value is None:
        return False
    return bool(np.isfinite(np.asarray(value, dtype=np.float64)).all())


def _evaluate(node, env: Mapping[str, np.ndarray]) -> np.ndarray | None:
    try:
        with np.errstate(all="ignore"):
            out = np.asarray(evaluate(node, env), dtype=np.float64)
    except Exception:
        return None
    return out


def _witness(env: Mapping[str, np.ndarray], lhs_val, rhs_val) -> tuple[tuple[str, str], ...]:
    parts = [(name, _render_array(arr)) for name, arr in sorted(env.items())]
    parts.append(("lhs", "undefined" if lhs_val is None else _render_array(lhs_val)))
    parts.append(("rhs", "undefined" if rhs_val is None else _render_array(rhs_val)))
    return tuple(parts)


def _audit_findings(rule: MinedRule, policy: AuditPolicy) -> tuple[AuditFinding, ...]:
    findings: list[AuditFinding] = []

    # -- structural: metavariable capture/escape and well-formedness --------
    lhs_inputs = {i.name: i.type for i in rule.lhs.inputs()}
    rhs_inputs = {i.name: i.type for i in rule.rhs.inputs()}
    escaped = sorted(set(rhs_inputs) - set(lhs_inputs))
    if escaped:
        findings.append(
            AuditFinding(
                code="metavar-escape",
                severity="error",
                message=(
                    f"rhs references metavariable(s) {', '.join(escaped)} that the "
                    "lhs never binds; applying the rule would materialize "
                    "unbound inputs"
                ),
            )
        )
    for name, rhs_type in sorted(rhs_inputs.items()):
        lhs_type = lhs_inputs.get(name)
        if lhs_type is not None and lhs_type != rhs_type:
            findings.append(
                AuditFinding(
                    code="type-mismatch",
                    severity="error",
                    message=(
                        f"metavariable {name} is {lhs_type} on the lhs but "
                        f"{rhs_type} on the rhs"
                    ),
                )
            )
    if rule.lhs.type != rule.rhs.type:
        findings.append(
            AuditFinding(
                code="type-mismatch",
                severity="error",
                message=(
                    f"rule changes the value type: lhs is {rule.lhs.type}, "
                    f"rhs is {rule.rhs.type}"
                ),
            )
        )
    if any(f.severity == "error" for f in findings):
        return _dedup(findings)  # deeper checks need a well-formed rule

    # -- abstract: interval hulls and definedness hazards -------------------
    lhs_av = abstract_eval(rule.lhs, default=policy.input_box)
    rhs_av = abstract_eval(rule.rhs, default=policy.input_box)
    if lhs_av.range.disjoint(rhs_av.range, margin=1e-9):
        findings.append(
            AuditFinding(
                code="range-disjoint",
                severity="error",
                message=(
                    f"abstract value hulls cannot intersect: lhs in "
                    f"{lhs_av.range}, rhs in {rhs_av.range} over the "
                    f"{policy.name} input box"
                ),
            )
        )
    regression = rhs_av.hazards - lhs_av.hazards
    if regression:
        names = ", ".join(sorted(h.value for h in regression))
        findings.append(
            AuditFinding(
                code="definedness-regression",
                severity="error",
                message=(
                    f"rhs introduces definedness hazard(s) the lhs does not "
                    f"have: {names}"
                ),
            )
        )
    narrowing = lhs_av.hazards - rhs_av.hazards
    if narrowing:
        names = ", ".join(sorted(h.value for h in narrowing))
        findings.append(
            AuditFinding(
                code="definedness-narrowing",
                severity=policy.narrowing_severity,
                message=(
                    f"lhs has definedness hazard(s) the rhs lacks ({names}): "
                    "the rewrite silently extends the domain where the "
                    "program is defined"
                ),
            )
        )

    # -- concrete counterexample search -------------------------------------
    for env in _probe_envs(rule, policy):
        lhs_val = _evaluate(rule.lhs, env)
        rhs_val = _evaluate(rule.rhs, env)
        l_def, r_def = _defined(lhs_val), _defined(rhs_val)
        if l_def and r_def:
            if not np.allclose(lhs_val, rhs_val, rtol=_RTOL, atol=_ATOL):
                findings.append(
                    AuditFinding(
                        code="not-equivalent",
                        severity="error",
                        message="concrete probe refutes equivalence",
                        witness=_witness(env, lhs_val, rhs_val),
                    )
                )
        elif l_def and not r_def:
            findings.append(
                AuditFinding(
                    code="definedness-regression",
                    severity="error",
                    message="rhs is undefined on an input where the lhs is defined",
                    witness=_witness(env, lhs_val, rhs_val),
                )
            )
        elif r_def and not l_def:
            findings.append(
                AuditFinding(
                    code="definedness-narrowing",
                    severity=policy.narrowing_severity,
                    message="lhs is undefined on an input where the rhs is defined",
                    witness=_witness(env, lhs_val, rhs_val),
                )
            )

    # -- symbolic counterexample search -------------------------------------
    # An ``equivalent() == False`` verdict (its first tier is the residue
    # batteries) is sound inequivalence evidence under every policy: it
    # refutes equality on an open subset of the positive domain, and the
    # rule language is analytic there.
    try:
        lhs_sym = symbolic_execute(rule.lhs)
        rhs_sym = symbolic_execute(rule.rhs)
    except Exception as exc:
        findings.append(
            AuditFinding(
                code="uncheckable",
                severity="warning",
                message=f"symbolic execution of the rule failed: {exc!r}",
            )
        )
        return _dedup(findings)
    try:
        if not equivalent(lhs_sym, rhs_sym):
            findings.append(
                AuditFinding(
                    code="not-equivalent",
                    severity="error",
                    message="symbolic equivalence check refutes the rule",
                )
            )
    except Exception as exc:
        findings.append(
            AuditFinding(
                code="uncheckable",
                severity="warning",
                message=f"symbolic equivalence check failed: {exc!r}",
            )
        )
    return _dedup(findings)


def _dedup(findings: Sequence[AuditFinding]) -> tuple[AuditFinding, ...]:
    """Keep the first finding (with its witness) per (code, severity)."""
    seen: set[tuple[str, str]] = set()
    out: list[AuditFinding] = []
    for f in findings:
        key = (f.code, f.severity)
        if key not in seen:
            seen.add(key)
            out.append(f)
    return tuple(out)


#: Process-wide raw-finding cache: rules are frozen and recur across
#: kernels, workers, and serve requests, so each (rule, policy) pair is
#: audited once per process.
_FINDING_CACHE: dict[tuple[MinedRule, str], tuple[AuditFinding, ...]] = {}


class RuleAuditor:
    """Audits rules under a policy and applies waivers to the verdict."""

    def __init__(
        self,
        policy: AuditPolicy = POSITIVE_POLICY,
        waivers: Sequence[AuditWaiver] = (),
    ) -> None:
        self.policy = policy
        self.waivers = tuple(waivers)

    def audit(self, rule: MinedRule) -> AuditReport:
        key = (rule, self.policy.name)
        findings = _FINDING_CACHE.get(key)
        if findings is None:
            findings = _audit_findings(rule, self.policy)
            _FINDING_CACHE[key] = findings
        live: list[AuditFinding] = []
        waived: list[AuditFinding] = []
        reasons: list[str] = []
        for f in findings:
            waiver = next(
                (w for w in self.waivers if w.matches(rule.name, f)), None
            )
            if waiver is not None:
                waived.append(f)
                reasons.append(waiver.reason)
            else:
                live.append(f)
        return AuditReport(
            rule_name=rule.name,
            rule=str(rule),
            policy=self.policy.name,
            findings=tuple(live),
            waived=tuple(waived),
            waiver_reasons=tuple(reasons),
        )

    def admit(self, rule: MinedRule) -> tuple[bool, AuditReport]:
        report = self.audit(rule)
        return report.admitted, report
