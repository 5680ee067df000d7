"""Static analysis over the tensor IR: abstract interpretation, rule
soundness auditing, and synthesis pre-screening.

* :mod:`repro.analysis.domains` — the interval/sign/definedness domains.
* :mod:`repro.analysis.interp` — abstract interpreter over IR trees and
  SymPy entry expressions.
* :mod:`repro.analysis.audit` — the rule soundness auditor gating rule
  admission (see ``stenso-lint`` for the offline CLI).
* :mod:`repro.analysis.prescreen` — sound candidate pruning for the
  synthesis search, counted under ``analysis.*`` metrics.
"""

from repro.analysis.audit import (
    POSITIVE_POLICY,
    STRICT_POLICY,
    AuditFinding,
    AuditPolicy,
    AuditReport,
    AuditWaiver,
    RuleAuditor,
)
from repro.analysis.domains import AbstractValue, Hazard, Interval
from repro.analysis.interp import abstract_eval, expr_interval, node_hazards
from repro.analysis.prescreen import tensors_disjoint

__all__ = [
    "AbstractValue",
    "AuditFinding",
    "AuditPolicy",
    "AuditReport",
    "AuditWaiver",
    "Hazard",
    "Interval",
    "POSITIVE_POLICY",
    "RuleAuditor",
    "STRICT_POLICY",
    "abstract_eval",
    "expr_interval",
    "node_hazards",
    "tensors_disjoint",
]
