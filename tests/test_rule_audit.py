"""Tests for the rule-soundness auditor and its admission gates.

Covers the shipped catalog (clean under the strict policy with its declared
waivers), a battery of deliberately unsound rules the auditor must reject
with structured diagnoses, the strict/positive policy duality, the pipeline
and e-graph admission gates, and the ``stenso-lint`` CLI.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis import (
    POSITIVE_POLICY,
    STRICT_POLICY,
    AuditWaiver,
    RuleAuditor,
)
from repro.cli.lint import main as lint_main
from repro.cost import FlopsCostModel
from repro.ir.nodes import Call, Const, Input
from repro.ir.types import float_tensor
from repro.journal import encode_line
from repro.rules.catalog import AUDIT_WAIVERS, DISCOVERED_RULES, DIV_SQRT
from repro.rules.mining import MinedRule, mine_rule

X = Input("X", float_tensor(3))
Y = Input("Y", float_tensor(3))
XM = Input("X", float_tensor(3, 3))


def _strict(waivers=()):
    return RuleAuditor(STRICT_POLICY, waivers=waivers)


def _positive(waivers=()):
    return RuleAuditor(POSITIVE_POLICY, waivers=waivers)


# ---------------------------------------------------------------------------
# The shipped catalog
# ---------------------------------------------------------------------------


class TestShippedCatalog:
    def test_all_rules_admit_under_strict_with_waivers(self):
        auditor = _strict(AUDIT_WAIVERS)
        for rule in DISCOVERED_RULES:
            admitted, report = auditor.admit(rule)
            assert admitted, report.render()

    def test_all_rules_admit_under_positive(self):
        auditor = _positive()
        for rule in DISCOVERED_RULES:
            admitted, report = auditor.admit(rule)
            assert admitted, report.render()

    def test_div_sqrt_needs_its_waiver_under_strict(self):
        # Without the waiver, the strict policy flags the domain extension
        # (X/sqrt(X) undefined at 0, sqrt(X) defined) as an error.
        admitted, report = _strict().admit(DIV_SQRT)
        assert not admitted
        assert [f.code for f in report.errors] == ["definedness-narrowing"]
        # The shipped waiver converts exactly that finding.
        admitted, report = _strict(AUDIT_WAIVERS).admit(DIV_SQRT)
        assert admitted
        assert [f.code for f in report.waived] == ["definedness-narrowing"]
        assert report.waiver_reasons and "positive" in report.waiver_reasons[0]


# ---------------------------------------------------------------------------
# Deliberately unsound rules: each must be rejected with the right diagnosis
# ---------------------------------------------------------------------------


class TestUnsoundBattery:
    def test_metavariable_escape(self):
        rule = MinedRule("escape", lhs=Call("sqrt", (X,)), rhs=Call("add", (X, Y)))
        admitted, report = _strict().admit(rule)
        assert not admitted
        assert "metavar-escape" in {f.code for f in report.errors}
        # Structural unsoundness is policy-independent.
        assert not _positive().admit(rule)[0]

    def test_shape_change(self):
        rule = MinedRule("reshape", lhs=Call("add", (X, Y)), rhs=Call("sum", (X,)))
        admitted, report = _strict().admit(rule)
        assert not admitted
        assert "type-mismatch" in {f.code for f in report.errors}

    def test_wrong_value(self):
        rule = MinedRule("double", lhs=Call("add", (X, Y)), rhs=Call("multiply", (X, Y)))
        admitted, report = _strict().admit(rule)
        assert not admitted
        assert "not-equivalent" in {f.code for f in report.errors}
        assert not _positive().admit(rule)[0]

    def test_wrong_value_has_witness(self):
        rule = MinedRule("off-by-one", lhs=X, rhs=Call("add", (X, Const(1.0))))
        _, report = _strict().admit(rule)
        bad = [f for f in report.errors if f.code == "not-equivalent"]
        assert bad and bad[0].witness  # concrete inputs included

    def test_definedness_regression(self):
        # X -> sqrt(X)*sqrt(X) introduces a hazard the lhs lacks; under the
        # strict policy it is also simply wrong for negative X.
        rule = MinedRule(
            "sqrt-intro", lhs=X, rhs=Call("multiply", (Call("sqrt", (X,)), Call("sqrt", (X,))))
        )
        admitted, report = _strict().admit(rule)
        assert not admitted
        assert "definedness-regression" in {f.code for f in report.errors}
        # Over the positive domain both sides are total and equal: admitted.
        assert _positive().admit(rule)[0]

    def test_div_self_policy_duality(self):
        # x/x -> 1 narrows definedness (lhs undefined at 0).  The rhs must be
        # a shape-matched ones tensor so the structural layer does not mask
        # the definedness check.
        rule = MinedRule("div-self", lhs=Call("divide", (X, X)), rhs=Const(np.ones(3)))
        admitted, report = _strict().admit(rule)
        assert not admitted
        assert "definedness-narrowing" in {f.code for f in report.errors}
        assert _positive().admit(rule)[0]

    def test_abs_drop_policy_duality(self):
        rule = MinedRule("abs-drop", lhs=Call("abs", (X,)), rhs=X)
        admitted, report = _strict().admit(rule)
        assert not admitted  # wrong for negative X
        assert "not-equivalent" in {f.code for f in report.errors}
        assert _positive().admit(rule)[0]  # identity on positives

    def test_range_disjoint(self):
        rule = MinedRule(
            "shift", lhs=Call("exp", (X,)), rhs=Call("negative", (Call("exp", (X,)),))
        )
        admitted, report = _strict().admit(rule)
        assert not admitted
        codes = {f.code for f in report.errors}
        assert "range-disjoint" in codes or "not-equivalent" in codes


# ---------------------------------------------------------------------------
# Admission gates: pipeline rule cache and e-graph saturation feed
# ---------------------------------------------------------------------------


class TestAdmissionGates:
    def test_absorb_rule_rejects_unsound(self):
        from repro.pipeline import ModuleOptimizer

        opt = ModuleOptimizer(auditor=_strict(AUDIT_WAIVERS))
        bad = MinedRule("double", lhs=Call("add", (X, Y)), rhs=Call("multiply", (X, Y)))
        assert opt.absorb_rule(bad) == "rejected"
        assert bad not in opt.rules
        assert opt.audit_rejections and opt.audit_rejections[-1].rule_name == "double"

    def test_absorb_rule_admits_catalog_and_dedupes(self):
        from repro.pipeline import ModuleOptimizer

        opt = ModuleOptimizer()
        assert opt.absorb_rule(DIV_SQRT) == "admitted"
        assert opt.absorb_rule(DIV_SQRT) == "duplicate"
        assert opt.rules == [DIV_SQRT]

    def test_seed_rules_are_audited(self):
        from repro.pipeline import ModuleOptimizer

        bad = MinedRule("double", lhs=Call("add", (X, Y)), rhs=Call("multiply", (X, Y)))
        opt = ModuleOptimizer(rules=[DIV_SQRT, bad])
        assert DIV_SQRT in opt.rules
        assert bad not in opt.rules
        assert [r.rule_name for r in opt.audit_rejections] == ["double"]

    def test_egraph_feed_filters_unsound_rules(self):
        from repro.egraph import optimize_with_rules

        # An unsound doubling rule would rewrite X+Y into X*Y, whose flops
        # cost ties; make it strictly cheaper by mapping to a single input.
        bad = MinedRule("collapse", lhs=Call("add", (X, Y)), rhs=X)
        node = Call("add", (X, Y))
        best, _ = optimize_with_rules(
            node, [bad], FlopsCostModel(), auditor=_strict()
        )
        assert best == node  # the unsound rule never entered saturation
        best_unaudited, _ = optimize_with_rules(node, [bad], FlopsCostModel())
        assert best_unaudited == X  # without the gate it corrupts the result

    def test_mined_rule_from_synthesis_admits_under_positive(self):
        original = Call("exp", (Call("log", (Call("add", (XM, Input("Y", float_tensor(3, 3)))),)),))
        optimized = Call("add", (XM, Input("Y", float_tensor(3, 3))))
        rule = mine_rule(original, optimized, name="exp-log")
        assert _positive().admit(rule)[0]
        # Strict policy correctly notes the domain extension (log needs > 0).
        admitted, report = _strict().admit(rule)
        assert not admitted
        assert "definedness-narrowing" in {f.code for f in report.errors}


# ---------------------------------------------------------------------------
# stenso-lint CLI
# ---------------------------------------------------------------------------


def _write_journal(tmp_path, outcomes):
    lines = [
        encode_line(
            {"type": "header", "version": 1, "run_id": "t", "fingerprint": "x", "created_at": 0.0}
        )
    ]
    for i, outcome in enumerate(outcomes):
        lines.append(
            encode_line({"type": "kernel", "key": f"k{i}", "name": outcome["name"], "outcome": outcome})
        )
    file = tmp_path / "journal.jsonl"
    file.write_text("\n".join(lines) + "\n")
    return file


_EXP_LOG_OUTCOME = {
    "name": "exp_log",
    "improved": True,
    "via": "synthesis",
    "original_source": "np.exp(np.log(A + B))",
    "optimized_source": "(A + B)",
    "original_cost": 3.0,
    "optimized_cost": 1.0,
}


class TestLintCLI:
    def test_catalog_strict_passes(self, tmp_path, capsys):
        out = tmp_path / "findings.json"
        assert lint_main(["--policy", "strict", "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["audited"] == len(DISCOVERED_RULES)
        assert payload["rejected"] == 0
        by_name = {r["rule_name"]: r for r in payload["reports"]}
        assert by_name["div-sqrt"]["waived"], "div-sqrt waiver must be recorded"
        stdout = capsys.readouterr().out
        assert "0 rejected" in stdout

    def test_journal_mode_policy_duality(self, tmp_path):
        journal = _write_journal(tmp_path, [_EXP_LOG_OUTCOME])
        # exp(log(x)) -> x extends the domain: strict rejects, positive admits.
        assert lint_main(["--journal", str(journal), "--policy", "strict"]) == 1
        assert lint_main(["--journal", str(journal), "--policy", "positive"]) == 0

    def test_journal_mode_skips_unimproved_and_unparseable(self, tmp_path, capsys):
        outcomes = [
            dict(_EXP_LOG_OUTCOME, improved=False),
            {
                "name": "mystery",
                "improved": True,
                "via": "synthesis",
                "original_source": "np.einsum('ij,jk->ik', A, B)",
                "optimized_source": "np.dot(A, B)",
                "original_cost": 2.0,
                "optimized_cost": 1.0,
            },
        ]
        journal = _write_journal(tmp_path, outcomes)
        assert lint_main(["--journal", str(journal), "--policy", "strict"]) == 0
        err = capsys.readouterr().err
        assert "mystery" in err and "skipped" in err

    def test_store_mode(self, tmp_path):
        # A daemon state dir: the result entries of its request log.
        lines = [
            encode_line({"type": "serve-log", "version": 1, "fingerprint": "x"}),
            encode_line({"type": "request", "id": "r1", "spec": {}}),
            encode_line(
                {"type": "result", "id": "r1", "served_from": "synthesis",
                 "outcome": _EXP_LOG_OUTCOME}
            ),
        ]
        (tmp_path / "requests.jsonl").write_text("\n".join(lines) + "\n")
        assert lint_main(["--store", str(tmp_path), "--policy", "positive"]) == 0
        assert lint_main(["--store", str(tmp_path), "--policy", "strict"]) == 1

    def test_json_written_even_on_failure(self, tmp_path):
        journal = _write_journal(tmp_path, [_EXP_LOG_OUTCOME])
        out = tmp_path / "findings.json"
        assert lint_main(["--journal", str(journal), "--json", str(out)]) == 1
        payload = json.loads(out.read_text())
        assert payload["rejected"] == 1
        codes = {
            f["code"] for r in payload["reports"] for f in r["findings"]
        }
        assert "definedness-narrowing" in codes


# ---------------------------------------------------------------------------
# Waiver semantics
# ---------------------------------------------------------------------------


class TestWaivers:
    def test_waiver_is_rule_and_code_scoped(self):
        waiver = AuditWaiver(
            rule_name="abs-drop", codes=("not-equivalent",), reason="test only"
        )
        rule = MinedRule("abs-drop", lhs=Call("abs", (X,)), rhs=X)
        admitted, report = _strict((waiver,)).admit(rule)
        assert admitted
        assert [f.code for f in report.waived] == ["not-equivalent"]
        # The same waiver does not leak onto other rules.
        other = MinedRule("double", lhs=Call("add", (X, Y)), rhs=Call("multiply", (X, Y)))
        assert not _strict((waiver,)).admit(other)[0]

    def test_unrelated_code_not_waived(self):
        waiver = AuditWaiver(
            rule_name="div-self", codes=("not-equivalent",), reason="wrong code"
        )
        rule = MinedRule("div-self", lhs=Call("divide", (X, X)), rhs=Const(np.ones(3)))
        admitted, report = _strict((waiver,)).admit(rule)
        assert not admitted
        assert "definedness-narrowing" in {f.code for f in report.errors}


@pytest.mark.parametrize("rule", DISCOVERED_RULES, ids=lambda r: r.name)
def test_each_catalog_rule_audits_quickly(rule):
    # The finding cache makes repeat audits (the pipeline's steady state) free.
    auditor = _positive()
    first = auditor.audit(rule)
    second = auditor.audit(rule)
    assert first.findings == second.findings
