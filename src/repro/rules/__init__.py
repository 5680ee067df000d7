"""Rewrite-rule mining and the catalog of STENSO-discovered rules."""

from repro.rules.catalog import (
    DIAG_IDENTITY,
    DISCOVERED_RULES,
    DIV_SQRT,
    POW2_TO_MUL,
    POW_NEG1_TO_DIV,
    TRACE_DOT_IDENTITY,
)
from repro.rules.mining import MinedRule, mine_rule

__all__ = [
    "DIAG_IDENTITY",
    "DISCOVERED_RULES",
    "DIV_SQRT",
    "MinedRule",
    "POW2_TO_MUL",
    "POW_NEG1_TO_DIV",
    "TRACE_DOT_IDENTITY",
    "mine_rule",
]
