"""Symbolic execution of tensor IR programs (paper Section IV-A)."""

from repro.symexec.canonical import (
    canonical,
    canonical_key,
    cached_srepr,
    equivalent,
    equivalent_exprs,
)
from repro.symexec.engine import symbolic_execute
from repro.symexec.interning import TABLE as INTERN_TABLE
from repro.symexec.residues import compose, residue_key, tensor_residues
from repro.symexec.symtensor import (
    SymTensor,
    element_symbol,
    input_symbols_of,
    symbol_origin,
    symbols_by_input,
)

__all__ = [
    "INTERN_TABLE",
    "SymTensor",
    "cached_srepr",
    "canonical",
    "canonical_key",
    "compose",
    "element_symbol",
    "equivalent",
    "equivalent_exprs",
    "input_symbols_of",
    "residue_key",
    "symbol_origin",
    "symbolic_execute",
    "symbols_by_input",
    "tensor_residues",
]
