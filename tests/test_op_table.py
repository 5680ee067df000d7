"""The op table: every op's row, column by column (``docs/ops.md``).

Each column of an :class:`~repro.ir.ops.OpSpec` row beyond typing and
evaluation is filled at import by the module that owns it.  A grammar op
with an empty cell needs a written reason here; the table is rendered to
``docs/ops.md``, which must match what this test renders.
"""

from pathlib import Path

import repro.analysis.interp  # noqa: F401 - fills ``transfer``
import repro.ir.printer  # noqa: F401 - fills ``spelling``
import repro.symexec.engine  # noqa: F401 - fills ``symbolic``
import repro.symexec.residues  # noqa: F401 - fills ``battery``
import repro.synth.enumerator  # noqa: F401 - fills ``boolean_trigger``
import repro.synth.solver  # noqa: F401 - fills ``inverse`` and ``normalizes``
from repro.cost import FlopsCostModel
from repro.ir import float_tensor, parse
from repro.ir.ops import OpSpec, all_ops, grammar_ops
from repro.synth import SynthesisConfig
from repro.synth.enumerator import StubEnumerator

DOC = Path(__file__).resolve().parents[1] / "docs" / "ops.md"

COLUMNS = ("symbolic", "battery", "inverse", "transfer", "boolean_trigger", "spelling")

#: What an empty cell means where it is the column's rule, not a gap.
EMPTY_MEANS = {
    "symbolic": "NumPy's `eval` runs on SymPy entries as it is",
    "boolean_trigger": "the op does not turn the boolean grammar on",
}

#: Why a grammar op has no entry in a column that is otherwise its rule.
NO_ENTRY = {
    ("sqrt", "battery"): "an irrational value has no residue battery; weak bucket and canonical key",
    ("less", "battery"): "a boolean value has no residue battery; weak bucket and canonical key",
    ("where", "battery"): "a `Piecewise` value has no residue battery; weak bucket and canonical key",
    ("triu", "battery"): "not mirrored: built only with the boolean grammar, its stubs are executed",
    ("tril", "battery"): "not mirrored: built only with the boolean grammar, its stubs are executed",
    ("less", "inverse"): "synthesizing a condition is out of scope (so is `where` at position 0)",
}


def _spelled(spec: OpSpec) -> str:
    """The row's spelling over operands ``a``, ``b``, ``c``."""
    spelling = spec.spelling
    names = "abc"
    if spelling.infix:
        return f"`a {spelling.infix} b`"
    if spelling.subscript:
        return "`a[i]`"
    parts = []
    for param in spelling.params:
        if isinstance(param, int):
            parts.append(names[param])
        elif param == "*":
            parts.append("[a, ...]")
        elif param in spelling.optional:
            parts.append(f"{param}={spelling.optional[param]}")
        else:
            parts.append(param)
    aliases = "".join(f", `np.{alias}`" for alias in spelling.aliases)
    return f"`{spec.numpy_name}({', '.join(parts)})`{aliases}"


def _cell(spec: OpSpec, column: str) -> str:
    value = getattr(spec, column)
    if value is None:
        if spec.in_grammar and (spec.name, column) in NO_ENTRY:
            return f"— ({list(NO_ENTRY).index((spec.name, column)) + 1})"
        return "eval" if column == "symbolic" else ""
    if column == "inverse":
        return "normalizes" if spec.normalizes else "moves entries"
    if column == "spelling":
        return _spelled(spec)
    return "✓"


def render() -> str:
    """``docs/ops.md``: the 28 rows, then the reasons and counts."""
    head = ("op", "grammar") + COLUMNS
    lines = [
        "# The op table",
        "",
        "Generated by `tests/test_op_table.py` from `repro.ir.ops`; do not edit.",
        "Each column is filled at import by the module that owns it (DESIGN.md",
        "decision 34): `symbolic` by `repro.symexec.engine`, `battery` by",
        "`repro.symexec.residues`, `inverse` by `repro.synth.solver`, `transfer`",
        "by `repro.analysis.interp`, `boolean_trigger` by `repro.synth.enumerator`",
        "and `spelling` by `repro.ir.printer`.",
        "",
        "| " + " | ".join(head) + " |",
        "|" + "---|" * len(head),
    ]
    for spec in all_ops():
        cells = [f"`{spec.name}`", "✓" if spec.in_grammar else ""]
        cells += [_cell(spec, column) for column in COLUMNS]
        lines.append("| " + " | ".join(cells) + " |")
    lines += ["", "Empty cells where the empty cell is the column's rule:", ""]
    lines += [f"* `{column}`: {meaning}." for column, meaning in EMPTY_MEANS.items()]
    lines += ["", "Grammar ops without an entry:", ""]
    lines += [
        f"{i}. `{op}` `{column}`: {reason}."
        for i, ((op, column), reason) in enumerate(NO_ENTRY.items(), 1)
    ]
    counts = ", ".join(
        f"{sum(getattr(spec, column) is not None for spec in all_ops())} `{column}`"
        for column in COLUMNS
    )
    lines += ["", f"Filled cells of {len(all_ops())} ops: {counts}.", ""]
    return "\n".join(lines)


def test_every_grammar_cell_is_filled_or_has_a_reason():
    print("\n" + render())
    for spec in grammar_ops():
        for column in COLUMNS:
            if getattr(spec, column) is None:
                assert column in EMPTY_MEANS or (spec.name, column) in NO_ENTRY, (spec.name, column)
    for op, column in NO_ENTRY:  # a reason outlives no filled cell
        assert getattr(next(s for s in grammar_ops() if s.name == op), column) is None, (op, column)
    assert all(spec.transfer is not None and spec.spelling is not None for spec in all_ops())


def test_docs_ops_md_is_the_rendered_table():
    text = render()
    if not DOC.exists() or DOC.read_text() != text:
        DOC.write_text(text)
        raise AssertionError(f"{DOC} was stale and is rewritten: commit it")


def test_grow_emits_exactly_the_grammar():
    """With the boolean grammar on, the ops ``_grow`` builds over two levels
    are the grammar ops: ``in_grammar`` and the enumerator say the same."""
    emitted: set[str] = set()

    class Recording(StubEnumerator):
        def _grow(self):
            for node in super()._grow():
                emitted.add(node.op)
                yield node

    types = {"A": float_tensor(2, 2), "B": float_tensor(2, 2)}
    program = parse("np.maximum(A, B) + 2.0", types)
    enumerator = Recording(program, SynthesisConfig(max_depth=2), FlopsCostModel())
    assert enumerator.enable_boolean
    enumerator.enumerate()
    assert emitted == {spec.name for spec in grammar_ops()}
