"""Looking inside symbolic execution: the target specification Φ.

Section IV-A of the paper lowers the NumPy program to a loop-level
representation and executes it on SymPy symbols; what it needs from that is
one SymPy expression per output entry.  ``symbolic_execute`` produces those
expressions straight from each op's rule (DESIGN.md decision 28).  This
example shows them for the diag_dot kernel:

1. Φ per entry for ``np.diag(np.dot(A, B))``;
2. Φ equals the spec of the rewritten program STENSO discovers, which is the
   whole reason the rewrite is sound.

Run:  python examples/symbolic_spec.py
"""

from repro.ir import float_tensor, parse
from repro.symexec import equivalent, symbolic_execute

TYPES = {"A": float_tensor(2, 3), "B": float_tensor(3, 2)}


def main() -> None:
    program = parse("np.diag(np.dot(A, B))", TYPES, name="diag_dot")

    spec = symbolic_execute(program.node)
    print("1. symbolic execution of diag_dot (the target spec Phi):")
    for i, entry in enumerate(spec.entries()):
        print(f"   phi[{i}] = {entry}")

    rewritten = parse("np.sum(A * np.transpose(B), axis=1)", TYPES)
    print(
        "\n2. equals the spec of sum(A * B.T, axis=1): "
        f"{equivalent(spec, symbolic_execute(rewritten.node))}"
    )


if __name__ == "__main__":
    main()
