"""Mining STENSO's discoveries into compiler rewrite rules (Section VII-D).

The paper argues STENSO is *complementary* to rule-based compilers: the
transformations it discovers from first principles can be extracted as
rewrite rules and added to conventional pass pipelines.  This example closes
that loop end to end:

1. superoptimize ``trace(A @ B.T)`` (the trace_dot benchmark);
2. mine the (original, optimized) pair into a metavariable rewrite rule;
3. put an equality-saturation pass with the mined rule in front of the
   stock simulated XLA compiler;
4. show the extended pipeline now optimizes a *different* program matching
   the same pattern — no further synthesis required.

Run:  python examples/rule_mining.py
"""

import dataclasses

import numpy as np

import repro
from repro.backends import XLASimBackend
from repro.cost import FlopsCostModel
from repro.egraph import optimize_with_rules
from repro.ir import float_tensor, parse, to_expression
from repro.rules import mine_rule

N = 96


def main() -> None:
    # 1. Superoptimize the benchmark program.
    source = "np.trace(A @ B.T)"
    result = repro.superoptimize(
        source,
        inputs={"A": float_tensor(N, N), "B": float_tensor(N, N)},
        cost_model="flops",
        name="trace_dot",
    )
    assert result.improved
    print(f"synthesized: {source}  ->  "
          f"{result.optimized_source.strip().splitlines()[-1].strip()}")

    # 2. Mine the pair into a rule over metavariables X, Y.
    original = result.program.node
    rule = mine_rule(original, result.optimized, name="trace-dot-mined")
    print(f"mined rule : {rule}")

    # 3. An e-graph pass with the mined rule, in front of the stock XLA-sim.
    stock = XLASimBackend()

    def extended(program):
        rewritten, _ = optimize_with_rules(program.node, [rule], FlopsCostModel())
        return dataclasses.replace(program, node=rewritten)

    # 4. A different program with the same shape of inefficiency — note the
    #    different size and input names; the rule is shape-polymorphic.
    program = parse(
        "np.trace(P @ Q.T)",
        {"P": float_tensor(256, 320), "Q": float_tensor(256, 320)},
        name="user_kernel",
    )
    before = stock.optimize(program.node)
    rewritten = extended(program)
    after = stock.optimize(rewritten.node)
    print(f"stock XLA-sim output   : {to_expression(before)}")
    print(f"extended XLA-sim output: {to_expression(after)}")
    assert before != after, "mined rule did not fire"

    # The rewritten graph is still correct.
    rng = np.random.default_rng(0)
    P, Q = rng.random((256, 320)), rng.random((256, 320))
    want = np.trace(P @ Q.T)
    got = stock.run(rewritten, {"P": P, "Q": Q})
    assert np.allclose(want, got)
    print(f"verified on random inputs: trace = {got:.4f}")


if __name__ == "__main__":
    main()
