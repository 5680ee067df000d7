"""The DFS memo never changes an answer: every search kernel with it and without it.

``_dfs`` memoises a node's best completion by the spec's canonical key, even
when the shared ``cost_min`` cut some of that node's sketches; a second path
reaching the same key under a looser prefix then reuses a result found under
a tighter bound.  The oracle is the search without the memo
(``CONFIGS["no_memo"]``) on the six suite kernels that reach SOLVE: the same
program at the same costs.  ``simplification_only`` cannot serve as the oracle
here — without branch-and-bound ``diag_dot`` and ``sum_diag_dot`` run into
the time cap.
"""

import pytest

from repro.bench.store import run_synthesis
from repro.bench.suite import get_benchmark

#: The suite kernels whose search goes past the base-case MATCH.
SEARCH_KERNELS = ("diag_dot", "sum_diag_dot", "synth_1", "synth_5", "synth_11", "synth_12")


def _outcome(record) -> tuple:
    return record.optimized_source, record.original_cost, record.optimized_cost


@pytest.mark.slow
def test_the_memo_never_changes_a_search_result():
    memo_hits = 0
    for name in SEARCH_KERNELS:
        bench = get_benchmark(name)
        memoised = run_synthesis(bench, "flops", "default")
        bare = run_synthesis(bench, "flops", "no_memo")
        assert _outcome(bare) == _outcome(memoised), name
        assert bare.stats["memo_hits"] == 0, name
        memo_hits += memoised.stats["memo_hits"]
    assert memo_hits > 0  # the memo did answer some nodes
