"""Process-wide counters for the analysis pre-screen.

Mirrors the pattern of :mod:`repro.symexec.fingerprint`'s counter bag: the
enumerator and base-case matcher bump flat process counters; the
superoptimizer snapshots them around each kernel and folds the delta into
that kernel's ``SearchStats``/metrics registry as ``analysis.*`` counters,
so parallel workers merge correctly through ``merge_snapshots``.
"""

from __future__ import annotations

COUNTERS: dict[str, int] = {
    "prescreen_checks": 0,  # candidate/spec pairs examined by the pre-screen
    "prescreen_pruned": 0,  # candidates discarded before symbolic/residue work
    "prescreen_undefined": 0,  # prunes due to provably-undefined candidates
}


def bump(name: str, n: int = 1) -> None:
    COUNTERS[name] = COUNTERS.get(name, 0) + n


def snapshot() -> dict[str, int]:
    return dict(COUNTERS)


def delta(base: dict[str, int]) -> dict[str, int]:
    return {k: v - base.get(k, 0) for k, v in COUNTERS.items() if v != base.get(k, 0)}
