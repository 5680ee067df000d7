"""Content-addressed result store: fleet-wide dedup of identical kernels.

The daemon addresses finished synthesis results by *what was asked*, not by
request id:

    key = sha1(synthesis_fingerprint || kernel_key(spec))

``kernel_key`` covers the kernel's name, source, and input types;
``synthesis_fingerprint`` covers every semantic knob of the synthesis config
plus the cost model.  Two requests with the same key are the same problem —
the second one is served from the store without touching a worker.

The store is an in-memory index, not a second durable copy: the request
log's fsync'd ``result`` lines already are the durable record.  The daemon
fills the index as syntheses complete and rebuilds it at restart from the
logged results that ``readmit`` accepted, so every indexed outcome was
either produced by this process's pool or re-verified when it crossed the
process boundary.  Only ``status == "ok"`` outcomes are indexed: timeouts
and degraded results must be retried, not memoized.
"""

from __future__ import annotations

import hashlib

from repro.journal import kernel_key
from repro.pipeline import KernelOutcome, KernelSpec


def content_key(spec: KernelSpec, fingerprint: str) -> str:
    """The store address of one (kernel, synthesis-configuration) problem."""
    return hashlib.sha1(
        f"{fingerprint}||{kernel_key(spec)}".encode()
    ).hexdigest()


class ContentStore:
    """Map from content key to the synthesized ``ok`` outcome; a later
    ``put`` under the same key replaces the earlier one."""

    def __init__(self) -> None:
        self._outcomes: dict[str, KernelOutcome] = {}

    def get(self, key: str) -> KernelOutcome | None:
        """The indexed outcome for ``key``, or None on miss."""
        return self._outcomes.get(key)

    def put(self, key: str, outcome: KernelOutcome) -> bool:
        """Index one finished outcome.  Returns False (and stores nothing)
        for non-``ok`` outcomes."""
        if outcome.status != "ok":
            return False
        self._outcomes[key] = outcome
        return True
