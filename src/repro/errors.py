"""Exception hierarchy for the STENSO reproduction.

All library errors derive from :class:`StensoError` so that callers can catch
everything the library raises with a single ``except`` clause while still
being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class StensoError(Exception):
    """Base class for all errors raised by this library."""


class TypeInferenceError(StensoError):
    """An IR node could not be typed (shape mismatch, bad dtype, bad attrs)."""


class ParseError(StensoError):
    """The input Python source could not be translated into the tensor IR."""


class UnsupportedOpError(ParseError):
    """The input program uses an operation outside the supported IR op set."""


class SymbolicExecutionError(StensoError):
    """Symbolic execution of an IR program failed."""


class SynthesisTimeout(StensoError):
    """The synthesis search exceeded its wall-clock budget."""


class BudgetExhausted(SynthesisTimeout):
    """A non-time resource budget (e.g. solver calls) was exhausted.

    Subclasses :class:`SynthesisTimeout` so every graceful-degradation path
    that handles a deadline handles a spent budget identically.
    """


class CostModelError(StensoError):
    """A cost could not be estimated for a program or sketch."""


class BenchmarkError(StensoError):
    """A benchmark definition is malformed or failed to execute."""


class JournalError(StensoError):
    """A run journal is missing, locked by another run, or was recorded
    under a different synthesis configuration than the resuming one."""


class ServeError(StensoError):
    """A synthesis service operation failed (daemon unreachable, state dir
    locked by another daemon, request rejected, or a protocol error)."""


class WireError(ServeError):
    """A wire-protocol frame was malformed, truncated, or oversized.

    Raised by :func:`repro.serve.wire.recv_msg`; the daemon answers it with a
    structured ``{"ok": false, "error": ...}`` reply instead of letting a
    garbage frame kill the connection thread."""


class ShedError(ServeError):
    """The daemon refused admission under overload (queue bound or per-client
    cap).  ``retry_after_s`` is the daemon's estimate of when capacity frees
    up — clients should back off at least that long before resubmitting."""

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s
