"""Structured logging shared across the STENSO pipeline.

``get_logger(__name__)`` returns a :class:`StructuredLogger` that logs an
*event* plus key=value fields instead of pre-formatted strings::

    log = get_logger(__name__)
    log.warning("journal torn write truncated", file=str(path), bytes=n)

In the default (human) mode this renders as::

    journal torn write truncated file=results/runs/r1/journal.jsonl bytes=17

With :func:`configure` ``(json_mode=True)`` (the CLI's ``--log-json`` flag)
every record becomes one JSON object per line — machine-parseable run
telemetry for log aggregation::

    {"event": "journal torn write truncated", "level": "warning", ...}

The wrapper sits on top of stdlib :mod:`logging` (same logger names, same
level filtering, same handler routing), so existing ``caplog``-style capture
and host-application configuration keep working.
"""

from __future__ import annotations

import json
import logging
import sys
import time

_JSON_MODE = False


class StructuredLogger:
    """Thin event+fields front-end over a stdlib logger."""

    def __init__(self, logger: logging.Logger) -> None:
        self._logger = logger

    @property
    def stdlib(self) -> logging.Logger:
        return self._logger

    def _log(self, level: int, event: str, fields: dict) -> None:
        if not self._logger.isEnabledFor(level):
            return
        if _JSON_MODE:
            payload = {
                "ts": round(time.time(), 6),
                "level": logging.getLevelName(level).lower(),
                "logger": self._logger.name,
                "event": event,
            }
            payload.update(fields)
            try:
                msg = json.dumps(payload, sort_keys=True, default=str)
            except (TypeError, ValueError):
                msg = json.dumps({"event": event, "error": "unserializable fields"})
        else:
            parts = [event]
            parts.extend(f"{k}={v}" for k, v in fields.items())
            msg = " ".join(parts)
        self._logger.log(level, msg)

    def debug(self, event: str, **fields) -> None:
        self._log(logging.DEBUG, event, fields)

    def info(self, event: str, **fields) -> None:
        self._log(logging.INFO, event, fields)

    def warning(self, event: str, **fields) -> None:
        self._log(logging.WARNING, event, fields)

    def error(self, event: str, **fields) -> None:
        self._log(logging.ERROR, event, fields)


def get_logger(name: str) -> StructuredLogger:
    """A structured logger named like stdlib ``logging.getLogger(name)``."""
    return StructuredLogger(logging.getLogger(name))


def configure(
    json_mode: bool = False, level: int = logging.INFO, stream=None
) -> None:
    """Set up handler/format for the ``repro`` logger tree (CLI entry point).

    Library users never need this — loggers propagate to whatever the host
    application configured.  The CLI calls it so ``--log-json`` switches all
    pipeline logs (journal, caches, parallel driver, tracing) to one JSON
    object per line on stderr.
    """
    global _JSON_MODE
    _JSON_MODE = bool(json_mode)
    root = logging.getLogger("repro")
    root.setLevel(level)
    # Replace only handlers we installed earlier (idempotent reconfigure).
    for handler in list(root.handlers):
        if getattr(handler, "_stenso_obs", False):
            root.removeHandler(handler)
    handler = logging.StreamHandler(stream or sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    handler._stenso_obs = True  # type: ignore[attr-defined]
    root.addHandler(handler)
