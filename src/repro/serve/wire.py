"""JSON-lines wire protocol shared by the daemon and its clients.

Every message is one JSON object per ``\\n``-terminated line over a Unix
domain socket.  Client requests carry an ``op``; daemon replies carry
``ok: true`` plus op-specific fields, or ``ok: false`` with ``error``.

The codec is hardened against hostile or broken peers: a frame is bounded
by :data:`MAX_FRAME_BYTES`, and an oversized, truncated, or non-JSON frame
raises :class:`~repro.errors.WireError` instead of an arbitrary exception —
the daemon turns that into a structured error reply, so one garbage client
can never take down a connection thread (and a slow-loris half-frame is
bounded by the server's per-connection read timeout, not held forever).

Kernel specs cross the wire in the form :func:`repro.pipeline.spec_to_payload`
writes (the request log and the run journal store the same form).
"""

from __future__ import annotations

import json
from typing import Mapping

from repro.errors import WireError
from repro.pipeline import spec_from_payload, spec_to_payload  # noqa: F401

#: Upper bound on one accepted frame.  Outcomes carry kernel sources — a few
#: KB in practice; 4 MiB leaves three orders of magnitude of headroom while
#: keeping a garbage firehose from ballooning a connection thread's memory.
MAX_FRAME_BYTES = 4 * 1024 * 1024


def send_msg(sock, payload: Mapping) -> None:
    sock.sendall(json.dumps(payload).encode() + b"\n")


def recv_msg(file, max_bytes: int = MAX_FRAME_BYTES) -> dict | None:
    """Read one message from a socket makefile; None on clean EOF.

    Raises :class:`WireError` for an oversized frame (no newline within
    ``max_bytes``), a frame truncated by the peer mid-line, a line that is
    not valid JSON, or a JSON value that is not an object.
    """
    line = file.readline(max_bytes + 1)
    if not line:
        return None
    if not line.endswith("\n"):
        if len(line) > max_bytes:
            raise WireError(
                f"frame exceeds the {max_bytes}-byte bound; rejecting"
            )
        raise WireError("truncated frame: peer closed mid-message")
    try:
        msg = json.loads(line)
    except ValueError as exc:
        raise WireError(f"malformed JSON frame: {exc}") from exc
    if not isinstance(msg, dict):
        raise WireError(
            f"protocol messages must be JSON objects, got {type(msg).__name__}"
        )
    return msg
