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

Kernel specs cross the wire as plain JSON: each input is either a bare shape
list (``[3, 3]`` — float tensor, the common case) or an object
``{"dtype": "float", "shape": [3, 3]}`` for explicit dtypes.
"""

from __future__ import annotations

import json
from typing import Mapping

from repro.errors import WireError
from repro.pipeline import KernelSpec

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


def spec_to_payload(spec: KernelSpec) -> dict:
    inputs = {
        name: {"dtype": t.dtype.value, "shape": list(t.shape)}
        for name, t in spec.types.items()
    }
    return {"name": spec.name, "source": spec.source, "inputs": inputs}


def spec_from_payload(payload: Mapping) -> KernelSpec:
    from repro.ir.types import DType, TensorType

    try:
        raw_inputs = payload["inputs"]
        name = payload["name"]
        source = payload["source"]
    except (KeyError, TypeError) as exc:
        raise WireError(f"kernel spec payload is missing {exc}") from exc
    inputs = {}
    for in_name, t in raw_inputs.items():
        if isinstance(t, Mapping):
            inputs[in_name] = TensorType(DType(t["dtype"]), tuple(t["shape"]))
        else:
            inputs[in_name] = tuple(t)
    return KernelSpec(name=name, source=source, inputs=inputs)
