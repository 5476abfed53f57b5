"""Asyncio transport for the frame protocol, plus the JSON front door.

The service speaks the same length-prefixed pickle frames as
:mod:`repro.campaign.protocol` — this module is the
``StreamReader``/``StreamWriter`` side of that protocol, sharing the
header layout, the handshake preamble and the max-frame-size guard with
the synchronous implementation so both ends enforce identical limits.

Request/response vocabulary (pickle mode), one tuple per frame:

* client → server: ``(op, request_id, payload)`` where ``op`` is
  ``"schedule"`` (payload: the request dict of
  :func:`repro.service.cache.SchedulerKey.from_payload` plus a
  ``"grid"`` bool array), ``"stats"`` or ``"ping"`` (payload ignored);
* server → client: ``("ok", request_id, result)`` or
  ``("error", request_id, message)``.

The JSON front door is newline-delimited JSON for non-Python clients:
one request object per line in, one response object per line out, with
schedules rendered through the stable
:func:`repro.aod.serialize.schedule_to_dict` format.
"""

from __future__ import annotations

import asyncio
import json
import pickle
import struct
from typing import Any

import numpy as np

from repro.aod.serialize import schedule_to_dict
from repro.campaign.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_MAGIC,
    PROTOCOL_VERSION,
)
from repro.errors import ConfigurationError

_HEADER = struct.Struct(">I")

#: Ceiling on one JSON front-door line (grids arrive as nested lists,
#: which are ~2 bytes per site — far below this for any real geometry).
MAX_JSON_LINE = 8 * 1024 * 1024


async def read_frame_async(
    reader: asyncio.StreamReader, max_bytes: int = MAX_FRAME_BYTES
) -> Any:
    """Async :func:`repro.campaign.protocol.read_frame` (None on EOF)."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise EOFError("truncated frame header") from exc
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise ConfigurationError(
            f"frame declares a {length}-byte payload, above the "
            f"{max_bytes}-byte limit — corrupt or non-protocol stream"
        )
    try:
        data = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise EOFError("truncated frame payload") from exc
    return pickle.loads(data)


async def write_frame_async(writer: asyncio.StreamWriter, payload: Any) -> None:
    """Async :func:`repro.campaign.protocol.write_frame` (drains)."""
    data = pickle.dumps(payload)
    writer.write(_HEADER.pack(len(data)))
    writer.write(data)
    await writer.drain()


async def read_handshake_async(
    reader: asyncio.StreamReader, first_byte: bytes
) -> Any:
    """Finish a handshake whose magic byte was already sniffed.

    The server reads one byte per connection to pick the protocol
    (magic → pickle frames, ``{`` → JSON lines); this consumes the
    version byte and the handshake frame that follow the magic.
    """
    if first_byte != bytes([PROTOCOL_MAGIC]):
        raise ConfigurationError(
            f"bad handshake magic 0x{first_byte[0]:02X} (expected "
            f"0x{PROTOCOL_MAGIC:02X}) — not a repro frame stream"
        )
    version_byte = await reader.readexactly(1)
    version = version_byte[0]
    if version != PROTOCOL_VERSION:
        raise ConfigurationError(
            f"unsupported protocol version {version} "
            f"(this side speaks {PROTOCOL_VERSION})"
        )
    return await read_frame_async(reader)


def decode_json_request(line: bytes) -> dict[str, Any]:
    """Parse one JSON front-door request line into the request dict.

    Accepted shapes::

        {"id": 7, "op": "stats"}
        {"id": 7, "op": "ping"}
        {"id": 7, "algorithm": "qrm", "size": 16, "grid": [[0, 1, ...]]}
        {"id": 7, "algorithm": "qrm",
         "geometry": {"width": 16, "height": 16,
                      "target_width": 8, "target_height": 8},
         "grid": [[0, 1, ...]]}
        {"id": 7, "algorithm": "qrm-repair", "size": 16,
         "mask": ["....", ".##.", ".##.", "...."],
         "grid": [[0, 1, ...]]}

    A ``"mask"`` (row strings of ``'#'`` target sites, or the
    ``/``-joined token form) names a non-rectangular target; it
    overrides any ``target`` extents, which are re-derived from the
    mask's bounding box.

    Returns ``{"op", "id", ...}`` with ``"geometry"`` normalised to a
    ``(width, height, target_width, target_height)`` tuple, ``"mask"``
    to a token string (when present) and ``"grid"`` to a bool array for
    schedule requests.

    Any failure after the object parses becomes a
    :class:`~repro.errors.ConfigurationError` carrying the request's
    ``id`` as ``exc.request_id``, so the error frame can still be
    correlated by the client.
    """
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid JSON request: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError("a JSON request must be an object")
    try:
        return _json_request(data)
    except Exception as exc:
        message = str(exc)
        if not isinstance(exc, ConfigurationError):
            message = f"{type(exc).__name__}: {message}"
        error = ConfigurationError(message)
        error.request_id = data.get("id")
        raise error from exc


def _json_request(data: dict[str, Any]) -> dict[str, Any]:
    op = data.get("op", "schedule")
    request = {"op": op, "id": data.get("id")}
    if op != "schedule":
        return request
    if "grid" not in data:
        raise ConfigurationError("a schedule request needs a 'grid'")
    grid = np.asarray(data["grid"], dtype=bool)
    mask_token: str | None = None
    raw_mask = data.get("mask")
    if raw_mask is not None:
        from repro.lattice.mask import TargetMask

        try:
            if isinstance(raw_mask, str):
                mask = TargetMask.from_token(raw_mask)
            else:
                mask = TargetMask.from_rows(list(raw_mask))
        except Exception as exc:
            raise ConfigurationError(f"bad mask: {exc}") from exc
        mask_token = mask.token()
    if raw_mask is not None and ("size" in data or "geometry" in data):
        # Target extents are the mask's bounding box by definition.
        if "size" in data:
            width = height = int(data["size"])
        else:
            geo = data["geometry"]
            try:
                width, height = int(geo["width"]), int(geo["height"])
            except (KeyError, TypeError) as exc:
                raise ConfigurationError("a JSON geometry needs width/height") from exc
        box = mask.bounding_box
        geometry = (width, height, box.width, box.height)
    elif "geometry" in data:
        geo = data["geometry"]
        try:
            geometry = (
                int(geo["width"]),
                int(geo["height"]),
                int(geo["target_width"]),
                int(geo["target_height"]),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(
                "a JSON geometry needs width/height/target_width/target_height"
            ) from exc
    elif "size" in data:
        from repro.lattice.geometry import ArrayGeometry

        square = ArrayGeometry.square(int(data["size"]), data.get("target"))
        geometry = (
            square.width,
            square.height,
            square.target_width,
            square.target_height,
        )
    else:
        raise ConfigurationError(
            "a schedule request needs either 'geometry' or 'size'"
        )
    request.update(
        geometry=geometry,
        algorithm=data.get("algorithm", "qrm"),
        params=data.get("params") or {},
        qrm=data.get("qrm"),
        grid=grid,
    )
    if mask_token is not None:
        request["mask"] = mask_token
    return request


def encode_json_response(request_id: Any, result: Any) -> bytes:
    """Render one schedule result as a JSON response line."""
    payload = {
        "id": request_id,
        "ok": True,
        "algorithm": result.algorithm,
        "moves": result.n_moves,
        "iterations": result.iterations_used,
        "converged": result.converged,
        "target_fill": result.target_fill_fraction,
        "defect_free": result.defect_free,
        "schedule": schedule_to_dict(result.schedule),
    }
    return json.dumps(payload, separators=(",", ":")).encode() + b"\n"


def encode_json_error(request_id: Any, message: str) -> bytes:
    return (
        json.dumps(
            {"id": request_id, "ok": False, "error": message},
            separators=(",", ":"),
        ).encode()
        + b"\n"
    )


def encode_json_value(request_id: Any, value: Any) -> bytes:
    """A non-schedule success response (stats, ping)."""
    return (
        json.dumps(
            {"id": request_id, "ok": True, "value": value},
            separators=(",", ":"),
        ).encode()
        + b"\n"
    )
