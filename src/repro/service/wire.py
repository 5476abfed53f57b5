"""The service's wire: typed binary frames, plus the JSON front door.

Python clients (:mod:`repro.service.client`) open a connection with a
two-byte preamble, :data:`SERVICE_MAGIC` then :data:`SERVICE_VERSION`,
and then exchange length-prefixed frames: a little-endian ``uint32``
payload length, then the payload.  Every payload opens with the same
9-byte prefix, a kind byte and a little-endian ``uint64`` request id
(:data:`NO_ID` for "none"), so a frame that fails to parse can still be
answered under its id.  Nothing on this port is ever unpickled; pickle
frames (:mod:`repro.campaign.protocol`) stay on the trusted
campaign-worker channel, and their magic byte is refused here.

Requests (client → server), by kind byte (:data:`OPS`):

* ``schedule``: a fixed header (grid rows, grid columns, key length as
  ``uint16``), the :class:`~repro.service.cache.SchedulerKey` payload as
  JSON (at most :func:`max_key_bytes` for the declared grid), and the
  occupancy grid as packed bits (``np.packbits``, row-major).  The
  declared site count is checked against :data:`MAX_SITES` and the bits
  length against the declared grid before anything is allocated;
* ``stats``, ``ping``, ``health``: no body.

Responses (server → client):

* :data:`RESULT`: one :class:`~repro.core.result.RearrangementResult`
  (:func:`encode_result`): a fixed header of its scalar fields and
  geometry, the algorithm names and mask token, the packed
  ``initial``/``final`` bits, the :class:`~repro.core.result.
  IterationStats` rows, and the schedule's :class:`~repro.aod.table.
  MoveTable` as fixed-width records with its tag string table.
  :func:`decode_result` builds a result whose schedule is backed by that
  table — no move object is built until someone iterates it;
* :data:`VALUE`: a JSON value (stats, ping, health);
* :data:`ERROR`: a UTF-8 message.

A malformed request raises :class:`WireError`, which carries the
request id when the prefix was readable.

The JSON front door is newline-delimited JSON for non-Python clients:
one request object per line in, one response object per line out, with
schedules rendered through the stable
:func:`repro.aod.serialize.schedule_to_dict` format.
"""

from __future__ import annotations

import asyncio
import json
import struct
from dataclasses import astuple
from typing import Any, BinaryIO

import numpy as np

from repro.aod.schedule import MoveSchedule
from repro.aod.serialize import schedule_to_dict
from repro.aod.table import MOVE_RECORD, SHIFT_RECORD, MoveTable
from repro.core.result import IterationStats, RearrangementResult
from repro.errors import ConfigurationError
from repro.lattice.array import AtomArray
from repro.lattice.geometry import ArrayGeometry
from repro.lattice.mask import TargetMask

#: First preamble byte of a typed-frame connection.  Distinct from the
#: pickle protocol's ``0xA7`` (which the service refuses) and, being
#: non-ASCII, from any text protocol.
SERVICE_MAGIC = 0xA8

#: Bump when the frame layout changes incompatibly.
SERVICE_VERSION = 1

#: The two bytes that open a typed-frame connection.
PREAMBLE = bytes((SERVICE_MAGIC, SERVICE_VERSION))

#: Request kinds, by name; the kind byte is the name's index + 1.
OPS = ("schedule", "stats", "ping", "health")
_OP_CODES = {op: code for code, op in enumerate(OPS, start=1)}

#: Response kinds.
RESULT, VALUE, ERROR = 0x81, 0x82, 0x83

#: The request id of a frame that has none (a connection-level error).
NO_ID = 2**64 - 1

#: Largest grid (rows x columns) a schedule request may declare.
MAX_SITES = 1 << 20

#: Ceiling on a request frame's payload: the largest grid's bits and a
#: mask token over it fit with room to spare.
MAX_REQUEST_BYTES = 4 * 1024 * 1024

#: Ceiling on a response frame's payload (results of the largest grids).
MAX_RESPONSE_BYTES = 64 * 1024 * 1024

#: Ceiling on one JSON front-door line (grids arrive as nested lists,
#: which are ~2 bytes per site — far below this for any real geometry).
MAX_JSON_LINE = 8 * 1024 * 1024

_LENGTH = struct.Struct("<I")
_PREFIX = struct.Struct("<BQ")
_REQUEST = struct.Struct("<HHH")
#: flags, width, height, target width, target height, analysis_ops,
#: wall_time_s, repair_moves, unresolved_defects, iterations, moves,
#: shifts, tags, then the byte lengths of the algorithm, the schedule's
#: algorithm and the mask token.
_RESULT = struct.Struct("<BHHHHqdIIIIIIHHI")
_CONVERGED = 1
_ITERATION_FIELDS = len(IterationStats.__dataclass_fields__)


class WireError(ConfigurationError):
    """A frame that does not parse; ``request_id`` is None if unreadable."""

    def __init__(self, message: str, request_id: int | None = None):
        super().__init__(message)
        self.request_id = request_id


def max_key_bytes(rows: int, cols: int) -> int:
    """Key JSON bound for a grid: the scalar fields plus a mask token."""
    return 1024 + rows * (cols + 1)


# -- framing -------------------------------------------------------------------


def _frame(kind: int, request_id: int | None, *parts: bytes) -> bytes:
    body = b"".join(parts)
    prefix = _PREFIX.pack(kind, NO_ID if request_id is None else request_id)
    return _LENGTH.pack(len(prefix) + len(body)) + prefix + body


def _prefix(payload: bytes) -> tuple[int, int | None]:
    """``(kind, request id)`` of a payload, or WireError if too short."""
    if len(payload) < _PREFIX.size:
        raise WireError(f"a {len(payload)}-byte frame is shorter than its prefix")
    kind, request_id = _PREFIX.unpack_from(payload)
    return kind, None if request_id == NO_ID else request_id


def _oversized(length: int, max_bytes: int, head: bytes) -> WireError:
    request_id = _prefix(head)[1] if len(head) >= _PREFIX.size else None
    return WireError(
        f"frame declares a {length}-byte payload, above the {max_bytes}-byte "
        "limit — corrupt or non-protocol stream",
        request_id,
    )


async def read_frame_async(
    reader: asyncio.StreamReader, max_bytes: int = MAX_REQUEST_BYTES
) -> bytes | None:
    """One frame's payload, or None on EOF at a frame boundary.

    A declared length above ``max_bytes`` raises :class:`WireError`
    (with the id, if the prefix arrived) before the payload is read.
    """
    try:
        header = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise EOFError("truncated frame header") from exc
    (length,) = _LENGTH.unpack(header)
    if length > max_bytes:
        head = await reader.read(_PREFIX.size)
        raise _oversized(length, max_bytes, head)
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise EOFError("truncated frame payload") from exc


def read_frame(stream: BinaryIO, max_bytes: int = MAX_RESPONSE_BYTES) -> bytes | None:
    """Blocking :func:`read_frame_async` over a binary file object."""
    header = stream.read(_LENGTH.size)
    if not header:
        return None
    if len(header) < _LENGTH.size:
        raise EOFError("truncated frame header")
    (length,) = _LENGTH.unpack(header)
    if length > max_bytes:
        raise _oversized(length, max_bytes, b"")
    payload = stream.read(length)
    if len(payload) < length:
        raise EOFError("truncated frame payload")
    return payload


async def read_preamble_async(reader: asyncio.StreamReader, first_byte: bytes) -> None:
    """Finish a preamble whose first byte was already sniffed."""
    if first_byte[0] != SERVICE_MAGIC:
        raise WireError(
            f"bad handshake magic 0x{first_byte[0]:02X} (expected "
            f"0x{SERVICE_MAGIC:02X}); the service speaks typed frames or "
            "JSON lines, never pickle"
        )
    version = (await reader.readexactly(1))[0]
    if version != SERVICE_VERSION:
        raise WireError(
            f"unsupported frame version {version} "
            f"(this side speaks {SERVICE_VERSION})"
        )


# -- requests --------------------------------------------------------------------


def encode_request(op: str, request_id: int, payload: Any = None) -> bytes:
    """One request frame; ``payload`` is a schedule request's dict: the
    :meth:`~repro.service.cache.SchedulerKey.to_payload` fields plus a
    ``"grid"`` bool array."""
    code = _OP_CODES.get(op)
    if code is None:
        raise WireError(f"unknown op {op!r}", request_id)
    if op != "schedule":
        return _frame(code, request_id)
    key = {name: value for name, value in payload.items() if name != "grid"}
    grid = np.asarray(payload["grid"], dtype=bool)
    if grid.ndim != 2:
        raise WireError(f"a grid must be 2-D, got shape {grid.shape}", request_id)
    try:
        key_json = json.dumps(key, separators=(",", ":")).encode()
    except (TypeError, ValueError) as exc:
        raise WireError(f"the scheduler key is not JSON: {exc}", request_id) from exc
    rows, cols = grid.shape
    try:
        header = _REQUEST.pack(rows, cols, len(key_json))
    except struct.error as exc:
        raise WireError(f"grid {rows}x{cols} or its key does not fit: {exc}") from exc
    return _frame(code, request_id, header, key_json, np.packbits(grid).tobytes())


def decode_request(payload: bytes) -> tuple[str, int | None, dict[str, Any] | None]:
    """``(op, request id, request dict or None)`` of a request payload.

    Raises :class:`WireError` (carrying the id when readable) for an
    unknown kind, a declared grid over :data:`MAX_SITES`, an oversized or
    unparsable key, or bits that disagree with the declared grid.
    """
    code, request_id = _prefix(payload)
    if not 1 <= code <= len(OPS):
        raise WireError(f"unknown op code {code}", request_id)
    op = OPS[code - 1]
    if op != "schedule":
        return op, request_id, None
    body = memoryview(payload)[_PREFIX.size :]
    if len(body) < _REQUEST.size:
        raise WireError("truncated schedule request header", request_id)
    rows, cols, key_len = _REQUEST.unpack_from(body)
    if rows * cols > MAX_SITES:
        raise WireError(
            f"a {rows}x{cols} grid exceeds the {MAX_SITES}-site limit", request_id
        )
    if key_len > max_key_bytes(rows, cols):
        raise WireError(
            f"a {key_len}-byte key exceeds the {max_key_bytes(rows, cols)}-byte "
            f"limit of a {rows}x{cols} grid",
            request_id,
        )
    bits = body[_REQUEST.size + key_len :]
    expected = (rows * cols + 7) // 8
    if len(body) < _REQUEST.size + key_len or len(bits) != expected:
        raise WireError(
            f"a {rows}x{cols} grid needs {expected} bytes of bits after its "
            f"{key_len}-byte key; the frame holds "
            f"{max(len(body) - _REQUEST.size - key_len, 0)}",
            request_id,
        )
    try:
        request = json.loads(bytes(body[_REQUEST.size : _REQUEST.size + key_len]))
    except (ValueError, RecursionError) as exc:
        raise WireError(f"invalid key JSON: {exc}", request_id) from exc
    if not isinstance(request, dict):
        raise WireError("the key JSON must be an object", request_id)
    request["grid"] = _unpack_grid(bits, rows, cols)
    return op, request_id, request


def _unpack_grid(packed, rows: int, cols: int) -> np.ndarray:
    bits = np.unpackbits(np.frombuffer(packed, np.uint8), count=rows * cols)
    return bits.reshape(rows, cols).view(bool)


# -- responses -------------------------------------------------------------------


def encode_value(request_id: int | None, value: Any) -> bytes:
    return _frame(VALUE, request_id, json.dumps(value).encode())


def encode_error(request_id: int | None, message: str) -> bytes:
    return _frame(ERROR, request_id, message.encode("utf-8", "replace"))


def encode_result(request_id: int | None, result: RearrangementResult) -> bytes:
    """One result frame (``pass_outcomes`` never travel).

    Raises :class:`WireError` or :class:`~repro.errors.MoveError` when a
    field does not fit its fixed width.
    """
    geometry = result.initial.geometry
    if result.final.geometry != geometry or result.schedule.geometry != geometry:
        raise WireError("a result's arrays and schedule disagree on the geometry")
    moves, shifts, tags = MoveTable.of(result.schedule).records()
    tag_bytes = [tag.encode() for tag in tags]
    tag_lengths = np.array([len(tag) for tag in tag_bytes], dtype=np.intp)
    if tag_lengths.size and tag_lengths.max() > 0xFFFF:
        raise WireError(f"a {tag_lengths.max()}-byte tag exceeds 65535 bytes")
    names = [
        result.algorithm.encode(),
        result.schedule.algorithm.encode(),
        b"" if geometry.mask is None else geometry.mask.token().encode(),
    ]
    iterations = [value for stats in result.iterations for value in astuple(stats)]
    try:
        header = _RESULT.pack(
            _CONVERGED if result.converged else 0,
            geometry.width,
            geometry.height,
            geometry.target_width,
            geometry.target_height,
            result.analysis_ops,
            result.wall_time_s,
            result.repair_moves,
            result.unresolved_defects,
            len(result.iterations),
            len(moves),
            len(shifts),
            len(tags),
            *map(len, names),
        )
        iteration_bytes = struct.pack(f"<{len(iterations)}q", *iterations)
    except struct.error as exc:
        raise WireError(f"a result field does not fit its width: {exc}") from exc
    return _frame(
        RESULT,
        request_id,
        header,
        *names,
        np.packbits(result.initial.grid).tobytes(),
        np.packbits(result.final.grid).tobytes(),
        iteration_bytes,
        moves.tobytes(),
        shifts.tobytes(),
        tag_lengths.astype("<u2").tobytes(),
        *tag_bytes,
    )


class _Cursor:
    """Bounds-checked reads through one payload."""

    def __init__(self, payload: bytes, offset: int):
        self.buffer = memoryview(payload)
        self.offset = offset

    def take(self, n: int) -> memoryview:
        end = self.offset + n
        if end > len(self.buffer):
            raise WireError(f"result frame truncated at byte {len(self.buffer)}")
        view = self.buffer[self.offset : end]
        self.offset = end
        return view

    def array(self, dtype, count: int) -> np.ndarray:
        dtype = np.dtype(dtype)
        return np.frombuffer(self.take(dtype.itemsize * count), dtype, count)


def decode_result(payload: bytes) -> RearrangementResult:
    """Inverse of :func:`encode_result`, schedule backed by its table."""
    cursor = _Cursor(payload, _PREFIX.size)
    (
        flags,
        width,
        height,
        target_width,
        target_height,
        analysis_ops,
        wall_time_s,
        repair_moves,
        unresolved_defects,
        n_iterations,
        n_moves,
        n_shifts,
        n_tags,
        *name_lengths,
    ) = _RESULT.unpack(cursor.take(_RESULT.size))
    algorithm, schedule_algorithm, token = (
        str(cursor.take(n), "utf-8") for n in name_lengths
    )
    mask = TargetMask.from_token(token) if token else None
    geometry = ArrayGeometry(width, height, target_width, target_height, mask=mask)
    n_bits = (width * height + 7) // 8
    initial = AtomArray(geometry, _unpack_grid(cursor.take(n_bits), height, width))
    final = AtomArray(geometry, _unpack_grid(cursor.take(n_bits), height, width))
    values = cursor.array("<i8", n_iterations * _ITERATION_FIELDS).tolist()
    iterations = [
        IterationStats(*values[i : i + _ITERATION_FIELDS])
        for i in range(0, len(values), _ITERATION_FIELDS)
    ]
    moves = cursor.array(MOVE_RECORD, n_moves)
    shifts = cursor.array(SHIFT_RECORD, n_shifts)
    tag_lengths = cursor.array("<u2", n_tags).tolist()
    tags = tuple(str(cursor.take(n), "utf-8") for n in tag_lengths)
    stray = len(cursor.buffer) - cursor.offset
    if stray:
        raise WireError(f"{stray} stray bytes after a result")
    table = MoveTable.from_records(moves, shifts, tags)
    return RearrangementResult(
        algorithm=algorithm,
        initial=initial,
        final=final,
        schedule=MoveSchedule.from_table(geometry, table, schedule_algorithm),
        iterations=iterations,
        converged=bool(flags & _CONVERGED),
        analysis_ops=analysis_ops,
        wall_time_s=wall_time_s,
        repair_moves=repair_moves,
        unresolved_defects=unresolved_defects,
    )


def decode_response(payload: bytes) -> tuple[str, int | None, Any]:
    """``("ok" | "error", request id, value)`` of a response payload.

    A result that fails to decode raises :class:`WireError` carrying its
    id, so only that request fails.
    """
    kind, request_id = _prefix(payload)
    body = payload[_PREFIX.size :]
    try:
        if kind == RESULT:
            return "ok", request_id, decode_result(payload)
        if kind == VALUE:
            return "ok", request_id, json.loads(body)
        if kind == ERROR:
            return "error", request_id, body.decode("utf-8", "replace")
    except WireError as exc:
        exc.request_id = request_id
        raise
    except Exception as exc:
        raise WireError(f"undecodable response: {exc}", request_id) from exc
    raise WireError(f"unknown response kind 0x{kind:02X}", request_id)


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
