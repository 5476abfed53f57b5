"""The service's typed frames: round trips, ingress limits and fuzzing.

Round-trip equivalence (in the :mod:`tests.oracles` style): over
geometry x mask x fill x loss seeds, and QRM, QRM+repair, Tetris and
PSCA results, ``decode_result(encode_result(result))`` equals the local
result field by field — ``schedule_to_dict``, moves and tags, grids,
iterations and scalars — and its schedule is backed by the decoded
:class:`~repro.aod.table.MoveTable`.  Both schedule kinds still pickle.

Ingress: request decoding refuses oversized geometries, bits that
disagree with the declared grid, oversized or garbage keys and unknown
op codes with a :class:`~repro.service.wire.WireError` that carries the
request id.  A live wire-fuzz property then throws random and mutated
frames, interleaved with valid ones and JSON lines, at a running server:
every frame with a readable id is answered under that id, and a valid
request afterwards still succeeds.  A pickle stream is refused unread.
"""

from __future__ import annotations

import json
import os
import pickle
import socket
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import assert_moves_identical, atom_arrays, masked_atom_arrays

from repro.aod.move import LineShift, ParallelMove
from repro.aod.schedule import MoveSchedule
from repro.aod.serialize import schedule_to_dict
from repro.aod.table import MoveTable
from repro.baselines.base import get_algorithm
from repro.campaign.protocol import PROTOCOL_MAGIC, PROTOCOL_VERSION
from repro.config import QrmParameters
from repro.core.qrm import QrmScheduler
from repro.core.result import RearrangementResult
from repro.errors import MoveError
from repro.lattice.geometry import ArrayGeometry, Direction
from repro.lattice.loading import load_uniform
from repro.service import SchedulerKey, serve_in_thread
from repro.service.wire import (
    MAX_SITES,
    PREAMBLE,
    WireError,
    decode_request,
    decode_response,
    decode_result,
    encode_request,
    encode_result,
)

#: Scheduler families whose results must survive the wire alike.
ALGORITHMS = ("qrm", "qrm+repair", "tetris", "psca")

#: Examples of the live fuzz property; CI raises it.
FUZZ_EXAMPLES = int(os.environ.get("REPRO_WIRE_FUZZ_EXAMPLES", "25"))

_LENGTH = struct.Struct("<I")
_PREFIX = struct.Struct("<BQ")


def scheduler_for(algorithm: str, geometry: ArrayGeometry):
    if algorithm == "qrm+repair":
        return QrmScheduler(geometry, QrmParameters(enable_repair=True))
    return get_algorithm(algorithm, geometry)


@st.composite
def scheduled_results(draw) -> RearrangementResult:
    """One algorithm's result; QRM variants also draw masked targets."""
    algorithm = draw(st.sampled_from(ALGORITHMS))
    if algorithm.startswith("qrm") and draw(st.booleans()):
        array = draw(masked_atom_arrays())
    else:
        array = draw(atom_arrays())
    result = scheduler_for(algorithm, array.geometry).schedule(array)
    result.pass_outcomes = []
    return result


def payload_of(frame: bytes) -> bytes:
    (length,) = _LENGTH.unpack_from(frame)
    assert len(frame) == _LENGTH.size + length
    return frame[_LENGTH.size :]


def round_trip(result: RearrangementResult, request_id: int = 7):
    frame = encode_result(request_id, result)
    status, got_id, decoded = decode_response(payload_of(frame))
    assert (status, got_id) == ("ok", request_id)
    return decoded


def assert_round_trip_identical(ours: RearrangementResult, local: RearrangementResult):
    __tracebackhide__ = True
    assert ours.schedule.table is not None, "decoded schedule is not table-backed"
    assert MoveTable.of(ours.schedule) is ours.schedule.table
    assert schedule_to_dict(ours.schedule) == schedule_to_dict(local.schedule)
    assert_moves_identical(ours.schedule, local.schedule)
    assert len(ours.schedule) == len(local.schedule)
    assert ours.schedule == local.schedule and local.schedule == ours.schedule
    assert ours.schedule.algorithm == local.schedule.algorithm
    assert ours.schedule.geometry == local.schedule.geometry
    assert ours.initial.geometry == local.initial.geometry
    assert np.array_equal(ours.initial.grid, local.initial.grid)
    assert np.array_equal(ours.final.grid, local.final.grid)
    assert ours.iterations == local.iterations
    for name in (
        "algorithm",
        "converged",
        "analysis_ops",
        "wall_time_s",
        "repair_moves",
        "unresolved_defects",
        "pass_outcomes",
    ):
        assert getattr(ours, name) == getattr(local, name), name


# ---------------------------------------------------------------------------
# Round-trip equivalence
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(scheduled_results())
def test_result_round_trip_is_identical(result):
    assert_round_trip_identical(round_trip(result), result)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_result_round_trip_at_64(algorithm):
    geometry = ArrayGeometry.square(64)
    result = scheduler_for(algorithm, geometry).schedule(
        load_uniform(geometry, 0.5, rng=3)
    )
    result.pass_outcomes = []
    assert_round_trip_identical(round_trip(result), result)


@settings(max_examples=30, deadline=None)
@given(scheduled_results())
def test_both_schedule_kinds_pickle(result):
    decoded = round_trip(result)
    for schedule in (result.schedule, decoded.schedule):
        copy = pickle.loads(pickle.dumps(schedule))
        assert (copy.table is None) == (schedule.table is None)
        assert copy == result.schedule
        assert_moves_identical(copy, result.schedule)
    assert_round_trip_identical(pickle.loads(pickle.dumps(decoded)), result)


def test_table_backed_schedule_builds_moves_on_demand():
    geometry = ArrayGeometry.square(16)
    local = get_algorithm("qrm", geometry).schedule(load_uniform(geometry, 0.5, rng=1))
    schedule = round_trip(local).schedule
    assert schedule[0] == local.schedule[0]
    assert schedule[-1] == local.schedule[-1]
    assert schedule[1:4] == local.schedule[1:4]
    with pytest.raises(IndexError):
        schedule[len(schedule)]
    assert schedule.n_line_shifts == local.schedule.n_line_shifts
    assert schedule.summary() == local.schedule.summary()
    assert list(schedule) == list(local.schedule)
    # Iteration and indexing leave the schedule table-backed...
    assert schedule.table is not None
    # ...reading `moves` (or appending) turns it into an object schedule.
    schedule.append(local.schedule[0])
    assert schedule.table is None
    assert schedule.moves == local.schedule.moves + [local.schedule[0]]


def test_qrm_64_result_frame_is_small():
    geometry = ArrayGeometry.square(64)
    result = get_algorithm("qrm", geometry).schedule(load_uniform(geometry, 0.5, rng=0))
    result.pass_outcomes = []
    assert len(encode_result(0, result)) <= 32 * 1024


def test_a_value_that_does_not_fit_its_field_raises():
    geometry = ArrayGeometry.square(8)
    array = load_uniform(geometry, 0.5, rng=0)
    shift = LineShift(Direction.EAST, 0, 0, 1, steps=70_000)
    schedule = MoveSchedule(geometry, "hand", [ParallelMove.of([shift])])
    result = RearrangementResult("hand", array, array.copy(), schedule)
    with pytest.raises(MoveError, match="steps"):
        encode_result(0, result)


# ---------------------------------------------------------------------------
# Request decoding and ingress limits
# ---------------------------------------------------------------------------


def schedule_payload(geometry: ArrayGeometry, rng: int = 0) -> dict:
    payload = SchedulerKey(
        geometry=(
            geometry.width,
            geometry.height,
            geometry.target_width,
            geometry.target_height,
        )
    ).to_payload()
    payload["grid"] = load_uniform(geometry, 0.5, rng=rng).grid
    return payload


def test_request_round_trip():
    payload = schedule_payload(ArrayGeometry.square(10))
    frame = encode_request("schedule", 42, payload)
    op, request_id, decoded = decode_request(payload_of(frame))
    assert (op, request_id) == ("schedule", 42)
    assert np.array_equal(decoded.pop("grid"), payload.pop("grid"))
    assert SchedulerKey.from_payload(decoded) == SchedulerKey.from_payload(payload)
    for op in ("stats", "ping", "health"):
        assert decode_request(payload_of(encode_request(op, 3))) == (op, 3, None)


def schedule_frame(request_id: int, rows: int, cols: int, key: bytes, bits: bytes):
    """A schedule request payload, assembled field by field."""
    header = struct.pack("<HHH", rows, cols, len(key))
    return _PREFIX.pack(1, request_id) + header + key + bits


KEY = json.dumps(SchedulerKey(geometry=(8, 8, 4, 4)).to_payload()).encode()


@pytest.mark.parametrize(
    "frame, message",
    [
        (schedule_frame(5, 2048, 2048, KEY, b""), "site limit"),
        (schedule_frame(5, 8, 8, KEY, bytes(7)), "needs 8 bytes"),
        (schedule_frame(5, 8, 8, KEY, bytes(9)), "needs 8 bytes"),
        (schedule_frame(5, 8, 8, b"x" * 2000, bytes(8)), "key exceeds"),
        (schedule_frame(5, 8, 8, b"{" * len(KEY), bytes(8)), "invalid key JSON"),
        (schedule_frame(5, 8, 8, b"[1, 2]", bytes(8)), "must be an object"),
        (_PREFIX.pack(1, 5) + b"\x01", "truncated"),
        (_PREFIX.pack(99, 5), "unknown op code"),
    ],
)
def test_malformed_requests_raise_with_their_id(frame, message):
    with pytest.raises(WireError, match=message) as info:
        decode_request(frame)
    assert info.value.request_id == 5


def test_a_frame_shorter_than_its_prefix_has_no_id():
    with pytest.raises(WireError) as info:
        decode_request(b"\x01\x00")
    assert info.value.request_id is None


def test_oversized_geometry_is_refused_before_allocation():
    side = int(MAX_SITES**0.5) + 2
    with pytest.raises(WireError, match="site limit"):
        decode_request(schedule_frame(1, side, side, KEY, b""))


# ---------------------------------------------------------------------------
# Live server: refusal of pickle, and the wire-fuzz property
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def server():
    with serve_in_thread(batch_window=0.002) as thread:
        yield thread


def read_payload(stream) -> bytes | None:
    header = stream.read(_LENGTH.size)
    if len(header) < _LENGTH.size:
        return None
    (length,) = _LENGTH.unpack(header)
    return stream.read(length)


class _Marker:
    """Unpickling this creates ``path``: the side effect must never happen."""

    def __init__(self, path: str):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


def test_pickle_stream_is_refused_unread(server, tmp_path):
    marker = tmp_path / "unpickled"
    data = pickle.dumps(_Marker(str(marker)))
    stream_bytes = (
        bytes((PROTOCOL_MAGIC, PROTOCOL_VERSION))
        + struct.pack(">I", len(data))
        + data
    )
    with socket.create_connection(server.address, timeout=5.0) as sock:
        with sock.makefile("rwb") as stream:
            stream.write(stream_bytes + struct.pack(">I", len(data)) + data)
            stream.flush()
            payload = read_payload(stream)
            assert read_payload(stream) is None  # then the server hangs up
    status, request_id, message = decode_response(payload)
    assert (status, request_id) == ("error", None)
    assert "pickle" in message
    time.sleep(0.1)
    assert not marker.exists()
    with socket.create_connection(server.address, timeout=5.0) as sock:
        with sock.makefile("rwb") as stream:
            stream.write(PREAMBLE + encode_request("ping", 1))
            stream.flush()
            assert decode_response(read_payload(stream)) == ("ok", 1, "pong")


GEOMETRY = ArrayGeometry.square(8)
GRID = load_uniform(GEOMETRY, 0.5, rng=0).grid

#: Arbitrary JSON values, for keys that parse but may not make sense.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
KEY_FIELDS = ("geometry", "algorithm", "params", "qrm", "mask")
MUTATIONS = (
    "valid",
    "op",
    "truncated",
    "key_len",
    "geometry",
    "key",
    "json_key",
    "bits",
    "random",
)


def valid_payload(request_id: int) -> bytes:
    payload = schedule_payload(GEOMETRY, request_id)
    return payload_of(encode_request("schedule", request_id, payload))


@st.composite
def typed_frames(draw, request_id: int) -> tuple[bytes, int | None]:
    """One length-prefixed frame and the id its answer must carry."""
    payload = valid_payload(request_id)
    head, fields = payload[: _PREFIX.size], payload[_PREFIX.size :]
    kind = draw(st.sampled_from(MUTATIONS))
    if kind == "op":
        op = draw(st.sampled_from(("stats", "ping", "health")))
        payload = payload_of(encode_request(op, request_id))
    elif kind == "truncated":
        payload = payload[: draw(st.integers(0, len(payload) - 1))]
    elif kind == "key_len":
        key_len = struct.pack("<H", draw(st.integers(0, 0xFFFF)))
        payload = head + fields[:4] + key_len + fields[6:]
    elif kind == "geometry":
        rows, cols = draw(st.integers(0, 0xFFFF)), draw(st.integers(0, 0xFFFF))
        payload = head + struct.pack("<HH", rows, cols) + fields[4:]
    elif kind == "key":
        (key_len,) = struct.unpack_from("<H", fields, 4)
        garbage = draw(st.binary(min_size=key_len, max_size=key_len))
        payload = head + fields[:6] + garbage + fields[6 + key_len :]
    elif kind == "json_key":
        key = SchedulerKey(geometry=(8, 8, 4, 4)).to_payload()
        fields = st.dictionaries(st.sampled_from(KEY_FIELDS), JSON_VALUES, max_size=3)
        key.update(draw(fields))
        bits = np.packbits(GRID).tobytes()
        payload = schedule_frame(request_id, 8, 8, json.dumps(key).encode(), bits)
    elif kind == "bits":
        if draw(st.booleans()):
            payload += draw(st.binary(min_size=1, max_size=3))
        else:
            payload = payload[:-1]
    elif kind == "random":
        code = draw(st.integers(0, 255))
        payload = _PREFIX.pack(code, request_id) + draw(st.binary(max_size=64))
    readable = len(payload) >= _PREFIX.size
    return _LENGTH.pack(len(payload)) + payload, request_id if readable else None


@st.composite
def json_lines(draw, request_id: int) -> bytes:
    grid = GRID.astype(int).tolist()
    schedule = {"id": request_id, "size": 8, "grid": grid}
    request = draw(
        st.sampled_from(
            (
                schedule,
                {"id": request_id, "op": "ping"},
                {"id": request_id, "op": "health"},
                {"id": request_id, "size": 8},
                {"id": request_id, "size": 8, "grid": [[1, 0], [1]]},
                {**schedule, "params": {"bogus": 1}},
                {**schedule, "params": [1]},
                {**schedule, "params": {"bogus": [1]}},
            )
        )
    )
    return json.dumps(request).encode() + b"\n"


@settings(max_examples=FUZZ_EXAMPLES, deadline=None)
@given(data=st.data())
def test_every_fuzzed_frame_is_answered_under_its_id(server, data):
    items = []
    for index in range(data.draw(st.integers(1, 8), label="frames")):
        if data.draw(st.booleans(), label="json?"):
            request_id = 1000 + index
            items.append(("json", data.draw(json_lines(request_id)), request_id))
        else:
            frame, expected = data.draw(typed_frames(index))
            items.append(("typed", frame, expected))
    typed = socket.create_connection(server.address, timeout=10.0)
    plain = socket.create_connection(server.address, timeout=10.0)
    with typed, plain, typed.makefile("rwb") as binary, plain.makefile("rwb") as text:
        binary.write(PREAMBLE)
        for kind, frame, _ in items:
            stream = binary if kind == "typed" else text
            stream.write(frame)
            stream.flush()
        final = valid_payload(999)
        binary.write(_LENGTH.pack(len(final)) + final)
        binary.flush()
        binary_ids = [e for kind, _, e in items if kind == "typed"] + [999]
        text_ids = [e for kind, _, e in items if kind == "json"]
        answers = [decode_response(read_payload(binary)) for _ in binary_ids]
        lines = [json.loads(text.readline()) for _ in text_ids]
    # Ids sort as strings so None (an unreadable prefix) compares too.
    assert sorted(str(a[1]) for a in answers) == sorted(map(str, binary_ids))
    assert sorted(line["id"] for line in lines) == sorted(text_ids)
    ((status, _, result),) = [a for a in answers if a[1] == 999]
    assert status == "ok" and result.schedule.table is not None
    health = server.service.health()
    assert health["dispatcher_alive"] and health["queue_depth"] == 0


def test_decode_result_rejects_trailing_bytes():
    geometry = ArrayGeometry.square(8)
    result = get_algorithm("qrm", geometry).schedule(load_uniform(geometry, 0.5, rng=0))
    result.pass_outcomes = []
    with pytest.raises(WireError, match="stray"):
        decode_result(payload_of(encode_result(1, result)) + b"\x00")
    with pytest.raises(WireError, match="truncated"):
        decode_result(payload_of(encode_result(1, result))[:-1])
