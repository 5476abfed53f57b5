"""The asyncio scheduling server and its micro-batching dispatcher.

:class:`SchedulingService` accepts TCP connections and sniffs the first
byte of each: :data:`~repro.service.wire.SERVICE_MAGIC` selects the
typed binary frames of :mod:`repro.service.wire` (Python clients,
:mod:`repro.service.client`), an opening ``{`` selects the
newline-delimited JSON front door (everything else), and anything else —
the pickle protocol's magic included — gets one error frame and a
closed connection.  Nothing from the socket is ever unpickled.  Either
way a schedule request carries a scheduler identity
(:class:`~repro.service.cache.SchedulerKey`) plus one occupancy grid,
and lands on one shared queue.

The dispatcher is where the performance story lives.  It sleeps until a
request arrives, then holds the wave open for ``batch_window`` seconds
(or until ``max_batch_size`` requests are in hand) so concurrently
submitted frames pile into the same wave; the wave is grouped by
scheduler key and each group goes through one
:func:`repro.baselines.base.schedule_batch` call — the cross-trial
batched engine for QRM, a loop for everything else.  Scheduling then
runs *inline on the event loop*: while NumPy crunches a wave, newly
arriving requests buffer in the kernel socket buffers and flood the
queue the moment the loop yields, forming the next wave naturally —
adaptive batching without timers under load.  Batching off is just
``max_batch_size=1``.  Results leave as their schedule's
:class:`~repro.aod.table.MoveTable` records, never as object graphs.

Schedulers come from the warm :class:`~repro.service.cache.
SchedulerCache`, so the hot geometries keep their ``QuadrantFrame``
coefficients, batch engines and ``MoveInterner`` tables across waves.

Failures stay with their request.  Every malformed frame is answered
with an error under its id; a native batch call that raises falls back
to scheduling the group's arrays one by one; a result that fails to
encode becomes that request's error frame; and anything else that
escapes a wave fails only the wave's unanswered requests.  The
dispatcher task is supervised: should it end while the service runs,
its queued requests and every later schedule request get error frames
under their ids, and the ``health`` op reports it dead.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigurationError, ReproError, format_error
from repro.lattice.array import AtomArray
from repro.service.cache import SchedulerCache, SchedulerKey
from repro.service.wire import (
    MAX_JSON_LINE,
    WireError,
    decode_json_request,
    decode_request,
    encode_error,
    encode_json_error,
    encode_json_response,
    encode_json_value,
    encode_result,
    encode_value,
    read_frame_async,
    read_preamble_async,
)

_SHUTDOWN = object()


@dataclass
class _Connection:
    """Per-connection state shared by the reader and the dispatcher."""

    writer: asyncio.StreamWriter
    json_mode: bool = False
    # Reader (malformed-request errors) and dispatcher (results) both
    # write; the lock keeps their frames from interleaving.
    write_lock: asyncio.Lock = field(default_factory=asyncio.Lock)

    async def _write(self, data: bytes) -> None:
        async with self.write_lock:
            self.writer.write(data)
            try:
                await self.writer.drain()
            except (ConnectionError, OSError):
                pass  # the peer left; its reader task closes the connection

    async def send_ok(self, request_id: Any, result: Any) -> bool:
        """Send a result; False (and an error frame) if it cannot encode."""
        try:
            if self.json_mode:
                data = encode_json_response(request_id, result)
            else:
                data = encode_result(request_id, result)
        except Exception as exc:
            await self.send_error(
                request_id, f"cannot encode the result: {format_error(exc)}"
            )
            return False
        await self._write(data)
        return True

    async def send_value(self, request_id: Any, value: Any) -> None:
        encode = encode_json_value if self.json_mode else encode_value
        await self._write(encode(request_id, value))

    async def send_error(self, request_id: Any, message: str) -> None:
        encode = encode_json_error if self.json_mode else encode_error
        await self._write(encode(request_id, message))


@dataclass
class _PendingRequest:
    """One schedule request waiting for (or riding in) a wave."""

    connection: _Connection
    request_id: Any
    key: SchedulerKey
    array: AtomArray
    answered: bool = False


class SchedulingService:
    """Batched rearrangement scheduling over TCP.

    Parameters
    ----------
    host, port:
        Bind address; port 0 picks a free port (read ``address`` after
        :meth:`start`).
    batch_window:
        Seconds the dispatcher holds a wave open after its first
        request, letting concurrent submissions pile in.  0 disables
        the timer (the wave is whatever is already queued).
    max_batch_size:
        Hard cap on requests per ``schedule_batch`` call; 1 disables
        batching entirely (every request schedules alone — the
        benchmark's "batching off" configuration).
    cache_size:
        Capacity of the warm per-geometry scheduler LRU.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        batch_window: float = 0.002,
        max_batch_size: int = 32,
        cache_size: int = 8,
    ):
        if batch_window < 0:
            raise ConfigurationError(
                f"batch_window must be >= 0, got {batch_window}"
            )
        if max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        self.host = host
        self.port = port
        self.batch_window = batch_window
        self.max_batch_size = max_batch_size
        self.cache = SchedulerCache(cache_size)
        self._server: asyncio.base_events.Server | None = None
        self._queue: asyncio.Queue | None = None
        self._dispatcher: asyncio.Task | None = None
        self._readers: set[asyncio.Task] = set()
        # Supervision: the wave in hand (answered on dispatcher death),
        # whether stop() ended the dispatcher, and why it ended otherwise.
        self._wave: list[_PendingRequest] = []
        self._stopping = False
        self._dispatcher_failure: str | None = None
        self._cleanup: set[asyncio.Task] = set()
        # Wave accounting for the latency benchmark and the tests:
        # how often batching actually coalesced concurrent requests.
        self.stats: dict[str, int] = {
            "requests": 0,
            "errors": 0,
            "waves": 0,
            "batched_requests": 0,
            "max_wave": 0,
            "native_batch_calls": 0,
            "fallback_calls": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    async def start(self) -> None:
        self._queue = asyncio.Queue()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        self._dispatcher.add_done_callback(self._on_dispatcher_done)

    async def stop(self) -> None:
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._readers):
            task.cancel()
        if self._readers:
            await asyncio.gather(*self._readers, return_exceptions=True)
        if self._dispatcher is not None:
            assert self._queue is not None
            await self._queue.put(_SHUTDOWN)
            await asyncio.gather(self._dispatcher, return_exceptions=True)
            self._dispatcher = None
        if self._cleanup:
            await asyncio.gather(*self._cleanup, return_exceptions=True)

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    def snapshot_stats(self) -> dict[str, Any]:
        return {**self.stats, "cache": self.cache.stats()}

    @property
    def dispatcher_alive(self) -> bool:
        return self._dispatcher is not None and not self._dispatcher.done()

    def health(self) -> dict[str, Any]:
        """Dispatcher liveness and queue depth (the ``health`` op)."""
        return {
            "dispatcher_alive": self.dispatcher_alive,
            "dispatcher_failure": self._dispatcher_failure,
            "queue_depth": self._queue.qsize() if self._queue is not None else 0,
        }

    def _on_dispatcher_done(self, task: asyncio.Task) -> None:
        """Answer every request the ended dispatcher would have served."""
        if self._stopping:
            return
        if task.cancelled():
            self._dispatcher_failure = "cancelled"
        else:
            error = task.exception()
            self._dispatcher_failure = (
                "returned" if error is None else format_error(error)
            )
        stranded = [request for request in self._wave if not request.answered]
        assert self._queue is not None
        while not self._queue.empty():
            item = self._queue.get_nowait()
            if item is not _SHUTDOWN:
                stranded.append(item)
        message = f"the dispatcher has stopped ({self._dispatcher_failure})"
        cleanup = asyncio.get_running_loop().create_task(
            self._answer_all(stranded, message)
        )
        self._cleanup.add(cleanup)
        cleanup.add_done_callback(self._cleanup.discard)

    async def _answer_all(self, requests: list[_PendingRequest], message: str) -> None:
        for request in requests:
            await self._fail(request, message)

    # -- connection handling -----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._readers.add(task)
        connection = _Connection(writer=writer)
        try:
            first = await reader.read(1)
            if not first:
                return
            if first == b"{":
                connection.json_mode = True
                await self._serve_json(reader, connection, first)
            else:
                await read_preamble_async(reader, first)
                await self._serve_frames(reader, connection)
        except (asyncio.CancelledError, ConnectionError, EOFError):
            pass
        except ConfigurationError as exc:
            # A refused preamble, an oversized frame or a malformed JSON
            # stream: one error frame (under the frame's id when it was
            # readable), then the connection closes.
            self.stats["errors"] += 1
            await connection.send_error(getattr(exc, "request_id", None), str(exc))
        finally:
            self._readers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_frames(
        self, reader: asyncio.StreamReader, connection: _Connection
    ) -> None:
        while True:
            payload = await read_frame_async(reader)
            if payload is None:
                return
            try:
                op, request_id, request = decode_request(payload)
            except WireError as exc:
                self.stats["errors"] += 1
                await connection.send_error(exc.request_id, str(exc))
                continue
            await self._enqueue(connection, op, request_id, request)

    async def _serve_json(
        self,
        reader: asyncio.StreamReader,
        connection: _Connection,
        first: bytes,
    ) -> None:
        line = first + await reader.readline()
        while line.strip():
            if len(line) > MAX_JSON_LINE:
                raise ConfigurationError(
                    f"JSON request exceeds {MAX_JSON_LINE} bytes"
                )
            request_id = None
            try:
                request = decode_json_request(line)
                request_id = request.get("id")
                await self._enqueue(
                    connection, request["op"], request_id, request
                )
            except (ConfigurationError, ReproError) as exc:
                request_id = getattr(exc, "request_id", request_id)
                await connection.send_error(request_id, str(exc))
                self.stats["errors"] += 1
            line = await reader.readline()

    async def _enqueue(
        self, connection: _Connection, op: str, request_id: Any, payload: Any
    ) -> None:
        assert self._queue is not None
        if op == "ping":
            await connection.send_value(request_id, "pong")
            return
        if op == "stats":
            await connection.send_value(request_id, self.snapshot_stats())
            return
        if op == "health":
            await connection.send_value(request_id, self.health())
            return
        if op != "schedule":
            await connection.send_error(request_id, f"unknown op {op!r}")
            self.stats["errors"] += 1
            return
        try:
            key = SchedulerKey.from_payload(payload)
            hash(key)  # the dispatcher groups by key
            array = AtomArray(key.to_geometry(), payload["grid"])
        except Exception as exc:
            await connection.send_error(
                request_id, f"{type(exc).__name__}: {exc}"
            )
            self.stats["errors"] += 1
            return
        if not self.dispatcher_alive:
            await connection.send_error(
                request_id,
                f"the dispatcher has stopped ({self._dispatcher_failure})",
            )
            self.stats["errors"] += 1
            return
        self.stats["requests"] += 1
        await self._queue.put(
            _PendingRequest(
                connection=connection,
                request_id=request_id,
                key=key,
                array=array,
            )
        )

    # -- the micro-batching dispatcher --------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        stopping = False
        while not stopping:
            item = await self._queue.get()
            if item is _SHUTDOWN:
                return
            wave = self._wave = [item]
            if self.max_batch_size > 1 and self.batch_window > 0:
                deadline = loop.time() + self.batch_window
                while len(wave) < self.max_batch_size:
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        break
                    try:
                        item = await asyncio.wait_for(
                            self._queue.get(), remaining
                        )
                    except asyncio.TimeoutError:
                        break
                    if item is _SHUTDOWN:
                        stopping = True
                        break
                    wave.append(item)
            # Anything already queued rides along for free — the common
            # case under load, where the previous wave's inline compute
            # let a full backlog accumulate.
            while len(wave) < self.max_batch_size:
                try:
                    item = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if item is _SHUTDOWN:
                    stopping = True
                    break
                wave.append(item)
            try:
                await self._run_wave(wave)
            except Exception as exc:
                # Whatever escaped fails this wave's unanswered requests,
                # never the dispatcher.
                for request in wave:
                    if not request.answered:
                        await self._fail(request, format_error(exc))
            self._wave = []

    async def _run_wave(self, wave: list[_PendingRequest]) -> None:
        self.stats["waves"] += 1
        self.stats["max_wave"] = max(self.stats["max_wave"], len(wave))
        if len(wave) > 1:
            self.stats["batched_requests"] += len(wave)
        groups: dict[SchedulerKey, list[_PendingRequest]] = {}
        for request in wave:
            groups.setdefault(request.key, []).append(request)
        for key, group in groups.items():
            try:
                scheduler = self.cache.get(key)
            except Exception as exc:
                # Any factory failure (e.g. a TypeError from unknown
                # params) is this group's error, never the dispatcher's.
                for request in group:
                    await self._fail(request, f"{type(exc).__name__}: {exc}")
                continue
            for start in range(0, len(group), self.max_batch_size):
                chunk = group[start : start + self.max_batch_size]
                await self._run_chunk(scheduler, chunk)

    async def _run_chunk(
        self, scheduler: Any, chunk: list[_PendingRequest]
    ) -> None:
        from repro.baselines.base import schedule_batch

        arrays = [request.array for request in chunk]
        try:
            results = schedule_batch(scheduler, arrays)
            self.stats["native_batch_calls"] += 1
        except Exception:
            # Sibling isolation: redo the chunk one array at a time so
            # only the request that actually fails gets the error.
            self.stats["fallback_calls"] += 1
            results = []
            for request in chunk:
                try:
                    results.append(scheduler.schedule(request.array))
                except Exception as exc:
                    results.append(exc)
        for request, result in zip(chunk, results):
            if isinstance(result, Exception):
                # Mirror the worker protocol: the message carries a
                # traceback tail so remote failures stay debuggable.
                await self._fail(request, format_error(result))
                continue
            # Pass outcomes are analysis-internal debris (excluded from
            # repr, metrics and the oracle comparisons); never ship them.
            result.pass_outcomes = []
            request.answered = True
            if not await request.connection.send_ok(request.request_id, result):
                self.stats["errors"] += 1

    async def _fail(self, request: _PendingRequest, message: str) -> None:
        request.answered = True
        self.stats["errors"] += 1
        await request.connection.send_error(request.request_id, message)


class ServiceThread:
    """A :class:`SchedulingService` on a background thread's event loop.

    The harness both the tests and the synchronous CLI/benchmark paths
    use: enter the context manager, read ``address``, connect clients.
    """

    def __init__(self, **service_kwargs: Any):
        self._service_kwargs = service_kwargs
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self.service: SchedulingService | None = None

    def __enter__(self) -> "ServiceThread":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    @property
    def address(self) -> tuple[str, int]:
        assert self.service is not None, "service not started"
        return self.service.address

    def start(self) -> None:
        if self._thread is not None:
            return  # idempotent: serve_in_thread() already started us
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            stop = self._stop
            self._loop.call_soon_threadsafe(stop.set)
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def _run(self) -> None:
        async def main() -> None:
            self.service = SchedulingService(**self._service_kwargs)
            self._stop = asyncio.Event()
            try:
                await self.service.start()
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                return
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            await self._stop.wait()
            await self.service.stop()

        asyncio.run(main())


def serve_in_thread(**service_kwargs: Any) -> ServiceThread:
    """Start a service on a background thread (context-manager friendly)."""
    thread = ServiceThread(**service_kwargs)
    thread.start()
    return thread
