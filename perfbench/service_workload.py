"""service-64: ``repro serve`` as a child process, one client, 16 in flight.

The server runs with its default settings (only the port is picked
free).  One :class:`repro.service.client.ServiceClient` keeps 16
requests in flight in a closed loop: each is a 64x64 frame at fill
0.5 under one ``SchedulerKey``, drawn round-robin from a seeded pool
of 64 frames.  This drives the wire codec (pickle), the
micro-batcher and ``BatchQrmScheduler``; it never reaches AWG, replay
or detection.

A request's latency runs from ``submit_schedule`` to its decoded
result.  The driver keeps a result only while it records its move
count, shift count and target fill, as a real caller would.

Correctness, outside the timed window: every pool frame is scheduled
locally with ``get_algorithm("qrm", geometry)``; every timed response
must match its frame's local move count, shift count and fill, and one
fresh response per pool frame must equal the local schedule under
``schedule_to_dict``.  The server must report no errors.
"""

from __future__ import annotations

import collections
import pickle
import queue
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from harness import (
    NullTracer,
    Outcome,
    SpeedTrack,
    Tracer,
    child_peak_rss_mb,
    env_with_src,
    layer_means,
    mean,
    min_samples,
    percentile,
    self_peak_rss_mb,
)

SIZE = 64
FILL = 0.5
POOL = 64
IN_FLIGHT = 16
#: Per-attempt client timeout; with one retry a dead server fails a
#: request after about twice this, instead of hanging the run.
REQUEST_TIMEOUT_S = 10.0
BANNER_TIMEOUT_S = 60.0
#: Seconds between host speed probes in the driver loop.
PROBE_EVERY_S = 0.2
_BANNER = re.compile(r"service on ([^\s:]+):(\d+)")


class Server:
    """A ``repro serve`` child whose stderr is drained in the background."""

    def __init__(self, ctx) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            cwd=ctx.root,
            env=env_with_src(ctx.root),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.tail: collections.deque = collections.deque(maxlen=20)
        lines: queue.Queue = queue.Queue()
        self._drain = threading.Thread(
            target=self._read_stderr, args=(lines,), daemon=True
        )
        self._drain.start()
        ctx.cleanup.push(self.stop)
        deadline = time.monotonic() + BANNER_TIMEOUT_S
        while True:
            try:
                line = lines.get(timeout=max(deadline - time.monotonic(), 0.01))
            except queue.Empty:
                raise RuntimeError("repro serve printed no banner") from None
            if line is None:
                raise RuntimeError(
                    "repro serve exited before listening: " + " | ".join(self.tail)
                )
            match = _BANNER.search(line)
            if match:
                self.address = (match.group(1), int(match.group(2)))
                return

    def _read_stderr(self, lines: queue.Queue) -> None:
        for line in self.proc.stderr:
            self.tail.append(line.rstrip())
            lines.put(line)
        lines.put(None)

    def alive(self) -> bool:
        return self.proc.poll() is None

    def peak_rss_mb(self) -> float:
        return child_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._drain.join(timeout=10)
        self.proc.stderr.close()


@dataclass
class Fixture:
    server: Server
    client: object
    key: object
    geometry: object
    pool: list


@dataclass
class Window:
    """One closed-loop window: latencies and per-response fingerprints."""

    submitted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    #: (completion time, milliseconds) per completed request.
    latency_ms: list = field(default_factory=list)
    #: (pool index, moves, shifts, target fill) per completed request.
    seen: list = field(default_factory=list)
    track: SpeedTrack = field(default_factory=SpeedTrack)

    def cost(self) -> float:
        """Window seconds per completed request at reference host speed."""
        return self.wall_s / len(self.latency_ms) / self.track.speed()


def setup(seed: int, ctx) -> Fixture:
    import numpy as np

    from repro.lattice.geometry import ArrayGeometry
    from repro.lattice.loading import load_uniform
    from repro.service.cache import SchedulerKey
    from repro.service.client import ServiceClient

    geometry = ArrayGeometry.square(SIZE)
    rng = np.random.default_rng(seed)
    pool = [load_uniform(geometry, FILL, rng=rng) for _ in range(POOL)]
    key = SchedulerKey(
        geometry=(
            geometry.width,
            geometry.height,
            geometry.target_width,
            geometry.target_height,
        ),
        algorithm="qrm",
    )
    server = Server(ctx)
    client = ServiceClient(
        server.address,
        max_in_flight=IN_FLIGHT,
        request_timeout=REQUEST_TIMEOUT_S,
        max_retries=1,
    )
    ctx.cleanup.push(client.close)
    # Warm-up: one full wave builds the server's scheduler and engine.
    client.schedule_many(key, pool[:IN_FLIGHT])
    return Fixture(server, client, key, geometry, pool)


def _measure(fixture: Fixture, window: Window, seconds: float, min_n: int, tracer):
    from repro.errors import ReproError

    client, key, pool = fixture.client, fixture.key, fixture.pool
    in_flight: collections.deque = collections.deque()

    def submit() -> None:
        index = window.submitted
        window.submitted += 1
        start = time.perf_counter()
        sid = tracer.begin("service.submit", f"req-{index}")
        future = client.submit_schedule(key, pool[index % POOL])
        tracer.end(sid)
        in_flight.append((index, start, future))

    begin = time.perf_counter()
    deadline = begin + seconds
    next_probe = begin
    for _ in range(IN_FLIGHT):
        submit()
    while in_flight:
        if time.perf_counter() >= next_probe:
            sid = tracer.begin("bench.probe", "probe")
            window.track.probe()
            tracer.end(sid)
            next_probe += PROBE_EVERY_S
        index, start, future = in_flight.popleft()
        group = f"req-{index}"
        sid = tracer.begin("service.wait", group)
        try:
            result = future.result()
        except ReproError:
            result = None
        tracer.end(sid)
        done = time.perf_counter()
        sid = tracer.begin("bench.record", group)
        if result is None:
            window.failed += 1
        else:
            window.latency_ms.append((done, (done - start) * 1e3))
            window.seen.append(
                (
                    index % POOL,
                    result.n_moves,
                    sum(len(move.shifts) for move in result.schedule),
                    result.target_fill_fraction,
                )
            )
        del result, future
        tracer.end(sid)
        more = done < deadline or len(window.latency_ms) < min_n
        if more and fixture.server.alive():
            submit()
    window.wall_s = time.perf_counter() - begin


def _stats_delta(before: dict, after: dict) -> dict:
    delta = {
        name: after[name] - before[name]
        for name in ("requests", "errors", "waves", "fallback_calls")
    }
    for name in ("hits", "misses"):
        delta[name] = after["cache"][name] - before["cache"][name]
    return delta


def run(fixture: Fixture, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    client = fixture.client
    before = client.stats()
    plain = Window()
    if trace:
        _measure(fixture, plain, seconds / 2, 0, NullTracer())
        mid = client.stats()
        traced = Window()
        tracer = Tracer()
        _measure(fixture, traced, seconds / 2, 0, tracer)
        windows = [plain, traced]
        outcome.tracer = tracer
        outcome.traced_wall_s = traced.wall_s
    else:
        _measure(fixture, plain, seconds, min_samples(95), NullTracer())
        windows = [plain]
    after = client.stats()
    outcome.peak_rss_mb = self_peak_rss_mb() + fixture.server.peak_rss_mb()
    outcome.attempted = sum(window.submitted for window in windows)
    outcome.failed = sum(window.failed for window in windows)
    seen = [entry for window in windows for entry in window.seen]
    if trace:
        stats = _stats_delta(mid, after)
        outcome.layers = _layers(fixture, plain, traced, stats, tracer)
    else:
        latency_ms = [ms / plain.track.speed_at(t) for t, ms in plain.latency_ms]
        outcome.end_to_end = {
            "latency_ms.p50": percentile(latency_ms, 50, beyond=0),
            "latency_ms.p95": percentile(latency_ms, 95),
            "throughput_per_s": 1.0 / plain.cost(),
            "target_fill": mean(entry[3] for entry in seen),
        }
    delta = _stats_delta(before, after)
    if delta["errors"]:
        outcome.problems.append(f"service-64: server reported {delta['errors']} errors")
    outcome.problems.extend(_check(fixture, seen))
    return outcome


def _check(fixture: Fixture, seen: list) -> list[str]:
    from repro.aod.serialize import schedule_to_dict
    from repro.baselines.base import get_algorithm

    local = get_algorithm("qrm", fixture.geometry)
    problems = []
    expected = []
    fresh = fixture.client.schedule_many(fixture.key, fixture.pool)
    for index, (array, remote) in enumerate(zip(fixture.pool, fresh)):
        reference = local.schedule(array)
        if schedule_to_dict(remote.schedule) != schedule_to_dict(reference.schedule):
            problems.append(f"service-64: pool frame {index} schedule differs")
        expected.append(
            (
                reference.n_moves,
                sum(len(move.shifts) for move in reference.schedule),
                reference.target_fill_fraction,
            )
        )
    del fresh
    wrong = sum(1 for index, *got in seen if tuple(got) != expected[index])
    if wrong:
        problems.append(f"service-64: {wrong} timed responses differ from local")
    return problems


def _layers(fixture, plain: Window, traced: Window, stats: dict, tracer) -> dict:
    """Per-request layer costs; compute, encode and decode run in-process."""
    from repro.baselines.base import get_algorithm, schedule_batch

    speed = traced.track.speed()
    wave_size = stats["requests"] / max(stats["waves"], 1)
    lookups = stats["hits"] + stats["misses"]
    layers = layer_means(
        tracer.spans,
        {"service.submit": "service.submit_ms", "service.wait": "service.wait_ms"},
        speed=speed,
    )
    layers.update(
        {
            "service.wave_size": wave_size,
            "service.waves": float(stats["waves"]),
            "service.fallback_calls": float(stats["fallback_calls"]),
            "service.cache_hit_ratio": stats["hits"] / lookups if lookups else 0.0,
            "core.moves": mean(entry[1] for entry in traced.seen),
            "core.shifts": mean(entry[2] for entry in traced.seen),
            "trace.overhead_ratio": traced.cost() / plain.cost() - 1.0,
            "trace.host_speed": speed,
        }
    )

    # The server's scheduler is warm: warm the local one over two passes
    # of the pool, then time a third.  The last pass pickles each result
    # as the server does and unpickles it as the client does, holding
    # one wave of results at a time.
    batch = max(1, round(wave_size))
    local = get_algorithm("qrm", fixture.geometry)
    chunks = [
        fixture.pool[offset : offset + batch]
        for offset in range(0, POOL - batch + 1, batch)
    ]
    for _ in range(2):
        for chunk in chunks:
            schedule_batch(local, chunk)
    track = SpeedTrack()
    track.probe()
    start = time.perf_counter()
    for chunk in chunks:
        schedule_batch(local, chunk)
    compute_s = (time.perf_counter() - start) / (len(chunks) * batch)
    track.probe()
    encode_s, decode_s, sizes = [], [], []
    for chunk in chunks:
        for index, result in enumerate(schedule_batch(local, chunk)):
            result.pass_outcomes = []
            start = time.perf_counter()
            data = pickle.dumps(("ok", index, result))
            middle = time.perf_counter()
            pickle.loads(data)
            decode_s.append(time.perf_counter() - middle)
            encode_s.append(middle - start)
            sizes.append(len(data))
    track.probe()
    # In-process timings are scaled by probes taken between them.
    to_ms = 1e3 / track.speed()
    compute_ms = compute_s * to_ms
    encode_ms = mean(encode_s) * to_ms
    decode_ms = mean(decode_s) * to_ms
    request_ms = traced.cost() * 1e3
    layers.update(
        {
            "service.compute_ms": compute_ms,
            "service.encode_ms": encode_ms,
            "service.decode_ms": decode_ms,
            "service.result_bytes": mean(sizes),
            "service.unattributed_ms": request_ms - compute_ms - encode_ms - decode_ms,
        }
    )
    return layers
