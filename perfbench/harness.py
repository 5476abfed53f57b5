"""Workload-independent pieces of the benchmark.

* the percentile rule (a tail percentile needs at least ten samples
  beyond it);
* an in-memory span recorder and the self-time arithmetic over its
  spans;
* the accounting check (span self times must explain the traced
  wall time);
* the host speed probe that puts host times on a reference scale;
* peak resident memory of this process and of a child;
* the cleanup stack that every exit path, error included, unwinds.

Nothing here imports the package under test, so the helpers stay
testable on their own (``perfbench/tests``).
"""

from __future__ import annotations

import bisect
import gc
import json
import math
import os
import resource
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

#: Samples a tail percentile must leave beyond it.
MIN_BEYOND = 10

#: Largest share by which span self times may miss the traced wall time.
ACCOUNTING_TOLERANCE = 0.10


# -- percentiles -------------------------------------------------------------


def min_samples(q: float, beyond: int = MIN_BEYOND) -> int:
    """Fewest samples for which the ``q``-th percentile has ``beyond`` after it."""
    n = 1
    while n - math.ceil(q / 100.0 * n) < beyond:
        n += 1
    return n


def percentile(values: Iterable[float], q: float, beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank ``q``-th percentile that keeps ``beyond`` samples after it.

    Raises :class:`ValueError` when there are too few samples for that,
    so a run can never report a tail it did not observe.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < beyond:
        raise ValueError(
            f"p{q:g} of {n} samples leaves {n - rank} beyond it; "
            f"need {beyond} (at least {min_samples(q, beyond)} samples)"
        )
    return ordered[rank - 1]


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# -- spans -------------------------------------------------------------------


@dataclass
class Span:
    """One call into a layer: name, interval, parent span and shared group."""

    sid: int
    name: str
    group: str
    parent: int | None
    start: float
    end: float = math.nan

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; :meth:`write` dumps them when the run ends."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def begin(self, name: str, group: str, parent: int | None = None) -> int:
        sid = len(self.spans)
        self.spans.append(Span(sid, name, group, parent, time.perf_counter()))
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span.sid,
                            "name": span.name,
                            "group": span.group,
                            "parent": span.parent,
                            "start": span.start,
                            "end": span.end,
                        }
                    )
                    + "\n"
                )


class NullTracer:
    """The untraced run: same calls, nothing recorded."""

    enabled = False

    def begin(self, name: str, group: str, parent: int | None = None) -> None:
        return None

    def end(self, sid) -> None:
        pass


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            start = max(span.start, parent.start)
            end = min(span.end, parent.end)
            if end > start:
                children.setdefault(span.parent, []).append((start, end))
    return {
        span.sid: span.duration - _covered(children.get(span.sid, []))
        for span in spans
    }


def self_time_by_name(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """Span name -> (total self seconds, number of spans)."""
    totals: dict[str, tuple[float, int]] = {}
    for sid, seconds in self_times(spans).items():
        name = spans[sid].name
        total, count = totals.get(name, (0.0, 0))
        totals[name] = (total + seconds, count + 1)
    return totals


def accounting_ratio(spans: list[Span], wall_s: float) -> float:
    """Sum of every span's self time over the traced wall time."""
    if wall_s <= 0:
        raise ValueError("wall time must be positive")
    return sum(self_times(spans).values()) / wall_s


def check_accounting(
    spans: list[Span], wall_s: float, tolerance: float = ACCOUNTING_TOLERANCE
) -> str | None:
    """None when self times explain ``wall_s`` to within ``tolerance``."""
    ratio = accounting_ratio(spans, wall_s)
    if not abs(ratio - 1.0) <= tolerance:  # NaN (an open span) fails too
        return (
            f"span self times add up to {ratio:.3f} of the traced wall "
            f"time, outside 1 +/- {tolerance:g}"
        )
    return None


# -- host speed --------------------------------------------------------------

#: Nominal duration of :func:`speed_probe_ms` on the reference host (a
#: 2-vCPU x86-64 container, Python 3.11).  Host times are reported as
#: if the host ran at that speed.
REFERENCE_PROBE_MS = 6.0


class _Probe:
    __slots__ = ("freq", "amp", "line")

    def __init__(self, freq: float, amp: float, line: int) -> None:
        self.freq = freq
        self.amp = amp
        self.line = line


def speed_probe_ms() -> float:
    """Milliseconds for a fixed allocate-and-walk loop of small objects.

    The loop is the same kind of work as the package's hot paths
    (small Python objects built and walked once), so its duration
    follows the host's speed.  On a shared host that speed drifts by
    tens of percent within seconds; dividing a host time by
    :func:`host_speed` of probes interleaved with it removes most of
    that drift.  The probe reads the thread's CPU clock, so waiting for
    the interpreter lock held by another thread does not count, and it
    pauses the cyclic garbage collector so that it never collects the
    workload's objects.
    """
    paused = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        probes = [_Probe(index * 1.5, 0.5, index) for index in range(15000)]
        total = 0.0
        for probe in probes:
            total += probe.freq * probe.amp + probe.line
        del probes
        return (time.thread_time() - start) * 1e3
    finally:
        if paused:
            gc.enable()


def host_speed(probe_ms: Iterable[float]) -> float:
    """Slowdown of the host against the reference: >1 means slower."""
    probe_ms = list(probe_ms)
    if not probe_ms:
        raise ValueError("no speed probes were taken")
    return mean(probe_ms) / REFERENCE_PROBE_MS


class SpeedTrack:
    """Speed probes taken through a window, with the time of each.

    :meth:`speed` is the window's mean slowdown, for totals and rates;
    :meth:`speed_at` is the slowdown around one instant, for single
    samples such as one request's latency.
    """

    #: Probes that :meth:`speed_at` averages, nearest in time first.
    LOCAL = 15

    def __init__(self) -> None:
        self.times: list[float] = []
        self.probe_ms: list[float] = []

    def probe(self) -> None:
        self.times.append(time.perf_counter())
        self.probe_ms.append(speed_probe_ms())

    def speed(self) -> float:
        return host_speed(self.probe_ms)

    def speed_at(self, instant: float) -> float:
        index = bisect.bisect_left(self.times, instant)
        low = max(0, min(index - self.LOCAL // 2, len(self.times) - self.LOCAL))
        return host_speed(self.probe_ms[low : low + self.LOCAL])


# -- memory ------------------------------------------------------------------


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_peak_rss_mb(pid: int) -> float:
    """Peak resident memory of a live child, from ``/proc`` (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# -- cleanup -----------------------------------------------------------------


class Cleanup:
    """Callbacks run in reverse order on every exit path.

    :meth:`install` turns SIGTERM/SIGHUP into :class:`SystemExit`, so a
    killed run still unwinds its ``finally`` blocks (server child,
    temporary directories).
    """

    def __init__(self) -> None:
        self._callbacks: list[Callable[[], None]] = []

    def push(self, callback: Callable[[], None]) -> None:
        self._callbacks.append(callback)

    def run(self) -> list[str]:
        errors = []
        while self._callbacks:
            callback = self._callbacks.pop()
            try:
                callback()
            except Exception as exc:  # keep unwinding the rest
                errors.append(f"{type(exc).__name__}: {exc}")
        return errors

    @staticmethod
    def install() -> None:
        def to_exit(signum, frame):
            raise SystemExit(128 + signum)

        for signum in (signal.SIGTERM, signal.SIGHUP):
            signal.signal(signum, to_exit)


@dataclass
class Context:
    """What a workload may touch: the checkout, its scratch dir, cleanup."""

    root: Path
    work_dir: Path
    cleanup: Cleanup


@dataclass
class Outcome:
    """What one measured run of a workload produced.

    ``problems`` lists failed output checks; any entry makes the run
    incorrect.  ``layers`` holds only the layers the workload reaches.
    Host times and rates arrive ready to print: the workloads that probe
    the host speed have already divided it out.
    """

    attempted: int = 0
    failed: int = 0
    end_to_end: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    tracer: Tracer | None = None
    traced_wall_s: float = 0.0
    peak_rss_mb: float = 0.0


def layer_means(
    spans: list[Span], names: dict[str, str], speed: float = 1.0
) -> dict[str, float]:
    """Metric name -> mean self milliseconds per span, at reference speed.

    ``names`` maps span name to metric name; ``speed`` is the
    :func:`host_speed` of the window the spans were recorded in.
    """
    totals = self_time_by_name(spans)
    metrics = {}
    for span_name, metric in names.items():
        total, count = totals.get(span_name, (0.0, 0))
        metrics[metric] = total * 1e3 / count / speed if count else 0.0
    return metrics


def env_with_src(root: Path) -> dict[str, str]:
    """The environment with ``root/src`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    return env
