"""loop-50: the paper's closed loop, 50x50 load -> 30x30 target.

Every shot loads a fill-0.6 array and runs up to three frames of
camera -> detect -> schedule -> AWG -> replay (QRM, default loss
model), calling the five stage functions of
``repro.pipeline.stages.STAGE_FUNCTIONS`` in data-path order, exactly
as the sequential driver does.  Nothing goes through the service or
the campaign layers.

The unit of latency is the frame: a shot has at most three frames, so
a window of a few seconds holds enough frames for a p95 but not
enough shots.  Throughput is frames per second of data-path time.

Correctness: the canonical per-frame trace lines of every measured
shot are hashed as the shots retire, and the digest must equal
``run_pipeline(config, "sequential").trace_digest()`` over the same
shots.  Records are dropped once hashed, as a controller would.
"""

from __future__ import annotations

import hashlib
import time
import traceback
from dataclasses import dataclass, field, replace

from harness import (
    NullTracer,
    Outcome,
    SpeedTrack,
    Tracer,
    layer_means,
    mean,
    min_samples,
    percentile,
    self_peak_rss_mb,
)

SIZE = 50
TARGET = 30
FILL = 0.6
CYCLES = 3

#: Stage key -> span (layer) name.
STAGE_LAYERS = {
    "camera": "detection.camera",
    "detect": "detection.detect",
    "schedule": "core.schedule",
    "awg": "awg.compile",
    "replay": "physics.replay",
}


@dataclass
class Fixture:
    config: object
    algorithm: object


@dataclass
class Window:
    """One measurement window's samples and counters."""

    first_shot: int
    next_shot: int = 0
    shots: int = 0
    frames: int = 0
    failed: int = 0
    busy_s: float = 0.0
    wall_s: float = 0.0
    #: (end time, milliseconds) per frame.
    frame_ms: list = field(default_factory=list)
    fills: list = field(default_factory=list)
    lost: int = 0
    scheduled: int = 0
    moves: int = 0
    shifts: int = 0
    segments: int = 0
    track: SpeedTrack = field(default_factory=SpeedTrack)

    def cost(self) -> float:
        """Data-path seconds per frame at reference host speed."""
        return self.busy_s / self.frames / self.track.speed()


def setup(seed: int, ctx) -> Fixture:
    from repro.baselines.base import get_algorithm
    from repro.physics.loss import LossModel
    from repro.pipeline.stages import PipelineConfig

    config = PipelineConfig(
        size=SIZE,
        target=TARGET,
        fill=FILL,
        algorithm="qrm",
        cycles=CYCLES,
        master_seed=seed,
        loss=LossModel(),
    )
    algorithm = get_algorithm("qrm", config.geometry())
    # Warm-up: one shot from another seed pays the stages' lazy imports.
    _drive_shot(replace(config, master_seed=seed + 1), algorithm, 0, NullTracer())
    return Fixture(config=config, algorithm=algorithm)


def _drive_shot(config, algorithm, shot: int, tracer):
    """Load one shot and run its frames; returns (ShotResult, frame samples)."""
    import numpy as np

    from repro.lattice.loading import load_uniform
    from repro.pipeline.stages import (
        STAGE_FUNCTIONS,
        FrameState,
        ShotResult,
        spawn_shot_streams,
    )

    group = f"shot-{shot}"
    shot_sid = tracer.begin("pipeline.shot", group)
    sid = tracer.begin("lattice.load", group, shot_sid)
    load_seed, streams = spawn_shot_streams(config.master_seed, shot, config.cycles)
    truth = load_uniform(
        config.geometry(), config.fill, rng=np.random.default_rng(load_seed)
    )
    tracer.end(sid)
    result = ShotResult(shot=shot)
    frames = []
    for cycle in range(config.cycles):
        start = time.perf_counter()
        frame_sid = tracer.begin("pipeline.frame", group, shot_sid)
        state = FrameState(
            shot=shot,
            cycle=cycle,
            truth=truth,
            camera_rng=np.random.default_rng(streams[2 * cycle]),
            loss_rng=np.random.default_rng(streams[2 * cycle + 1]),
        )
        for key, stage in STAGE_FUNCTIONS:
            sid = tracer.begin(STAGE_LAYERS[key], group, frame_sid)
            if key == "schedule":
                stage(state, config, algorithm)
            else:
                stage(state, config)
            tracer.end(sid)
            if state.record is not None and state.record.converged_at_detect:
                break
        tracer.end(frame_sid)
        end = time.perf_counter()
        frames.append((end, (end - start) * 1e3))
        result.records.append(state.record)
        truth = state.truth
        if state.record.converged_at_detect:
            break
    tracer.end(shot_sid)
    return result, frames


def _measure(fixture, window: Window, seconds: float, min_frames, tracer, digest):
    from repro.pipeline.engine import PipelineResult

    config = fixture.config
    start = time.perf_counter()
    deadline = start + seconds
    shot = window.first_shot
    while time.perf_counter() < deadline or window.frames < min_frames:
        sid = tracer.begin("bench.probe", f"shot-{shot}")
        window.track.probe()
        tracer.end(sid)
        shot_start = time.perf_counter()
        try:
            result, frames = _drive_shot(config, fixture.algorithm, shot, tracer)
        except Exception:
            traceback.print_exc()
            window.failed += 1
            window.frames += 1
            shot += 1
            continue
        window.busy_s += time.perf_counter() - shot_start
        sid = tracer.begin("bench.digest", f"shot-{shot}")
        lines = PipelineResult(config=config, mode="sequential", shots=[result])
        for line in lines.trace_lines():
            digest.update(line.encode("utf-8"))
            digest.update(b"\n")
        for record in result.records:
            window.lost += record.lost_atoms
            if not record.converged_at_detect:
                window.scheduled += 1
                window.moves += record.n_moves
                window.shifts += sum(len(move.shifts) for move in record.moves)
                window.segments += record.n_segments
        tracer.end(sid)
        window.frame_ms.extend(frames)
        window.frames += len(frames)
        window.fills.append(result.final_fill)
        window.shots += 1
        shot += 1
    window.wall_s = time.perf_counter() - start
    window.next_shot = shot


def run(fixture: Fixture, seconds: float, trace: bool) -> Outcome:
    from repro.pipeline.engine import run_pipeline

    digest = hashlib.sha256()
    outcome = Outcome()
    plain = Window(first_shot=0)
    if trace:
        _measure(fixture, plain, seconds / 2, 0, NullTracer(), digest)
        traced = Window(first_shot=plain.next_shot)
        tracer = Tracer()
        _measure(fixture, traced, seconds / 2, 0, tracer, digest)
        windows = [plain, traced]
        outcome.tracer = tracer
        outcome.traced_wall_s = traced.wall_s
        outcome.layers = _layers(tracer, plain, traced)
    else:
        _measure(fixture, plain, seconds, min_samples(95), NullTracer(), digest)
        windows = [plain]
        frame_ms = [ms / plain.track.speed_at(t) for t, ms in plain.frame_ms]
        outcome.end_to_end = {
            "latency_ms.p50": percentile(frame_ms, 50, beyond=0),
            "latency_ms.p95": percentile(frame_ms, 95),
            "throughput_per_s": 1.0 / plain.cost(),
            "target_fill": mean(plain.fills),
        }
    outcome.attempted = sum(window.frames for window in windows)
    outcome.failed = sum(window.failed for window in windows)
    outcome.peak_rss_mb = self_peak_rss_mb()

    shots = windows[-1].next_shot
    reference = run_pipeline(replace(fixture.config, shots=shots), "sequential")
    if reference.trace_digest() != digest.hexdigest():
        outcome.problems.append(
            f"loop-50: trace digest of {shots} shots differs from "
            f"run_pipeline(sequential)"
        )
    return outcome


def _layers(tracer: Tracer, plain: Window, traced: Window) -> dict[str, float]:
    layers = layer_means(
        tracer.spans,
        {
            "lattice.load": "lattice.load_ms",
            "detection.camera": "detection.camera_ms",
            "detection.detect": "detection.detect_ms",
            "core.schedule": "core.schedule_ms",
            "awg.compile": "awg.compile_ms",
            "physics.replay": "physics.replay_ms",
            "pipeline.frame": "pipeline.self_ms",
        },
        speed=traced.track.speed(),
    )
    scheduled = max(traced.scheduled, 1)
    shots = max(traced.shots, 1)
    layers.update(
        {
            "core.moves": traced.moves / scheduled,
            "core.shifts": traced.shifts / scheduled,
            "awg.segments": traced.segments / scheduled,
            "physics.atoms_lost": traced.lost / shots,
            "pipeline.cycles_per_shot": traced.frames / shots,
            "trace.overhead_ratio": traced.cost() / plain.cost() - 1.0,
            "trace.host_speed": traced.track.speed(),
        }
    )
    return layers
