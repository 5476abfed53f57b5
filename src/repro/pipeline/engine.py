"""Closed-loop pipeline driver: one sequential loop over every shot.

Every frame runs camera -> detect -> schedule -> awg -> replay to
completion before the next frame starts (the paper's Fig. 2a software
baseline, run-to-completion), through the stage functions of
:mod:`repro.pipeline.stages`.  The paper overlaps frames in its
streaming FPGA data path (Fig. 2b); on CPython a thread per stage
measured slower than this loop, so the software runs one frame at a
time.

Determinism contract: a :class:`~repro.pipeline.stages.PipelineConfig`
fixes the :class:`~repro.pipeline.stages.CycleRecord` trace byte for
byte, because every frame's RNG streams are pre-spawned from the config
seed and the stage functions are pure per frame.  The
``pipeline-smoke`` CI job byte-compares the traces of two runs in
separate processes through the CLI.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.base import get_algorithm
from repro.errors import ConfigurationError
from repro.lattice.loading import load_uniform
from repro.pipeline.stages import (
    PipelineConfig,
    ShotResult,
    run_shot,
    spawn_shot_streams,
)
from repro.timing.latency import StageReport


@dataclass
class PipelineResult:
    """Everything one pipeline run produced.

    ``shots`` (ordered by shot index) is the deterministic part;
    ``report`` the measured wall-clock stage latencies of this
    particular run.  ``mode`` is always ``"sequential"``.
    """

    config: PipelineConfig
    mode: str
    shots: list[ShotResult] = field(default_factory=list)
    report: StageReport = field(default_factory=StageReport)

    # -- aggregate metrics over shots -----------------------------------

    @property
    def n_frames(self) -> int:
        return sum(len(shot.records) for shot in self.shots)

    @property
    def converged_fraction(self) -> float:
        done = sum(1 for shot in self.shots if shot.converged)
        return done / len(self.shots) if self.shots else 0.0

    @property
    def mean_final_fill(self) -> float:
        if not self.shots:
            return 0.0
        return sum(shot.final_fill for shot in self.shots) / len(self.shots)

    def modelled_fpga_us(self) -> float | None:
        """Mean cycle-model analysis latency, when ``fpga_timing`` ran."""
        samples = [
            record.fpga_us
            for shot in self.shots
            for record in shot.records
            if record.fpga_us is not None
        ]
        return sum(samples) / len(samples) if samples else None

    # -- deterministic trace --------------------------------------------

    def trace_lines(self) -> list[str]:
        """The run as canonical text, identical across runs of one config.

        One line per (shot, cycle): detected occupancy, threshold-free
        schedule fingerprint, and post-replay truth.  This is what the
        CI smoke job byte-compares between two processes.
        """
        lines = []
        for shot in self.shots:
            for record in shot.records:
                payload = {
                    "shot": record.shot,
                    "cycle": record.cycle,
                    "occupancy": _grid_text(record.occupancy),
                    "threshold": round(record.threshold, 9),
                    "moves": [_move_tuple(move) for move in record.moves],
                    "truth_after": _grid_text(record.truth_after),
                    "fill_after": round(record.target_fill_after, 12),
                    "lost": record.lost_atoms,
                    "fallback": record.replay_fallback,
                }
                lines.append(json.dumps(payload, sort_keys=True))
        return lines

    def trace_digest(self) -> str:
        digest = hashlib.sha256()
        for line in self.trace_lines():
            digest.update(line.encode("utf-8"))
            digest.update(b"\n")
        return digest.hexdigest()

    # -- reporting -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "size": self.config.size,
            "algorithm": self.config.algorithm,
            "shots": len(self.shots),
            "cycles": self.config.cycles,
            "frames": self.n_frames,
            "converged_fraction": self.converged_fraction,
            "mean_final_fill": self.mean_final_fill,
            "trace_digest": self.trace_digest(),
            "modelled_fpga_us": self.modelled_fpga_us(),
            "stage_report": self.report.to_dict(),
        }

    def format_summary(self) -> str:
        lines = [
            f"pipeline {self.config.algorithm} "
            f"{self.config.size}x{self.config.size}: "
            f"{len(self.shots)} shot(s), {self.n_frames} frame(s), "
            f"<= {self.config.cycles} cycle(s)/shot, "
            f"{self.converged_fraction:.0%} converged, "
            f"mean final target fill {self.mean_final_fill:.3f}",
            self.report.format(),
        ]
        comparison = self.hardware_comparison()
        if comparison is not None:
            lines.append(comparison)
        return "\n".join(lines)

    def hardware_comparison(self) -> str | None:
        """Measured stages vs the paper's architecture-b hardware budget.

        Available when the run recorded the cycle-model analysis latency
        (``fpga_timing``); the budget's ``schedule`` row is that
        simulated accelerator time, so the table reads as "what this
        software pipeline costs vs what the paper's FPGA would".
        """
        fpga_us = self.modelled_fpga_us()
        if fpga_us is None:
            return None
        from repro.workflow.system import architecture_b_budget

        budget = architecture_b_budget(self.config.size, fpga_us)
        return self.report.compare_to_budget(
            budget.stage_totals(),
            f"architecture {budget.architecture} hardware budget",
        )


def run_pipeline(config: PipelineConfig, mode: str = "sequential") -> PipelineResult:
    """Run the closed loop for every shot of ``config``, one after another.

    ``"sequential"`` is the only ``mode``; the argument remains so that
    callers naming it keep working.
    """
    if mode != "sequential":
        raise ConfigurationError(
            f"unknown pipeline mode {mode!r}; only 'sequential' exists "
            f"(the thread-pipelined driver was removed)"
        )
    geometry = config.geometry()
    algorithm = get_algorithm(config.algorithm, geometry)
    result = PipelineResult(config=config, mode=mode)
    start = time.perf_counter()
    for shot in range(config.shots):
        load_seed, cycle_streams = spawn_shot_streams(
            config.master_seed, shot, config.cycles
        )
        truth = load_uniform(
            geometry, config.fill, rng=np.random.default_rng(load_seed)
        )
        result.shots.append(
            run_shot(shot, truth, cycle_streams, config, algorithm, result.report)
        )
    result.report.wall_us = (time.perf_counter() - start) * 1e6
    return result


# ---------------------------------------------------------------------------
# Canonical serialisation helpers (trace identity across runs)
# ---------------------------------------------------------------------------


def _grid_text(grid: np.ndarray | None) -> list[str] | None:
    if grid is None:
        return None
    return ["".join("#" if cell else "." for cell in row) for row in grid]


def _move_tuple(move) -> list:
    """A move as plain JSON (direction names, spans, steps)."""
    return [
        move.direction.name,
        int(move.steps),
        [
            [
                shift.direction.name,
                int(shift.line),
                int(shift.span_start),
                int(shift.span_stop),
                int(shift.steps),
            ]
            for shift in move.shifts
        ],
    ]
