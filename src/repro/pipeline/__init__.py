"""Closed-loop camera -> detect -> schedule -> AWG -> replay pipeline.

The streaming data path of the paper's FPGA architecture, run in
software one frame at a time (run-to-completion per frame).  See
:mod:`repro.pipeline.stages` for the per-frame stage functions and
:mod:`repro.pipeline.engine` for the driver.
"""

from repro.pipeline.engine import PipelineResult, run_pipeline
from repro.pipeline.stages import (
    CycleRecord,
    FrameState,
    PipelineConfig,
    ShotResult,
    run_shot,
    spawn_shot_streams,
)

__all__ = [
    "CycleRecord",
    "FrameState",
    "PipelineConfig",
    "PipelineResult",
    "ShotResult",
    "run_pipeline",
    "run_shot",
    "spawn_shot_streams",
]
