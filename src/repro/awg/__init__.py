"""AWG waveform synthesis: move schedules -> RF tone programs.

The output end of the paper's data path: the accelerator's parallel
moves become the multi-tone RF waveforms an arbitrary waveform
generator plays into the 2-D AOD, one frequency per active row/column
(the tone-generation stage that low-latency FPGA control systems such
as Hu et al., arXiv:2607.08687, synthesise on-chip).  Conventions:
frequencies in MHz, durations in microseconds, amplitudes normalised to
[0, 1]; a compiled :class:`~repro.awg.waveform.WaveformProgram` is an
ordered list of chirp segments, stored as columns, whose total duration
equals the schedule's physical motion-time estimate.  The closed-loop pipeline
(:mod:`repro.pipeline`) drives this package as its ``awg`` stage.
"""

from repro.awg.compiler import (
    compile_move,
    compile_schedule,
    compile_schedule_reference,
)
from repro.awg.tones import AodToneConfig, ToneMap
from repro.awg.waveform import Segment, Tone, WaveformColumns, WaveformProgram

__all__ = [
    "AodToneConfig",
    "Segment",
    "Tone",
    "ToneMap",
    "WaveformColumns",
    "WaveformProgram",
    "compile_move",
    "compile_schedule",
    "compile_schedule_reference",
]
