"""Multi-tone waveform segments with linear chirps.

A segment plays a set of simultaneous tones for a fixed duration; each
tone ramps linearly from a start to an end frequency (a chirp) under a
linear amplitude envelope.  Phase is integrated exactly so consecutive
samples are continuous within a segment.

Units: frequencies in MHz, durations in microseconds, sample rates in
MS/s (so frequency x time products are dimensionless cycles), and
amplitudes normalised to [0, 1] of full scale.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import WaveformError


@dataclass(frozen=True)
class Tone:
    """One chirped tone inside a segment (frequencies in MHz)."""

    start_mhz: float
    end_mhz: float

    @property
    def is_static(self) -> bool:
        return self.start_mhz == self.end_mhz


@dataclass(frozen=True)
class Segment:
    """A fixed-duration block of simultaneous tones.

    ``amplitude_start``/``amplitude_end`` define a linear envelope over
    the whole segment, shared by all tones (the AWG scales channels
    together during pickup and drop ramps).
    """

    label: str
    duration_us: float
    tones: tuple[Tone, ...]
    amplitude_start: float = 1.0
    amplitude_end: float = 1.0

    def __post_init__(self) -> None:
        if self.duration_us <= 0:
            raise WaveformError(f"segment '{self.label}' needs positive duration")
        for amp in (self.amplitude_start, self.amplitude_end):
            if not 0.0 <= amp <= 1.0:
                raise WaveformError(
                    f"segment '{self.label}' amplitude {amp} outside [0, 1]"
                )

    def n_samples(self, sample_rate_msps: float) -> int:
        return max(1, int(round(self.duration_us * sample_rate_msps)))

    def synthesize(self, sample_rate_msps: float = 500.0) -> np.ndarray:
        """Sample the segment (arbitrary units, one summed channel).

        The instantaneous phase of a linear chirp from f0 to f1 over T is
        ``2*pi*(f0*t + (f1-f0)*t^2/(2*T))``.
        """
        n = self.n_samples(sample_rate_msps)
        t = np.arange(n) / sample_rate_msps  # microseconds
        envelope = self.amplitude_start + (
            self.amplitude_end - self.amplitude_start
        ) * (t / self.duration_us)
        out = np.zeros(n, dtype=float)
        for tone in self.tones:
            sweep = tone.end_mhz - tone.start_mhz
            phase = 2.0 * np.pi * (
                tone.start_mhz * t + sweep * t**2 / (2.0 * self.duration_us)
            )
            out += np.sin(phase)
        if self.tones:
            out /= len(self.tones)
        return envelope * out


@dataclass(frozen=True, eq=False)
class WaveformColumns:
    """A program's segments as columns: one row per segment, per tone.

    Segment ``i`` plays tones ``tone_offsets[i]:tone_offsets[i + 1]``.
    Construction applies :class:`Segment`'s checks to every row at once
    (positive duration, amplitudes in [0, 1]), so a program compiled
    straight into columns is held to the same rules as one built from
    segment objects.  ``labels`` may be any sequence, including one
    that formats its strings only when read.
    """

    labels: Sequence[str]
    duration_us: np.ndarray
    amplitude_start: np.ndarray
    amplitude_end: np.ndarray
    tone_offsets: np.ndarray
    tone_start_mhz: np.ndarray
    tone_end_mhz: np.ndarray

    def __post_init__(self) -> None:
        bad = self.duration_us <= 0
        if bad.any():
            label = self.labels[int(np.argmax(bad))]
            raise WaveformError(f"segment '{label}' needs positive duration")
        for amplitudes in (self.amplitude_start, self.amplitude_end):
            bad = (amplitudes < 0.0) | (amplitudes > 1.0)
            if bad.any():
                index = int(np.argmax(bad))
                raise WaveformError(
                    f"segment '{self.labels[index]}' amplitude "
                    f"{amplitudes[index]} outside [0, 1]"
                )

    @classmethod
    def of(cls, segments: Sequence[Segment]) -> "WaveformColumns":
        counts = [len(segment.tones) for segment in segments]
        offsets = np.zeros(len(segments) + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        tones = [(t.start_mhz, t.end_mhz) for s in segments for t in s.tones]
        tones = np.array(tones, dtype=float).reshape(-1, 2)
        return cls(
            labels=[segment.label for segment in segments],
            duration_us=np.array([s.duration_us for s in segments], dtype=float),
            amplitude_start=np.array(
                [s.amplitude_start for s in segments], dtype=float
            ),
            amplitude_end=np.array([s.amplitude_end for s in segments], dtype=float),
            tone_offsets=offsets,
            tone_start_mhz=tones[:, 0],
            tone_end_mhz=tones[:, 1],
        )

    def __len__(self) -> int:
        return len(self.duration_us)

    def segments(self) -> list[Segment]:
        """Every row as a :class:`Segment` (checks already applied)."""
        starts = self.tone_start_mhz.tolist()
        ends = self.tone_end_mhz.tolist()
        offsets = self.tone_offsets.tolist()
        return [
            Segment(
                label=label,
                duration_us=duration,
                tones=tuple(
                    Tone(start_mhz=starts[t], end_mhz=ends[t])
                    for t in range(offsets[i], offsets[i + 1])
                ),
                amplitude_start=amp_start,
                amplitude_end=amp_end,
            )
            for i, (label, duration, amp_start, amp_end) in enumerate(
                zip(
                    self.labels,
                    self.duration_us.tolist(),
                    self.amplitude_start.tolist(),
                    self.amplitude_end.tolist(),
                )
            )
        ]


class WaveformProgram:
    """An ordered list of segments covering a whole move schedule.

    Stored as :class:`WaveformColumns` when compiled; the
    :class:`Segment`/:class:`Tone` objects are built only when
    :attr:`segments` is read.  Grow a program through :meth:`append`
    and :meth:`extend`.
    """

    def __init__(self, segments: Iterable[Segment] = ()) -> None:
        self._segments: list[Segment] | None = list(segments)
        self._columns: WaveformColumns | None = None

    @classmethod
    def from_columns(cls, columns: WaveformColumns) -> "WaveformProgram":
        program = cls()
        program._segments = None
        program._columns = columns
        return program

    @property
    def segments(self) -> list[Segment]:
        if self._segments is None:
            self._segments = self._columns.segments()
        return self._segments

    @property
    def columns(self) -> WaveformColumns:
        if self._columns is None:
            self._columns = WaveformColumns.of(self._segments)
        return self._columns

    def append(self, segment: Segment) -> None:
        self.segments.append(segment)
        self._columns = None

    def extend(self, segments: Iterable[Segment]) -> None:
        self.segments.extend(segments)
        self._columns = None

    @property
    def total_duration_us(self) -> float:
        # Python's left-to-right sum, not NumPy's pairwise one, so the
        # total is bit-identical to summing the segment objects.
        return float(sum(self.columns.duration_us.tolist()))

    def n_samples(self, sample_rate_msps: float) -> int:
        return sum(s.n_samples(sample_rate_msps) for s in self.segments)

    def synthesize(self, sample_rate_msps: float = 500.0) -> np.ndarray:
        """Concatenate all segment samples (use on small programs only)."""
        if not self.segments:
            return np.zeros(0, dtype=float)
        return np.concatenate([s.synthesize(sample_rate_msps) for s in self.segments])

    def __len__(self) -> int:
        if self._segments is not None:
            return len(self._segments)
        return len(self._columns)
