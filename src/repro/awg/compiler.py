"""Compile move schedules into AWG waveform programs.

Every parallel move becomes a pickup / transport / drop segment triple:

* *pickup* — the AOD tones of the selected rows and columns ramp up in
  amplitude to transfer atoms from the static traps into the tweezers;
* *transport* — the tones of the moving axis chirp by ``steps`` lattice
  spacings while the orthogonal axis stays static;
* *drop* — amplitude ramps back down, releasing atoms into the lattice.

Durations come from the shared :class:`~repro.aod.timing.MoveTimingModel`
so the program length equals the physical motion-time estimate exactly
(asserted in tests).  A phase whose duration is zero (``pickup_us=0``,
say) emits no segment, as a zero ``settle_us`` emits no settle gap.

:func:`compile_schedule` works on the schedule's columnar
:class:`~repro.aod.table.MoveTable` and emits a columnar
:class:`~repro.awg.waveform.WaveformProgram`; the per-move object
compiler :func:`compile_schedule_reference` is its oracle.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.aod.move import ParallelMove
from repro.aod.schedule import MoveSchedule
from repro.aod.table import MoveTable
from repro.aod.timing import DEFAULT_MOVE_TIMING, MoveTimingModel
from repro.awg.tones import AodToneConfig
from repro.awg.waveform import Segment, Tone, WaveformColumns, WaveformProgram
from repro.lattice.geometry import Direction


def _axis_tones(tone_map, indices: list[int]) -> tuple[Tone, ...]:
    return tuple(Tone(start_mhz=f, end_mhz=f) for f in tone_map.frequencies(indices))


def _chirped_tones(tone_map, indices: list[int], delta: int) -> tuple[Tone, ...]:
    tones = []
    for index in indices:
        start = tone_map.frequency(index)
        end = tone_map.frequency(index + delta)
        tones.append(Tone(start_mhz=start, end_mhz=end))
    return tuple(tones)


def compile_move(
    move: ParallelMove,
    tones: AodToneConfig,
    timing: MoveTimingModel = DEFAULT_MOVE_TIMING,
    index: int = 0,
) -> list[Segment]:
    """Segments (pickup, transport, drop) for one parallel move."""
    if move.is_horizontal:
        row_indices = move.selected_lines()
        col_indices = move.selected_cross()
    else:
        col_indices = move.selected_lines()
        row_indices = move.selected_cross()

    row_static = _axis_tones(tones.rows, row_indices)
    col_static = _axis_tones(tones.cols, col_indices)

    delta = move.steps
    if move.direction in (Direction.NORTH, Direction.WEST):
        delta = -delta
    if move.is_horizontal:
        transport_tones = row_static + _chirped_tones(tones.cols, col_indices, delta)
    else:
        transport_tones = col_static + _chirped_tones(tones.rows, row_indices, delta)
    drop_row = _axis_tones(
        tones.rows,
        [i + (delta if not move.is_horizontal else 0) for i in row_indices],
    )
    drop_col = _axis_tones(
        tones.cols,
        [i + (delta if move.is_horizontal else 0) for i in col_indices],
    )

    label = f"move{index}"
    segments = []
    if timing.pickup_us > 0:
        segments.append(
            Segment(
                label=f"{label}.pickup",
                duration_us=timing.pickup_us,
                tones=row_static + col_static,
                amplitude_start=0.0,
                amplitude_end=1.0,
            )
        )
    transport_us = timing.transfer_us_per_site * move.steps
    if transport_us > 0:
        segments.append(
            Segment(
                label=f"{label}.transport",
                duration_us=transport_us,
                tones=transport_tones,
            )
        )
    if timing.drop_us > 0:
        segments.append(
            Segment(
                label=f"{label}.drop",
                duration_us=timing.drop_us,
                tones=drop_row + drop_col,
                amplitude_start=1.0,
                amplitude_end=0.0,
            )
        )
    return segments


def compile_schedule_reference(
    schedule: MoveSchedule,
    tones: AodToneConfig | None = None,
    timing: MoveTimingModel = DEFAULT_MOVE_TIMING,
) -> WaveformProgram:
    """Move-by-move object compiler; the oracle of :func:`compile_schedule`."""
    if tones is None:
        tones = AodToneConfig()
    program = WaveformProgram()
    for index, move in enumerate(schedule):
        program.extend(compile_move(move, tones, timing, index))
        if timing.settle_us > 0 and index < len(schedule) - 1:
            program.append(
                Segment(
                    label=f"move{index}.settle",
                    duration_us=timing.settle_us,
                    tones=(),
                )
            )
    return program


#: Segment kinds of one move, in play order.
_KINDS = ("pickup", "transport", "drop", "settle")
_PICKUP, _TRANSPORT, _DROP, _SETTLE = range(len(_KINDS))
#: Amplitude envelope (start, end) of each kind.
_ENVELOPES = ((0.0, 1.0), (1.0, 1.0), (1.0, 0.0), (1.0, 1.0))


class _SegmentLabels(Sequence):
    """``move{i}.{kind}`` segment labels, formatted only when read."""

    def __init__(self, moves: np.ndarray, kinds: np.ndarray) -> None:
        self._moves = moves
        self._kinds = kinds

    def __len__(self) -> int:
        return len(self._moves)

    def __getitem__(self, index: int) -> str:
        return f"move{self._moves[index]}.{_KINDS[self._kinds[index]]}"


def _frequencies(
    tones: AodToneConfig, on_rows: np.ndarray, indices: np.ndarray
) -> np.ndarray:
    """MHz of ``indices``: the row map where ``on_rows``, else the column map."""
    out = np.empty(indices.shape, dtype=float)
    out[on_rows] = tones.rows.frequency_array(indices[on_rows])
    out[~on_rows] = tones.cols.frequency_array(indices[~on_rows])
    return out


def compile_schedule(
    schedule: MoveSchedule | MoveTable,
    tones: AodToneConfig | None = None,
    timing: MoveTimingModel = DEFAULT_MOVE_TIMING,
) -> WaveformProgram:
    """The full AWG program for ``schedule``, with settle gaps.

    Columnar: the selected line and cross indices of every move come
    from the :class:`MoveTable` at once, tone frequencies are one affine
    map of them, and every tone is scattered to its slot in the segment
    layout (per move: the kinds with a positive duration, then a settle
    gap except after the last move).  Within a segment, pickup and drop
    list row tones before column tones and transport lists the static
    line-axis tones before the chirped cross-axis ones — the order of
    :func:`compile_schedule_reference`.
    """
    if tones is None:
        tones = AodToneConfig()
    table = MoveTable.of(schedule)
    n_moves = table.n_moves
    horizontal = table.horizontal

    # Tone indices: line axis (static) and cross axis (chirped), per move.
    line_move, line_index = table.selected_lines()
    cross_move, cross_index = table.selected_cross()
    n_line = np.bincount(line_move, minlength=n_moves)
    n_cross = np.bincount(cross_move, minlength=n_moves)
    line_pos = np.arange(line_move.size) - table.offsets[:-1][line_move]
    cross_first = np.cumsum(n_cross) - n_cross
    cross_pos = np.arange(cross_move.size) - cross_first[cross_move]
    line_on_rows = horizontal[line_move]
    cross_on_rows = ~horizontal[cross_move]
    line_mhz = _frequencies(tones, line_on_rows, line_index)
    cross_mhz = _frequencies(tones, cross_on_rows, cross_index)
    landed = cross_index + table.displacement[cross_move]
    landed_mhz = _frequencies(tones, cross_on_rows, landed)

    # Segment layout: a (move, phase) grid of the phases with positive
    # duration, the settle gap after the last move cut off.
    phases = [
        (kind, duration_us)
        for kind, duration_us, positive in (
            (_PICKUP, np.full(n_moves, timing.pickup_us), timing.pickup_us > 0),
            (
                _TRANSPORT,
                timing.transfer_us_per_site * table.steps,
                timing.transfer_us_per_site > 0,
            ),
            (_DROP, np.full(n_moves, timing.drop_us), timing.drop_us > 0),
            (_SETTLE, np.full(n_moves, timing.settle_us), timing.settle_us > 0),
        )
        if positive
    ]
    kinds = [kind for kind, _ in phases]
    n_segments = max(n_moves * len(kinds) - (_SETTLE in kinds), 0)
    tone_counts = np.outer(n_line + n_cross, [kind != _SETTLE for kind in kinds])
    tone_offsets = np.zeros(n_segments + 1, dtype=np.intp)
    np.cumsum(tone_counts.ravel()[:n_segments], out=tone_offsets[1:])

    start_mhz = np.empty(tone_offsets[-1], dtype=float)
    end_mhz = np.empty(tone_offsets[-1], dtype=float)
    rows_first_line = np.where(line_on_rows, line_pos, n_cross[line_move] + line_pos)
    rows_first_cross = np.where(
        cross_on_rows, cross_pos, n_line[cross_move] + cross_pos
    )
    for column, kind in enumerate(kinds):
        if kind == _SETTLE:
            continue
        first = tone_offsets[np.arange(n_moves) * len(kinds) + column]
        if kind == _TRANSPORT:
            at_line = first[line_move] + line_pos
            at_cross = first[cross_move] + n_line[cross_move] + cross_pos
        else:
            at_line = first[line_move] + rows_first_line
            at_cross = first[cross_move] + rows_first_cross
        start_mhz[at_line] = line_mhz
        end_mhz[at_line] = line_mhz
        start_mhz[at_cross] = landed_mhz if kind == _DROP else cross_mhz
        end_mhz[at_cross] = cross_mhz if kind == _PICKUP else landed_mhz

    seg_move = np.repeat(np.arange(n_moves), len(kinds))[:n_segments]
    seg_kind = np.tile(np.array(kinds, dtype=np.intp), n_moves)[:n_segments]
    envelopes = np.array(_ENVELOPES)[seg_kind]
    return WaveformProgram.from_columns(
        WaveformColumns(
            labels=_SegmentLabels(seg_move, seg_kind),
            duration_us=np.array([us for _, us in phases]).T.ravel()[:n_segments],
            amplitude_start=envelopes[:, 0],
            amplitude_end=envelopes[:, 1],
            tone_offsets=tone_offsets,
            tone_start_mhz=start_mhz,
            tone_end_mhz=end_mhz,
        )
    )
