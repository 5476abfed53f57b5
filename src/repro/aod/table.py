"""Columnar move tables: a schedule as a structure of arrays.

The paper's recording unit streams every parallel move as fixed-width
movement records (direction, steps, line, span start/stop; see
:mod:`repro.fpga.movement_record`), and FPGA control systems such as Hu
et al. (arXiv:2607.08687) synthesise the AOD tones straight from such
records.  :class:`MoveTable` is the software counterpart: one flat
array per record field, so consumers (AWG compile, loss replay) read a
whole schedule with array arithmetic instead of re-walking
:class:`~repro.aod.move.ParallelMove` objects.

Layout: shift ``j`` belongs to move ``move[j]``; the shifts of move
``i`` are rows ``offsets[i]:offsets[i + 1]``, in the move's own shift
order.  Per-move fields hold the lockstep direction (an index into
:data:`DIRECTIONS`), the step count and the tag.

In memory the columns are ``intp``; :meth:`MoveTable.records` packs
them into the fixed-width :data:`MOVE_RECORD`/:data:`SHIFT_RECORD`
layout the scheduling service ships, and a
:class:`~repro.aod.schedule.MoveSchedule` can be backed by a table
(:meth:`~repro.aod.schedule.MoveSchedule.from_table`) without building
its moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.aod.move import LineShift, ParallelMove
from repro.aod.schedule import MoveSchedule
from repro.errors import MoveError
from repro.lattice.geometry import Direction

#: Direction codes of :attr:`MoveTable.direction`.
DIRECTIONS: tuple[Direction, ...] = tuple(Direction)
_CODES = {direction: code for code, direction in enumerate(DIRECTIONS)}
#: Per code: True for EAST/WEST, and the sign of the along-line step.
_HORIZONTAL = np.array([d.is_horizontal for d in DIRECTIONS])
_SIGN = np.array([sum(d.delta) for d in DIRECTIONS], dtype=np.intp)

#: Fixed-width little-endian records of :meth:`MoveTable.records`, the
#: table's form on the wire: 7 bytes per move and 6 per shift.
MOVE_RECORD = np.dtype(
    [("direction", "u1"), ("steps", "<u2"), ("n_shifts", "<u2"), ("tag", "<u2")]
)
SHIFT_RECORD = np.dtype([("line", "<u2"), ("span_start", "<u2"), ("span_stop", "<u2")])


@dataclass(frozen=True, eq=False)
class MoveTable:
    """Structure-of-arrays view of a :class:`MoveSchedule`.

    Built by :meth:`from_schedule`, which checks the same structural
    rules the validating ``LineShift``/``ParallelMove`` constructors do
    (so bundles made through ``trusted`` are held to them too): every
    table is well formed, and :meth:`moves` rebuilds the schedule's moves
    exactly.  Whether they fit a grid is left to the consumers.
    """

    #: Per shift.
    move: np.ndarray
    line: np.ndarray
    span_start: np.ndarray
    span_stop: np.ndarray
    #: Per move.
    direction: np.ndarray
    steps: np.ndarray
    offsets: np.ndarray
    tags: tuple[str, ...]

    @classmethod
    def from_schedule(cls, schedule: MoveSchedule) -> "MoveTable":
        """One walk over ``schedule``; raises :class:`MoveError` on a
        malformed move."""
        moves = schedule.moves
        # Flat int lists convert to arrays far faster than lists of tuples.
        # A shift's fourth field is its steps when it shares its move's
        # direction and 0 otherwise, so lockstep holds iff it equals the
        # move's steps.
        shifts = [
            value
            for m in moves
            for s in m.shifts
            for value in (
                s.line,
                s.span_start,
                s.span_stop,
                s.steps if s.direction is m.direction else 0,
            )
        ]
        per_move = [
            value
            for m in moves
            for value in (_CODES[m.direction], m.steps, len(m.shifts))
        ]
        fields = np.fromiter(shifts, np.intp, len(shifts)).reshape(-1, 4)
        header = np.fromiter(per_move, np.intp, len(per_move)).reshape(-1, 3)
        counts = header[:, 2]
        offsets = np.zeros(len(moves) + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        shift_move = np.repeat(np.arange(len(moves), dtype=np.intp), counts)
        table = cls(
            move=shift_move,
            line=fields[:, 0],
            span_start=fields[:, 1],
            span_stop=fields[:, 2],
            direction=header[:, 0],
            steps=header[:, 1],
            offsets=offsets,
            tags=tuple(m.tag for m in moves),
        )
        table._check(schedule, counts, fields[:, 3] == header[shift_move, 1])
        return table

    @classmethod
    def of(cls, schedule: "MoveSchedule | MoveTable") -> "MoveTable":
        """``schedule`` itself if it is a table, else its table.

        A table-backed schedule hands back the table it carries, unwalked.
        """
        if isinstance(schedule, cls):
            return schedule
        if schedule.table is not None:
            return schedule.table
        return cls.from_schedule(schedule)

    def _check(self, schedule: MoveSchedule, counts, lockstep) -> None:
        """Raise the constructors' :class:`MoveError` for the first
        broken rule (all rules are checked as array predicates first)."""
        if counts.size and counts.min() == 0:
            raise MoveError("a ParallelMove needs at least one LineShift")
        bad = self.line < 0
        if bad.any():
            raise MoveError(f"line index must be >= 0, got {self.line[bad][0]}")
        bad = (self.span_start < 0) | (self.span_stop <= self.span_start)
        if bad.any():
            j = int(np.argmax(bad))
            raise MoveError(f"invalid span [{self.span_start[j]}, {self.span_stop[j]})")
        bad = self.steps < 1
        if bad.any():
            raise MoveError(f"steps must be >= 1, got {self.steps[bad][0]}")
        if not lockstep.all():
            j = int(np.argmax(~lockstep))
            # The constructor re-derives the exact lockstep message.
            move = schedule.moves[int(self.move[j])]
            ParallelMove(move.direction, move.steps, move.shifts, move.tag)
        moves, lines = self.selected_lines()
        repeated = (moves[1:] == moves[:-1]) & (lines[1:] == lines[:-1])
        if repeated.any():
            raise MoveError(f"two shifts target the same line {lines[1:][repeated][0]}")

    # -- shape --------------------------------------------------------------

    @property
    def n_moves(self) -> int:
        return len(self.steps)

    @property
    def n_shifts(self) -> int:
        return len(self.line)

    # -- derived per-move columns -------------------------------------------

    @property
    def horizontal(self) -> np.ndarray:
        """True where the move runs along rows (EAST/WEST)."""
        return _HORIZONTAL[self.direction]

    @property
    def displacement(self) -> np.ndarray:
        """Signed along-line displacement of every move, in sites."""
        return _SIGN[self.direction] * self.steps

    # -- selected tone indices -----------------------------------------------

    def selected_lines(self) -> tuple[np.ndarray, np.ndarray]:
        """``(move, line)`` of every shift, sorted by move then line.

        Per move, the same indices as :meth:`ParallelMove.selected_lines`.
        """
        order = np.lexsort((self.line, self.move))
        return self.move[order], self.line[order]

    def selected_cross(self) -> tuple[np.ndarray, np.ndarray]:
        """``(move, index)`` of the union of every move's spans, sorted.

        Per move, the same indices as :meth:`ParallelMove.selected_cross`:
        spans sorted by start merge while they overlap or touch (a running
        maximum of their stops, offset per move so it never carries into
        the next), and the merged intervals expand to their indices.
        """
        if not self.n_shifts:
            return self.move, self.line
        order = np.lexsort((self.span_start, self.move))
        width = int(self.span_stop.max()) + 1
        base = self.move[order] * width
        starts = base + self.span_start[order]
        reach = np.maximum.accumulate(base + self.span_stop[order])
        opens = np.ones(order.size, dtype=bool)
        opens[1:] = starts[1:] > reach[:-1]
        first = np.flatnonzero(opens)
        block_start = starts[first]
        lengths = reach[np.append(first[1:], order.size) - 1] - block_start
        keys = np.repeat(block_start - np.cumsum(lengths) + lengths, lengths)
        keys += np.arange(keys.size)
        return keys // width, keys % width

    # -- fixed-width records ---------------------------------------------------

    def records(self) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
        """The table as fixed-width records plus its tag string table.

        Returns ``(move records, shift records, tags)``: one
        :data:`MOVE_RECORD` per move (its tag as an index into ``tags``,
        which lists each distinct tag once, in first-use order) and one
        :data:`SHIFT_RECORD` per shift.  Raises :class:`MoveError` when a
        value does not fit its field.
        """
        index: dict[str, int] = {}
        tag_codes = [index.setdefault(tag, len(index)) for tag in self.tags]
        moves = np.empty(self.n_moves, MOVE_RECORD)
        shifts = np.empty(self.n_shifts, SHIFT_RECORD)
        columns = (
            (moves, "direction", self.direction),
            (moves, "steps", self.steps),
            (moves, "n_shifts", np.diff(self.offsets)),
            (moves, "tag", np.array(tag_codes, dtype=np.intp)),
            (shifts, "line", self.line),
            (shifts, "span_start", self.span_start),
            (shifts, "span_stop", self.span_stop),
        )
        for records, name, values in columns:
            high = np.iinfo(records.dtype[name]).max
            if values.size and (values.min() < 0 or values.max() > high):
                raise MoveError(
                    f"{name} values span [{values.min()}, {values.max()}], "
                    f"outside the [0, {high}] of its record field"
                )
            records[name] = values
        return moves, shifts, tuple(index)

    @classmethod
    def from_records(
        cls, moves: np.ndarray, shifts: np.ndarray, tags: tuple[str, ...]
    ) -> "MoveTable":
        """Inverse of :meth:`records`.

        Checks that the records index each other consistently (shift
        counts, tag indices, direction codes); the structural rules of
        :meth:`from_schedule` held where the records were made.
        """
        counts = moves["n_shifts"].astype(np.intp)
        if int(counts.sum()) != len(shifts):
            raise MoveError(
                f"move records claim {int(counts.sum())} shifts, "
                f"{len(shifts)} arrived"
            )
        tag_codes = moves["tag"]
        if tag_codes.size and int(tag_codes.max()) >= len(tags):
            raise MoveError(f"tag index {int(tag_codes.max())} beyond {len(tags)} tags")
        direction = moves["direction"].astype(np.intp)
        if direction.size and int(direction.max()) >= len(DIRECTIONS):
            raise MoveError(f"unknown direction code {int(direction.max())}")
        offsets = np.zeros(len(moves) + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        return cls(
            move=np.repeat(np.arange(len(moves), dtype=np.intp), counts),
            line=shifts["line"].astype(np.intp),
            span_start=shifts["span_start"].astype(np.intp),
            span_stop=shifts["span_stop"].astype(np.intp),
            direction=direction,
            steps=moves["steps"].astype(np.intp),
            offsets=offsets,
            tags=tuple(map(tags.__getitem__, tag_codes.tolist())),
        )

    # -- object view ----------------------------------------------------------

    def move_at(self, index: int) -> ParallelMove:
        """Move ``index`` as a :class:`ParallelMove`."""
        direction = DIRECTIONS[self.direction[index]]
        steps = int(self.steps[index])
        rows = slice(self.offsets[index], self.offsets[index + 1])
        shifts = tuple(
            LineShift.trusted(direction, line, start, stop, steps)
            for line, start, stop in zip(
                self.line[rows].tolist(),
                self.span_start[rows].tolist(),
                self.span_stop[rows].tolist(),
            )
        )
        return ParallelMove.trusted(direction, steps, shifts, self.tags[index])

    def __iter__(self) -> Iterator[ParallelMove]:
        """Every move in order, each built as it is reached."""
        lines = self.line.tolist()
        starts = self.span_start.tolist()
        stops = self.span_stop.tolist()
        bounds = self.offsets.tolist()
        trusted_shift = LineShift.trusted
        for index, (code, steps, tag) in enumerate(
            zip(self.direction.tolist(), self.steps.tolist(), self.tags)
        ):
            direction = DIRECTIONS[code]
            rows = range(bounds[index], bounds[index + 1])
            shifts = tuple(
                trusted_shift(direction, lines[j], starts[j], stops[j], steps)
                for j in rows
            )
            yield ParallelMove.trusted(direction, steps, shifts, tag)

    def moves(self) -> list[ParallelMove]:
        return list(self)
