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
"""

from __future__ import annotations

from dataclasses import dataclass

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
        """``schedule`` itself if it is a table, else its table."""
        return schedule if isinstance(schedule, cls) else cls.from_schedule(schedule)

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

    def moves(self) -> list[ParallelMove]:
        return [self.move_at(index) for index in range(self.n_moves)]
