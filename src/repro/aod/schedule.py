"""Ordered move schedules — the output artefact of every algorithm."""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Iterator

from repro.aod.move import ParallelMove
from repro.lattice.geometry import ArrayGeometry, Direction

if TYPE_CHECKING:
    from repro.aod.table import MoveTable


class MoveSchedule:
    """A sequence of parallel moves produced by a rearrangement algorithm.

    The schedule is ordered: move ``i`` must complete before move
    ``i + 1`` starts (the AWG plays them back to back).  The schedule is
    pure data — replaying it against an initial array is the executor's
    job, validating it the validator's.

    A schedule holds either a list of :class:`ParallelMove` objects (what
    the schedulers build) or a :class:`~repro.aod.table.MoveTable` (what
    the service client decodes, :meth:`from_table`).  Iteration, ``len``,
    indexing and ``==`` behave alike for both; a table-backed schedule
    builds each iterated or indexed move on demand and keeps none of
    them.  Reading :attr:`moves` (or appending) turns it into an object
    schedule for good.
    """

    def __init__(
        self,
        geometry: ArrayGeometry,
        algorithm: str = "",
        moves: list[ParallelMove] | None = None,
    ):
        self.geometry = geometry
        self.algorithm = algorithm
        self._moves = [] if moves is None else moves
        self._table: MoveTable | None = None

    @classmethod
    def from_table(
        cls, geometry: ArrayGeometry, table: "MoveTable", algorithm: str = ""
    ) -> "MoveSchedule":
        """A schedule backed by ``table``, without building any move."""
        schedule = cls(geometry, algorithm)
        schedule._moves = None
        schedule._table = table
        return schedule

    @property
    def table(self) -> "MoveTable | None":
        """The carried table of a table-backed schedule, else None."""
        return self._table

    @property
    def moves(self) -> list[ParallelMove]:
        if self._moves is None:
            self._moves = self._table.moves()
            self._table = None
        return self._moves

    def append(self, move: ParallelMove) -> None:
        self.moves.append(move)

    def extend(self, moves: list[ParallelMove]) -> None:
        self.moves.extend(moves)

    def __iter__(self) -> Iterator[ParallelMove]:
        if self._table is not None:
            return iter(self._table)
        return iter(self._moves)

    def __len__(self) -> int:
        if self._table is not None:
            return self._table.n_moves
        return len(self._moves)

    def __getitem__(self, index):
        if self._table is None:
            return self._moves[index]
        if isinstance(index, slice):
            return [self._table.move_at(i) for i in range(*index.indices(len(self)))]
        n = self._table.n_moves
        if not -n <= index < n:
            raise IndexError("schedule index out of range")
        return self._table.move_at(index % n)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.geometry == other.geometry
            and self.algorithm == other.algorithm
            and len(self) == len(other)
            and all(a == b for a, b in zip(self, other))
        )

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return (
            f"MoveSchedule(geometry={self.geometry!r}, "
            f"algorithm={self.algorithm!r}, moves={list(self)!r})"
        )

    # -- intrinsic statistics ---------------------------------------------

    @property
    def n_moves(self) -> int:
        return len(self)

    @property
    def n_line_shifts(self) -> int:
        if self._table is not None:
            return self._table.n_shifts
        return sum(len(move) for move in self._moves)

    @property
    def total_steps(self) -> int:
        """Sum over moves of step count (proportional to ramp time)."""
        return sum(move.steps for move in self)

    def direction_histogram(self) -> dict[Direction, int]:
        counts: Counter[Direction] = Counter(move.direction for move in self)
        return {d: counts.get(d, 0) for d in Direction}

    def max_line_tones(self) -> int:
        return max((len(move.selected_lines()) for move in self), default=0)

    def max_cross_tones(self) -> int:
        return max((len(move.selected_cross()) for move in self), default=0)

    def summary(self) -> str:
        hist = self.direction_histogram()
        directions = ", ".join(f"{d.value}:{n}" for d, n in hist.items() if n)
        return (
            f"{self.algorithm or 'schedule'}: {self.n_moves} parallel moves, "
            f"{self.n_line_shifts} line shifts, "
            f"max tones {self.max_line_tones()}x{self.max_cross_tones()}, "
            f"directions {{{directions or 'none'}}}"
        )
