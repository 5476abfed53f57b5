"""Atom-loss models during rearrangement (extension substrate).

Every real rearrangement loses atoms: background-gas collisions empty
traps at a rate set by the vacuum lifetime, and each tweezer hand-off
(pick up, drop off) has a finite failure probability.  The models here
quantify why schedule *length* matters physically — a schedule with
fewer, more parallel moves finishes sooner and hands each atom over
fewer times, so more atoms survive.  This is the systems argument behind
the paper's drive for parallelism, made measurable.

Defaults are typical published magnitudes: tens-of-seconds vacuum
lifetime, ~0.1-1 % loss per transfer pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.aod.executor import apply_parallel_move
from repro.aod.schedule import MoveSchedule
from repro.aod.table import MoveTable
from repro.aod.timing import DEFAULT_MOVE_TIMING, MoveTimingModel
from repro.errors import ConfigurationError, MoveError
from repro.lattice.array import AtomArray
from repro.lattice.loading import as_rng


@dataclass(frozen=True)
class LossModel:
    """Loss channels during rearrangement.

    Attributes
    ----------
    vacuum_lifetime_s:
        1/e trap lifetime against background-gas collisions; applies to
        every trapped atom for the whole rearrangement duration.
    loss_per_transfer:
        Probability of losing an atom in one static<->mobile hand-off;
        each parallel move costs every moved atom two hand-offs.
    loss_per_site:
        Probability of losing a moved atom per lattice site of transport
        (heating during the frequency ramp).
    """

    vacuum_lifetime_s: float = 30.0
    loss_per_transfer: float = 2e-3
    loss_per_site: float = 1e-4

    def __post_init__(self) -> None:
        if self.vacuum_lifetime_s <= 0:
            raise ConfigurationError("vacuum_lifetime_s must be positive")
        for name in ("loss_per_transfer", "loss_per_site"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1)")

    def vacuum_survival(self, duration_us: float) -> float:
        """Survival probability over ``duration_us`` of wall time."""
        if duration_us < 0:
            raise ConfigurationError("duration_us must be >= 0")
        return math.exp(-duration_us * 1e-6 / self.vacuum_lifetime_s)

    def move_survival(self, steps: int) -> float:
        """Survival of one atom through one parallel move it takes part in."""
        transfer = (1.0 - self.loss_per_transfer) ** 2
        transport = (1.0 - self.loss_per_site) ** steps
        return transfer * transport


DEFAULT_LOSS_MODEL = LossModel()


@dataclass
class LossReport:
    """Outcome of a stochastic loss replay."""

    atoms_initial: int
    atoms_final: int
    lost_vacuum: int = 0
    lost_transfer: int = 0
    duration_us: float = 0.0
    final_array: AtomArray = field(default=None, repr=False)

    @property
    def atoms_lost(self) -> int:
        return self.atoms_initial - self.atoms_final

    @property
    def survival_fraction(self) -> float:
        if self.atoms_initial == 0:
            return 1.0
        return self.atoms_final / self.atoms_initial


def expected_atom_survival(
    schedule: MoveSchedule,
    mean_moves_per_atom: float,
    mean_steps_per_move: float = 1.0,
    loss: LossModel = DEFAULT_LOSS_MODEL,
    timing: MoveTimingModel = DEFAULT_MOVE_TIMING,
) -> float:
    """Analytic per-atom survival estimate for a schedule.

    Combines the vacuum decay over the schedule's motion time with the
    hand-off/transport losses of the average atom.
    """
    duration = timing.schedule_motion_us(schedule)
    vacuum = loss.vacuum_survival(duration)
    handling = loss.move_survival(
        max(1, round(mean_steps_per_move))
    ) ** mean_moves_per_atom
    return vacuum * handling


def simulate_losses(
    initial: AtomArray,
    schedule: MoveSchedule | MoveTable,
    loss: LossModel = DEFAULT_LOSS_MODEL,
    timing: MoveTimingModel = DEFAULT_MOVE_TIMING,
    rng: int | np.random.Generator | None = None,
) -> LossReport:
    """Replay ``schedule`` with stochastic atom loss.

    After each parallel move, every surviving atom faces the vacuum
    hazard of the move's duration and every *moved* atom additionally
    faces the hand-off/transport hazard.  Losing atoms only ever empties
    traps, so the remaining schedule stays executable (suffix shifts
    tolerate empty selected traps).

    Replays move by move from flat site indices precomputed off the
    schedule's :class:`MoveTable`, drawing what
    :func:`simulate_losses_reference` draws in the same order — one
    ``gen.random(k)`` for the ``k`` moved atoms (in ``shift.sites()``
    order), then one ``gen.random(n)`` for the ``n`` live atoms (in
    ``np.argwhere`` order) — so the outcome and the generator's state
    after the call are bit-identical.  A move that breaks the lockstep
    rules on the current grid is handed to
    :func:`~repro.aod.executor.apply_parallel_move` on the untouched
    grid, which raises the same :class:`~repro.errors.MoveError`.
    """
    gen = as_rng(rng)
    table = MoveTable.of(schedule)
    array = initial.copy()
    flat = array.grid.reshape(-1)  # a view: AtomArray grids are contiguous
    live = array.n_atoms
    report = LossReport(atoms_initial=live, atoms_final=live, final_array=array)
    sites = _SelectedSites(table, array.grid.shape)
    # Duration and both hazards depend on a move's step count alone.
    hazards = {}
    for steps in set(table.steps.tolist()):
        duration = timing.steps_duration_us(steps) + timing.settle_us
        hazards[steps] = (
            duration,
            1.0 - loss.move_survival(steps),
            1.0 - loss.vacuum_survival(duration),
        )
    bounds = sites.offsets.tolist()
    on_grid = sites.on_grid.tolist()
    lands_on_grid = sites.lands_on_grid.tolist()
    for index, steps in enumerate(table.steps.tolist()):
        duration, p_move_loss, p_decay = hazards[steps]
        report.duration_us += duration
        if not on_grid[index]:
            _raise_executor_error(array.grid, table, index)

        span = slice(bounds[index], bounds[index + 1])
        selected = sites.source[span]
        occupied = flat[selected]
        source = selected[occupied]
        if source.size:
            if not lands_on_grid[index]:
                if not sites.landing_ok[span][occupied].all():
                    _raise_executor_error(array.grid, table, index)
            landing = sites.landing[span][occupied]
            flat[source] = False
            if np.count_nonzero(flat[landing]):  # a static atom in the way
                flat[source] = True
                _raise_executor_error(array.grid, table, index)
            flat[landing] = True

            # Hand-off and transport loss for the moved atoms.
            if p_move_loss > 0:
                lost = landing[gen.random(landing.size) < p_move_loss]
                if lost.size:
                    flat[lost] = False
                    report.lost_transfer += lost.size
                    live -= lost.size

        # Vacuum decay for everyone, over this move's duration.
        if p_decay > 0:
            decays = gen.random(live) < p_decay
            lost = int(np.count_nonzero(decays))
            if lost:
                flat[np.flatnonzero(flat)[decays]] = False
                report.lost_vacuum += lost
                live -= lost

    report.atoms_final = live
    return report


class _SelectedSites:
    """Every move's selected sites as flat grid indices, in
    ``shift.sites()`` order, with where each would land.

    Moves whose spans leave the grid get no sites (``on_grid`` is False
    for them); ``lands_on_grid`` is True for moves whose every site,
    occupied or not, lands on the grid.
    """

    def __init__(self, table: MoveTable, shape: tuple[int, int]) -> None:
        height, width = shape
        horizontal = table.horizontal[table.move]
        size = np.where(horizontal, width, height)
        line_fits = table.line < np.where(horizontal, height, width)
        fits = line_fits & (table.span_stop <= size)
        self.on_grid = np.ones(table.n_moves, dtype=bool)
        self.on_grid[table.move[~fits]] = False
        lengths = np.where(
            self.on_grid[table.move], table.span_stop - table.span_start, 0
        )
        before = np.concatenate(([0], np.cumsum(lengths)))  # sites before shift j
        self.offsets = before[table.offsets]
        first = before[:-1]
        along = np.arange(int(lengths.sum()))
        along -= np.repeat(first - table.span_start, lengths)
        line = np.repeat(table.line, lengths)
        horizontal = np.repeat(horizontal, lengths)
        shift = np.repeat(table.displacement[table.move], lengths)
        self.source = np.where(horizontal, line * width + along, along * width + line)
        self.landing = self.source + np.where(horizontal, shift, shift * width)
        along += shift
        self.landing_ok = (along >= 0) & (along < np.repeat(size, lengths))
        self.lands_on_grid = np.ones(table.n_moves, dtype=bool)
        self.lands_on_grid[np.repeat(table.move, lengths)[~self.landing_ok]] = False


def _raise_executor_error(grid: np.ndarray, table: MoveTable, index: int) -> None:
    """Raise the executor's :class:`MoveError` for move ``index``."""
    apply_parallel_move(grid, table.move_at(index))
    raise AssertionError(f"move {index} was flagged but the executor accepted it")


def simulate_losses_reference(
    initial: AtomArray,
    schedule: MoveSchedule,
    loss: LossModel = DEFAULT_LOSS_MODEL,
    timing: MoveTimingModel = DEFAULT_MOVE_TIMING,
    rng: int | np.random.Generator | None = None,
) -> LossReport:
    """Site-by-site loss replay; the oracle of :func:`simulate_losses`.

    After each parallel move, every surviving atom faces the vacuum
    hazard of the move's duration and every *moved* atom additionally
    faces the hand-off/transport hazard.  Losing atoms only ever empties
    traps, so the remaining schedule stays executable (suffix shifts
    tolerate empty selected traps).  A move that selects a site off the
    grid raises :class:`~repro.errors.MoveError`, as the executor does.
    """
    gen = as_rng(rng)
    array = initial.copy()
    height, width = array.grid.shape
    report = LossReport(
        atoms_initial=array.n_atoms,
        atoms_final=array.n_atoms,
        final_array=array,
    )
    for move in schedule:
        duration = timing.move_duration_us(move) + timing.settle_us
        report.duration_us += duration

        # Which sites does this move displace?
        moved_sites: list[tuple[int, int]] = []
        for shift in move.shifts:
            for site in shift.sites():
                if not (0 <= site[0] < height and 0 <= site[1] < width):
                    raise MoveError(f"selected site {site} outside grid")
                if array.grid[site]:
                    moved_sites.append(shift.destination(site))
        apply_parallel_move(array.grid, move)

        # Hand-off and transport loss for the moved atoms.
        p_move_loss = 1.0 - loss.move_survival(move.steps)
        if p_move_loss > 0:
            for site in moved_sites:
                if gen.random() < p_move_loss:
                    array.grid[site] = False
                    report.lost_transfer += 1

        # Vacuum decay for everyone, over this move's duration.
        p_decay = 1.0 - loss.vacuum_survival(duration)
        if p_decay > 0:
            occupied = np.argwhere(array.grid)
            decays = gen.random(len(occupied)) < p_decay
            for (row, col) in occupied[decays]:
                array.grid[row, col] = False
                report.lost_vacuum += 1

    report.atoms_final = array.n_atoms
    report.final_array = array
    return report
