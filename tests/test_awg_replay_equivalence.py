"""Columnar AWG compile and loss replay == their per-move references.

:func:`~repro.awg.compiler.compile_schedule` and
:func:`~repro.physics.loss.simulate_losses` read a schedule's
:class:`~repro.aod.table.MoveTable`; their object-walking predecessors
stay as :func:`compile_schedule_reference` and
:func:`simulate_losses_reference`.  Over geometry x mask x fill x loss
seeds, and QRM, QRM+repair, Tetris and PSCA schedules:

* the compiled programs materialise to equal segments — labels,
  durations, amplitudes, and tones in order;
* the replays agree on the final grid, both loss counts, the duration,
  and the *next* draw of the generator they were handed;
* on hand-built schedules, which are often invalid (off the grid,
  colliding), both sides raise the same error class and leave their
  input untouched, or both succeed identically;
* the table rebuilds the schedule's moves, tags included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    assert_moves_identical,
    atom_arrays,
    geometries,
    masked_atom_arrays,
    occupancy_grids,
)

from repro.aod.move import LineShift, ParallelMove
from repro.aod.schedule import MoveSchedule
from repro.aod.table import MoveTable
from repro.aod.timing import MoveTimingModel
from repro.awg.compiler import compile_schedule, compile_schedule_reference
from repro.awg.tones import AodToneConfig, ToneMap
from repro.baselines.base import get_algorithm
from repro.config import QrmParameters
from repro.core.qrm import QrmScheduler
from repro.errors import MoveError
from repro.lattice.array import AtomArray
from repro.lattice.geometry import Direction
from repro.physics.loss import LossModel, simulate_losses, simulate_losses_reference

#: Scheduler families whose schedules the consumers must handle alike.
ALGORITHMS = ("qrm", "qrm+repair", "tetris", "psca")


@st.composite
def scheduled_arrays(draw) -> tuple[AtomArray, MoveSchedule]:
    """A loaded array and one algorithm's schedule for it.

    QRM (with or without repair) also draws masked targets; Tetris and
    PSCA only take rectangular ones.
    """
    algorithm = draw(st.sampled_from(ALGORITHMS))
    if algorithm.startswith("qrm") and draw(st.booleans()):
        array = draw(masked_atom_arrays())
    else:
        array = draw(atom_arrays())
    if algorithm == "qrm+repair":
        scheduler = QrmScheduler(array.geometry, QrmParameters(enable_repair=True))
    else:
        scheduler = get_algorithm(algorithm, array.geometry)
    return array, scheduler.schedule(array).schedule


@st.composite
def hand_built_schedules(draw) -> tuple[AtomArray, MoveSchedule]:
    """Random lockstep moves, often off the grid or colliding."""
    geometry = draw(geometries())
    array = AtomArray(geometry, draw(occupancy_grids(geometry)))
    size = geometry.shape[0]
    moves = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        direction = draw(st.sampled_from(list(Direction)))
        steps = draw(st.integers(min_value=1, max_value=3))
        lines = draw(
            st.lists(
                st.integers(min_value=0, max_value=size),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        shifts = []
        for line in lines:
            start = draw(st.integers(min_value=0, max_value=size))
            stop = draw(st.integers(min_value=start + 1, max_value=size + 2))
            shifts.append(LineShift(direction, line, start, stop, steps))
        moves.append(ParallelMove.of(shifts, tag=f"hand{len(moves)}"))
    return array, MoveSchedule(geometry, "hand", moves)


#: Phase durations, zero included (a zero phase emits no segment).
timings = st.builds(
    MoveTimingModel,
    pickup_us=st.sampled_from((0.0, 300.0, 12.5)),
    drop_us=st.sampled_from((0.0, 300.0, 7.25)),
    transfer_us_per_site=st.sampled_from((0.0, 50.0, 3.3)),
    settle_us=st.sampled_from((0.0, 20.0, 0.1)),
)

#: High loss rates: at the defaults the hit branches almost never run.
losses = st.builds(
    LossModel,
    vacuum_lifetime_s=st.sampled_from((0.01, 0.05, 30.0)),
    loss_per_transfer=st.sampled_from((0.0, 0.2)),
    loss_per_site=st.sampled_from((0.0, 0.05)),
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _outcome(call):
    """``("ok", value)`` or ``("raised", exception class)``."""
    try:
        return "ok", call()
    except Exception as error:  # noqa: BLE001 - the class is compared
        return "raised", type(error)


def assert_programs_identical(ours, reference) -> None:
    __tracebackhide__ = True
    assert len(ours) == len(reference)
    for index, (segment, expected) in enumerate(zip(ours.segments, reference.segments)):
        assert segment.label == expected.label, index
        assert segment.duration_us == expected.duration_us, segment.label
        assert segment.amplitude_start == expected.amplitude_start, segment.label
        assert segment.amplitude_end == expected.amplitude_end, segment.label
        assert segment.tones == expected.tones, segment.label
    assert ours.total_duration_us == reference.total_duration_us


def _replay_both(array, schedule, loss, timing, seed):
    """Both replays from equal generators; returns (ours, reference) as
    (outcome, generator) pairs."""
    sides = []
    for replay in (simulate_losses, simulate_losses_reference):
        gen = np.random.default_rng(seed)
        sides.append(
            (_outcome(lambda: replay(array, schedule, loss, timing, rng=gen)), gen)
        )
    return sides


def assert_replays_identical(ours, reference) -> None:
    __tracebackhide__ = True
    (status, report), gen = ours
    (expected_status, expected), expected_gen = reference
    assert status == expected_status == "ok", (report, expected)
    assert np.array_equal(report.final_array.grid, expected.final_array.grid)
    assert report.lost_transfer == expected.lost_transfer
    assert report.lost_vacuum == expected.lost_vacuum
    assert type(report.lost_transfer) is type(report.lost_vacuum) is int
    assert report.duration_us == expected.duration_us
    assert report.atoms_initial == expected.atoms_initial
    assert report.atoms_final == expected.atoms_final
    assert gen.random() == expected_gen.random()


# ---------------------------------------------------------------------------
# AWG compile
# ---------------------------------------------------------------------------


@given(scheduled_arrays(), timings)
@settings(max_examples=80, deadline=None)
def test_compile_bit_identical_to_reference(case, timing):
    _, schedule = case
    assert_programs_identical(
        compile_schedule(schedule, timing=timing),
        compile_schedule_reference(schedule, timing=timing),
    )


@given(scheduled_arrays(), timings)
@settings(max_examples=30, deadline=None)
def test_compile_total_duration_is_motion_time(case, timing):
    _, schedule = case
    program = compile_schedule(schedule, timing=timing)
    assert program.total_duration_us == pytest.approx(
        timing.schedule_motion_us(schedule)
    )


@given(hand_built_schedules(), st.integers(min_value=2, max_value=16))
@settings(max_examples=80, deadline=None)
def test_compile_matches_reference_on_hand_built_schedules(case, n_sites):
    # Small tone maps put some tones out of range: both sides must then
    # raise WaveformError.
    _, schedule = case
    tones = AodToneConfig(
        rows=ToneMap(base_mhz=75.0, n_sites=n_sites),
        cols=ToneMap(base_mhz=110.0, n_sites=n_sites),
    )
    status, ours = _outcome(lambda: compile_schedule(schedule, tones))
    expected_status, expected = _outcome(
        lambda: compile_schedule_reference(schedule, tones)
    )
    assert status == expected_status
    if status == "ok":
        assert_programs_identical(ours, expected)
    else:
        assert ours is expected


# ---------------------------------------------------------------------------
# Loss replay
# ---------------------------------------------------------------------------


@given(scheduled_arrays(), losses, timings, seeds)
@settings(max_examples=80, deadline=None)
def test_replay_bit_identical_to_reference(case, loss, timing, seed):
    array, schedule = case
    assert_replays_identical(*_replay_both(array, schedule, loss, timing, seed))


@given(scheduled_arrays(), losses, seeds)
@settings(max_examples=30, deadline=None)
def test_replay_of_table_equals_replay_of_schedule(case, loss, seed):
    array, schedule = case
    table = MoveTable.from_schedule(schedule)
    from_table = simulate_losses(array, table, loss, rng=seed)
    from_schedule = simulate_losses(array, schedule, loss, rng=seed)
    assert from_table.final_array == from_schedule.final_array
    assert from_table.lost_transfer == from_schedule.lost_transfer
    assert from_table.lost_vacuum == from_schedule.lost_vacuum


@given(hand_built_schedules(), losses, seeds)
@settings(max_examples=120, deadline=None)
def test_replay_matches_reference_on_hand_built_schedules(case, loss, seed):
    array, schedule = case
    before = array.copy()
    ours, reference = _replay_both(array, schedule, loss, MoveTimingModel(), seed)
    assert array == before
    (status, value), _ = ours
    (expected_status, expected), _ = reference
    assert status == expected_status
    if status == "ok":
        assert_replays_identical(ours, reference)
    else:
        assert value is expected is MoveError


# ---------------------------------------------------------------------------
# MoveTable
# ---------------------------------------------------------------------------


@given(scheduled_arrays())
@settings(max_examples=60, deadline=None)
def test_table_round_trips_to_the_same_moves(case):
    _, schedule = case
    table = MoveTable.from_schedule(schedule)
    assert table.n_moves == schedule.n_moves
    assert table.n_shifts == schedule.n_line_shifts
    assert_moves_identical(table.moves(), schedule.moves)


@given(hand_built_schedules())
@settings(max_examples=60, deadline=None)
def test_table_selected_indices_match_moves(case):
    _, schedule = case
    table = MoveTable.from_schedule(schedule)
    line_move, lines = table.selected_lines()
    cross_move, cross = table.selected_cross()
    for index, move in enumerate(schedule):
        assert lines[line_move == index].tolist() == move.selected_lines()
        assert cross[cross_move == index].tolist() == move.selected_cross()


def _bundle(*shifts, steps=1, direction=Direction.EAST):
    return MoveSchedule(
        None, "", [ParallelMove.trusted(direction, steps, tuple(shifts))]
    )


@pytest.mark.parametrize(
    "schedule, message",
    [
        (_bundle(), "at least one LineShift"),
        (
            _bundle(LineShift(Direction.EAST, 1, 0, 2, steps=2)),
            "shift steps 2 differ",
        ),
        (
            _bundle(LineShift(Direction.SOUTH, 1, 0, 2)),
            "shift direction",
        ),
        (
            _bundle(
                LineShift(Direction.EAST, 1, 0, 2), LineShift(Direction.EAST, 1, 3, 5)
            ),
            "same line 1",
        ),
        (_bundle(LineShift.trusted(Direction.EAST, -1, 0, 2)), "line index"),
        (_bundle(LineShift.trusted(Direction.EAST, 1, 3, 3)), "invalid span"),
        (_bundle(LineShift.trusted(Direction.EAST, 1, 0, 2, 0), steps=0), "steps"),
    ],
)
def test_table_rejects_malformed_trusted_bundles(schedule, message):
    with pytest.raises(MoveError, match=message):
        MoveTable.from_schedule(schedule)
