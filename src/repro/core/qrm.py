"""The Quadrant-based Rearrangement Method — the paper's contribution.

:class:`QrmScheduler` implements Sec. III-B / IV of the paper in pure
Python:

1. split the array into four quadrants and flip each so the target corner
   sits at the quadrant-local origin (handled by the
   :class:`~repro.lattice.geometry.QuadrantFrame` transforms);
2. per iteration, run a row-wise scan pass then a column-wise scan pass
   of the shift kernel over every quadrant, batch the resulting commands
   (merging mirror quadrants), and execute them;
3. in the paper-faithful ``PIPELINED`` scan mode the column pass analyses
   the iteration-start snapshot (the transpose stream of Fig. 6), so a
   few iterations are needed — the paper uses four;
4. restore everything to full-array coordinates (the frames do this per
   command) and emit one validated :class:`~repro.aod.MoveSchedule`.

The optional repair stage (not part of the paper's QRM) fixes residual
target defects with individual atom moves; see :mod:`repro.core.repair`.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.aod.schedule import MoveSchedule
from repro.config import (
    DEFAULT_QRM_PARAMETERS,
    MASK_SCAN_LIMIT,
    QrmParameters,
    ScanMode,
)
from repro.core.passes import Phase, PassOutcome, run_pass
from repro.core.result import IterationStats, RearrangementResult, timed_schedule
from repro.lattice.array import AtomArray
from repro.lattice.geometry import ArrayGeometry, Quadrant

#: Signature of a pass implementation (run_pass / run_pass_reference).
PassRunner = Callable[..., PassOutcome]


def resolve_scan_limits(
    geometry: ArrayGeometry, scan_limit
) -> dict[Phase, object]:
    """Resolve ``QrmParameters.scan_limit`` into per-phase pass arguments.

    Ints and ``None`` pass through unchanged; the ``"mask"`` sentinel
    becomes one ``{Quadrant: per-line bounds}`` mapping per phase,
    derived once from the geometry's target mask (row passes scan local
    rows, column passes scan local columns, so the two phases carry
    different line sets).
    """
    if scan_limit == MASK_SCAN_LIMIT:
        return {
            Phase.ROW: geometry.quadrant_mask_limits(axis=0),
            Phase.COLUMN: geometry.quadrant_mask_limits(axis=1),
        }
    return {Phase.ROW: scan_limit, Phase.COLUMN: scan_limit}


class QrmScheduler:
    """Compute a rearrangement schedule with the quadrant method.

    ``pass_runner`` selects the pass implementation: the vectorised
    :func:`~repro.core.passes.run_pass` by default, or
    :func:`~repro.core.passes.run_pass_reference` for the per-command
    oracle — the perf benchmark and the bit-identity property tests run
    both and compare.
    """

    name = "qrm"

    def __init__(
        self,
        geometry: ArrayGeometry,
        params: QrmParameters = DEFAULT_QRM_PARAMETERS,
        pass_runner: PassRunner = run_pass,
    ):
        self.geometry = geometry
        self.params = params
        self.pass_runner = pass_runner
        self.frames = {q: geometry.quadrant_frame(q) for q in Quadrant}
        self._scan_limits = resolve_scan_limits(geometry, params.scan_limit)
        self._batch_engine = None

    def schedule(self, array: AtomArray) -> RearrangementResult:
        """Analyse ``array`` and produce the full movement schedule."""
        if array.geometry != self.geometry:
            raise ValueError("array geometry does not match the scheduler's geometry")
        return timed_schedule(lambda: self._analyse(array))

    def schedule_batch(self, arrays: Iterable[AtomArray]) -> list[RearrangementResult]:
        """Batch-first entry point: schedule a stack of arrays in one call.

        With the production pass runner this delegates to the cross-trial
        :class:`~repro.core.batch.BatchQrmScheduler`, whose per-trial
        results are bit-identical to looping :meth:`schedule` but amortise
        NumPy dispatch across the stack.  The engine is constructed once
        and kept on the instance: its ``MoveInterner`` tables only pay off
        when they survive across calls, which is what makes a cached
        scheduler in the service's per-geometry LRU actually *warm*.  Any
        other ``pass_runner`` (the per-command reference oracle) falls
        back to the loop — the oracle stays strictly single-trial.
        """
        if self.pass_runner is run_pass:
            if self._batch_engine is None:
                from repro.core.batch import BatchQrmScheduler

                self._batch_engine = BatchQrmScheduler(self.geometry, self.params)
            return self._batch_engine.schedule_batch(arrays)
        return [self.schedule(array) for array in arrays]

    def _analyse(self, array: AtomArray) -> RearrangementResult:
        live = array.copy()
        moves = MoveSchedule(self.geometry, algorithm=self.name)
        iteration_stats: list[IterationStats] = []
        pass_records: list = []
        converged = False
        analysis_ops = 0
        pipelined = self.params.scan_mode is ScanMode.PIPELINED

        for index in range(self.params.n_iterations):
            snapshot = live.grid.copy() if pipelined else None

            row_outcome = self.pass_runner(
                live,
                self.frames,
                Phase.ROW,
                scan_source=live.grid,
                merge_mirror=self.params.merge_mirror_quadrants,
                guard=False,
                scan_limit=self._scan_limits[Phase.ROW],
            )
            col_source = snapshot if pipelined else live.grid
            col_outcome = self.pass_runner(
                live,
                self.frames,
                Phase.COLUMN,
                scan_source=col_source,
                merge_mirror=self.params.merge_mirror_quadrants,
                guard=pipelined,
                scan_limit=self._scan_limits[Phase.COLUMN],
            )

            moves.extend(row_outcome.moves)
            moves.extend(col_outcome.moves)
            pass_records.extend((row_outcome, col_outcome))
            analysis_ops += (
                row_outcome.n_scanned_bits
                + col_outcome.n_scanned_bits
                + row_outcome.n_commands
                + col_outcome.n_commands
            )
            iteration_stats.append(
                IterationStats(
                    index=index,
                    n_row_commands=row_outcome.n_commands,
                    n_col_commands=col_outcome.n_commands,
                    n_row_batches=row_outcome.n_batches,
                    n_col_batches=col_outcome.n_batches,
                    n_skipped_stale=col_outcome.n_skipped_stale,
                    n_skipped_empty=(
                        row_outcome.n_skipped_empty + col_outcome.n_skipped_empty
                    ),
                )
            )
            if row_outcome.n_commands == 0 and col_outcome.n_commands == 0:
                converged = True
                break

        result = RearrangementResult(
            algorithm=self.name,
            initial=array.copy(),
            final=live,
            schedule=moves,
            iterations=iteration_stats,
            converged=converged,
            analysis_ops=analysis_ops,
            pass_outcomes=pass_records,
        )

        if self.params.enable_repair:
            from repro.core.repair import repair_defects

            repair_outcome = repair_defects(
                live, max_moves=self.params.max_repair_moves
            )
            moves.extend(repair_outcome.moves)
            result.repair_moves = len(repair_outcome.moves)
            result.unresolved_defects = repair_outcome.unresolved

        return result

