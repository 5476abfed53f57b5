"""QRM core: scan kernel, pass batching, schedulers, repair stage."""

from repro.core.batch import BatchQrmScheduler
from repro.core.passes import (
    MoveInterner,
    Phase,
    PassOutcome,
    batch_order_key,
    run_pass,
    run_pass_batch,
    run_pass_reference,
)
from repro.core.qrm import QrmScheduler
from repro.core.repair import RepairOutcome, repair_defects
from repro.core.result import IterationStats, RearrangementResult
from repro.core.scan import (
    LineScanResult,
    QuadrantScan,
    compact_line,
    current_hole_position,
    is_prefix_line,
    is_young_diagram,
    scan_axis,
    scan_line,
    scan_quadrant,
)
from repro.core.typical import TypicalScheduler

__all__ = [
    "BatchQrmScheduler",
    "IterationStats",
    "LineScanResult",
    "MoveInterner",
    "PassOutcome",
    "Phase",
    "QrmScheduler",
    "QuadrantScan",
    "RearrangementResult",
    "RepairOutcome",
    "TypicalScheduler",
    "batch_order_key",
    "compact_line",
    "current_hole_position",
    "is_prefix_line",
    "is_young_diagram",
    "repair_defects",
    "run_pass",
    "run_pass_batch",
    "run_pass_reference",
    "scan_axis",
    "scan_line",
    "scan_quadrant",
]
