"""Schedule-construction performance benchmark harness (``repro bench``).

The paper's headline is that rearrangement analysis must be orders of
magnitude faster than a CPU reference, so this repository tracks its own
scheduling latency as a first-class artefact: ``repro bench`` times
schedule construction for QRM and the published baselines over a grid of
array sizes and fill fractions, and writes a machine-readable
``BENCH_qrm.json`` with mean/std/min/max per case.

The report also carries one before/after block per *component*.  The
``qrm`` block times the vectorised QRM hot path against the live
per-command reference oracle (:func:`repro.core.passes.run_pass_reference`)
and the pinned pre-vectorization seed implementation
(:mod:`repro.analysis.seed_baseline`); six more time a vectorised stage
against its live ``*_reference`` oracle (repair, Tetris, PSCA, MTA1, the
guarded pipelined-mode drain, and masked QRM+repair on a ring target);
two time a subsystem-level pair (cross-trial batching and service
micro-batching).

Each component is declared once, as a :class:`Component`: its name, a
setup generator that builds the inputs and the callables to time, the
schema its block must satisfy, the speedup ratios the CI gate tracks
(:mod:`repro.analysis.perf_gate`), and its one-line table summary.  One
timing loop (:func:`_time_blocks`) serves every declaration: implementations
are interleaved inside each trial so machine-load drift never lands on
one side only, every timed region is GC-swept first, and minima pool
across sweeps.  Raw timings are wall-clock and therefore machine- and
run-dependent, but every recorded *speedup* is a ratio of best-of minima
— reproducible enough to gate CI on (``repro bench --gate``).
Everything else (trial seeds, schedule sizes) is deterministic under
``master_seed``.
"""

from __future__ import annotations

import gc
import json
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Generator,
    Hashable,
    Iterator,
    Mapping,
    NamedTuple,
    Sequence,
)

import numpy as np

from repro.analysis.stats import Summary
from repro.analysis.tables import format_table
from repro.baselines.base import DEFAULT_ALGORITHMS, get_algorithm
from repro.lattice.geometry import ArrayGeometry
from repro.lattice.loading import load_uniform

#: Bump when the JSON layout changes (v8: the ``pipeline_latency``
#: component is gone with the thread-pipelined closed-loop driver it
#: compared against the sequential one).
BENCH_SCHEMA_VERSION = 8

DEFAULT_SIZES = (32, 64, 128)
DEFAULT_FILLS = (0.3, 0.5, 0.7)

#: Batch sizes the ``batched_qrm`` block sweeps.  1 exposes the pure
#: batching overhead, 8/32 the amortisation sweet spot, 128 the
#: cache-footprint decay on large stacks.
DEFAULT_BATCH_SIZES = (1, 8, 32, 128)

#: Client counts the ``service_latency`` block sweeps.  1 exposes the
#: pure batch-window latency cost, 4 the break-even region, 16 the
#: amortisation the service exists for.
DEFAULT_SERVICE_CONCURRENCIES = (1, 4, 16)

#: The production micro-batching window and wave cap the
#: ``service_latency`` block measures against batching off.
SERVICE_BATCH_WINDOW_S = 0.002
SERVICE_MAX_BATCH_SIZE = 32


@dataclass(frozen=True)
class BenchCase:
    """One (algorithm, size, fill) timing scenario."""

    algorithm: str
    size: int
    fill: float

    def label(self) -> str:
        return f"{self.algorithm} {self.size}x{self.size} fill={self.fill:g}"


def summary_dict(summary: Summary) -> dict:
    """JSON shape of a :class:`Summary` used throughout ``BENCH_*.json``."""
    return {
        "mean": summary.mean,
        "std": summary.std,
        "min": summary.minimum,
        "max": summary.maximum,
    }


@dataclass(frozen=True)
class BenchRecord:
    """Timing summary of one case over its seeded trials."""

    case: BenchCase
    wall_ms: Summary
    moves: Summary

    def to_dict(self) -> dict:
        return {
            "algorithm": self.case.algorithm,
            "size": self.case.size,
            "fill": self.case.fill,
            "trials": self.wall_ms.n,
            "wall_ms": summary_dict(self.wall_ms),
            "moves": summary_dict(self.moves),
        }


@dataclass
class PerfReport:
    """Everything one ``repro bench`` invocation measured.

    ``blocks`` maps component names to their measured blocks; the JSON
    layout files the ``qrm`` block under ``speedup`` and the rest under
    ``component_speedups``.
    """

    master_seed: int
    trials: int
    records: list[BenchRecord] = field(default_factory=list)
    blocks: dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": BENCH_SCHEMA_VERSION,
            "master_seed": self.master_seed,
            "trials": self.trials,
            "environment": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "platform": platform.platform(),
            },
            "entries": [record.to_dict() for record in self.records],
            # Every algorithm covers the full grid since the mta1
            # vectorisation, so no case is skipped any more; the key
            # stays for schema compatibility.
            "skipped": [],
            "speedup": self.blocks.get(QRM_SPEEDUP.name),
            "component_speedups": {
                c.name: self.blocks[c.name] for c in COMPONENTS if c.name in self.blocks
            },
        }

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    def format_table(self) -> str:
        headers = [
            "algorithm",
            "size",
            "fill",
            "trials",
            "wall_ms",
            "std",
            "min",
            "max",
            "moves",
        ]
        body = [
            [
                r.case.algorithm,
                r.case.size,
                r.case.fill,
                r.wall_ms.n,
                r.wall_ms.mean,
                r.wall_ms.std,
                r.wall_ms.minimum,
                r.wall_ms.maximum,
                r.moves.mean,
            ]
            for r in self.records
        ]
        parts = [
            format_table(
                headers,
                body,
                title="Schedule-construction wall time (per schedule)",
            )
        ]
        for component, _, block in component_blocks(self.to_dict()):
            if block is not None:
                parts.append(f"{component.name} {component.summary(block)}")
        return "\n".join(parts)


def _time_schedules(
    algorithm: str, size: int, fill: float, trials: int, master_seed: int
) -> tuple[Summary, Summary]:
    """Time ``trials`` seeded schedule constructions; returns (ms, moves)."""
    geometry = ArrayGeometry.square(size)
    scheduler = get_algorithm(algorithm, geometry)
    wall_ms: list[float] = []
    moves: list[float] = []
    for index in range(trials):
        array = load_uniform(geometry, fill, rng=master_seed + index)
        start = time.perf_counter()
        result = scheduler.schedule(array)
        wall_ms.append((time.perf_counter() - start) * 1e3)
        moves.append(float(result.n_moves))
    return Summary.of(wall_ms), Summary.of(moves)


# ---------------------------------------------------------------------------
# The timing loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Side:
    """One implementation a block times, under the sample key ``name``.

    ``sample`` maps ``(run's result, harness wall ms)`` to the recorded
    sample — e.g. an amortised per-item time, or a clock the timed work
    keeps itself; by default the harness wall time is recorded.
    """

    name: Hashable
    run: Callable[[Any], Any]
    sample: Callable[[Any, float], float] | None = None


@dataclass(frozen=True)
class Block:
    """Trials that share one steady state, each timing every side in turn.

    ``prepare`` (untimed) re-establishes the block's steady state before
    its trials; ``make_input`` builds each trial's input (untimed) from
    the trial index, which is the input itself when it is None.
    """

    trials: int
    sides: tuple[Side, ...]
    make_input: Callable[[int], Any] | None = None
    prepare: Callable[[], Any] | None = None


def _time_blocks(blocks: Sequence[Block], sweeps: int) -> dict[Hashable, Summary]:
    """Time every side of every block; one :class:`Summary` per side name.

    All sides run inside each trial, in order, so drift never lands on
    one side only (back-to-back blocks would charge it to whichever ran
    second).  Each timed region is GC-swept first.  The blocks run
    ``sweeps`` times over, so a side's minimum pools well-separated
    moments and one transient disturbance cannot inflate every repeat.
    """
    samples: dict[Hashable, list[float]] = {}
    for _ in range(sweeps):
        for block in blocks:
            if block.prepare is not None:
                block.prepare()
            for index in range(block.trials):
                trial_input = (
                    index if block.make_input is None else block.make_input(index)
                )
                for side in block.sides:
                    gc.collect()
                    start = time.perf_counter()
                    result = side.run(trial_input)
                    wall_ms = (time.perf_counter() - start) * 1e3
                    if side.sample is not None:
                        wall_ms = side.sample(result, wall_ms)
                    samples.setdefault(side.name, []).append(wall_ms)
    return {name: Summary.of(values) for name, values in samples.items()}


#: A component's setup: ``setup(size, fill, trials, master_seed)``
#: yields the blocks to time, receives their per-side summaries, and
#: returns the JSON block.  Yielding more than once times in stages —
#: e.g. one stage per service concurrency level, each with its own
#: servers held open across its sweeps.
Setup = Generator[Sequence[Block], Mapping[Hashable, Summary], dict]


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ratio:
    """One gated speedup ratio inside a component block.

    ``key`` names the ratio.  With ``entries`` set, every record of that
    list carries one, labelled ``"<tag>=<record[by]>"``; records are kept
    in ascending ``by`` order, and ``highest_only`` gates just the
    highest label both reports measured.
    """

    key: str
    entries: str | None = None
    by: str = ""
    tag: str = ""
    highest_only: bool = False

    def values(self, block: Mapping) -> dict[str, float]:
        """Label -> ratio for every instance of this ratio in ``block``."""
        if self.entries is None:
            return {self.key: block[self.key]}
        return {
            f"{self.tag}={entry[self.by]} {self.key}": entry[self.key]
            for entry in block[self.entries]
        }


@dataclass(frozen=True)
class Component:
    """Everything ``repro bench``, the validator and the gate know of one
    before/after measurement.

    ``schema`` maps each required block key to a checker (None checks
    presence only); ``sweeps`` is how often the timing loop runs its
    blocks.
    """

    name: str
    setup: Callable[[int, float, int, int], Setup]
    schema: Mapping[str, Callable[[Any, str], None] | None]
    gated: tuple[Ratio, ...]
    summary: Callable[[Mapping], str]
    sweeps: int = 1


def measure(
    name: str,
    size: int = 64,
    fill: float = 0.5,
    trials: int = 3,
    master_seed: int = 0,
) -> dict:
    """Measure the component declared as ``name``; returns its JSON block."""
    component = _DECLARED[name]
    setup = component.setup(size, fill, trials, master_seed)
    try:
        blocks = next(setup)
        while True:
            blocks = setup.send(_time_blocks(blocks, component.sweeps))
    except StopIteration as done:
        return done.value
    finally:
        setup.close()


# -- schema checkers: (value, context) -> None, raising ValueError ----------


def _summary(block: Any, context: str) -> None:
    for key in ("mean", "std", "min", "max"):
        if not isinstance(block.get(key), (int, float)):
            raise ValueError(f"{context}.{key} missing or non-numeric")
    if not block["min"] <= block["mean"] <= block["max"]:
        raise ValueError(f"{context}: min <= mean <= max violated")


def _number(value: Any, context: str) -> None:
    if not isinstance(value, (int, float)):
        raise ValueError(f"{context} missing or non-numeric")


def _positive(value: Any, context: str) -> None:
    _number(value, context)
    if value <= 0:
        raise ValueError(f"{context} must be positive")


def _positive_int(value: Any, context: str) -> None:
    if not isinstance(value, int) or value < 1:
        raise ValueError(f"{context} must be a positive int")


def _text(value: Any, context: str) -> None:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{context} must be a non-empty string")


def _check_record(record: Any, schema: Mapping, context: str) -> None:
    if not isinstance(record, Mapping):
        raise ValueError(f"{context} must be an object")
    for key, check in schema.items():
        if key not in record:
            raise ValueError(f"{context} missing {key!r}")
        if check is not None:
            check(record[key], f"{context}.{key}")


def _records(schema: Mapping) -> Callable[[Any, str], None]:
    """Checker for a non-empty list of records that each match ``schema``."""

    def check(entries: Any, context: str) -> None:
        if not isinstance(entries, list) or not entries:
            raise ValueError(f"{context} must be a non-empty list")
        for index, entry in enumerate(entries):
            _check_record(entry, schema, f"{context}[{index}]")

    return check


def _latency_mode(block: Any, context: str) -> None:
    """One service mode's latency record: percentiles ordered, cost > 0."""
    _check_record(
        block,
        {
            "requests": _number,
            "p50_ms": _number,
            "p95_ms": _number,
            "p99_ms": _number,
            "amortized_ms": _positive,
            "throughput_rps": _number,
        },
        context,
    )
    if not block["p50_ms"] <= block["p95_ms"] <= block["p99_ms"]:
        raise ValueError(f"{context}: p50 <= p95 <= p99 violated")


#: Keys every component block opens with; ``trials`` is always the
#: per-sweep trial count.
_CASE_SCHEMA = {"size": None, "fill": None, "trials": _positive_int}

_VS_REFERENCE_SCHEMA = {
    **_CASE_SCHEMA,
    "vectorized_ms": _summary,
    "reference_ms": _summary,
    "speedup_vs_reference": _positive,
}

_VS_REFERENCE = Ratio("speedup_vs_reference")


# -- shared setup pieces ----------------------------------------------------


def _loader(geometry: ArrayGeometry, fill: float, master_seed: int):
    """Trial index -> the seeded uniform load every component starts from."""
    return lambda index: load_uniform(geometry, fill, rng=master_seed + index)


def _reference_fields(
    size: int, fill: float, trials: int, timings: Mapping[Hashable, Summary]
) -> dict:
    return {
        "size": size,
        "fill": fill,
        "trials": trials,
        "vectorized_ms": summary_dict(timings["vectorized"]),
        "reference_ms": summary_dict(timings["reference"]),
        # Ratios of minima, not means: a single disturbed repeat can
        # double a mean on a shared box, while best-of minima are
        # reproducible — and these ratios feed the CI regression gate.
        "speedup_vs_reference": (
            timings["reference"].minimum / timings["vectorized"].minimum
        ),
    }


class _Pair(NamedTuple):
    """A vectorised path and its reference oracle, timed vectorised first.

    ``make_input`` builds each trial's input from its index; ``labels``
    are extra block fields that name the measured scenario.
    """

    make_input: Callable[[int], Any]
    vectorized: Callable[[Any], Any]
    reference: Callable[[Any], Any]
    labels: Mapping[str, Any] = {}


def _versus_reference_line(block: Mapping, scenario: str = "") -> str:
    return (
        f"{block['size']}x{block['size']}{scenario}: "
        f"vectorized {block['vectorized_ms']['mean']:.2f} ms, "
        f"reference {block['reference_ms']['mean']:.2f} ms -> "
        f"{block['speedup_vs_reference']:.1f}x vs reference"
    )


def _versus_reference(
    name: str,
    pair: Callable[[int, float, int], _Pair],
    label_schema: Mapping[str, Callable[[Any, str], None]] | None = None,
    summary: Callable[[Mapping], str] = _versus_reference_line,
) -> Component:
    """Declare a one-sweep component timing ``pair(size, fill, master_seed)``."""

    def setup(size: int, fill: float, trials: int, master_seed: int) -> Setup:
        make_input, vectorized, reference, labels = pair(size, fill, master_seed)
        sides = (Side("vectorized", vectorized), Side("reference", reference))
        timings = yield [Block(trials, sides, make_input)]
        return {**_reference_fields(size, fill, trials, timings), **labels}

    schema = {**_VS_REFERENCE_SCHEMA, **(label_schema or {})}
    return Component(name, setup, schema, (_VS_REFERENCE,), summary)


# -- qrm --------------------------------------------------------------------


def _qrm_setup(size: int, fill: float, trials: int, master_seed: int) -> Setup:
    """The QRM hot path under all three pass implementations.

    The vectorised, live-reference and pinned-seed (pre-vectorisation)
    timings plus their ratios are the before/after record the
    vectorisation is judged by.
    """
    from repro.analysis.seed_baseline import seed_run_pass
    from repro.core.passes import run_pass, run_pass_reference
    from repro.core.qrm import QrmScheduler

    geometry = ArrayGeometry.square(size)
    sides = tuple(
        Side(name, QrmScheduler(geometry, pass_runner=runner).schedule)
        for name, runner in (
            ("vectorized", run_pass),
            ("reference", run_pass_reference),
            ("seed", seed_run_pass),
        )
    )
    timings = yield [Block(trials, sides, _loader(geometry, fill, master_seed))]
    return {
        **_reference_fields(size, fill, trials, timings),
        "seed_ms": summary_dict(timings["seed"]),
        "speedup_vs_seed": timings["seed"].minimum / timings["vectorized"].minimum,
    }


def _qrm_line(block: Mapping) -> str:
    return (
        f"{block['size']}x{block['size']} hot path: "
        f"vectorized {block['vectorized_ms']['mean']:.2f} ms, "
        f"reference {block['reference_ms']['mean']:.2f} ms, "
        f"seed (pre-vectorisation) {block['seed_ms']['mean']:.2f} ms -> "
        f"{block['speedup_vs_seed']:.1f}x vs seed, "
        f"{block['speedup_vs_reference']:.1f}x vs reference"
    )


# -- vectorised stages vs their reference oracles ---------------------------


def _repair_pair(size: int, fill: float, master_seed: int) -> _Pair:
    """The repair stage under both implementations.

    Repair runs on realistic inputs: each trial's array is first
    compacted by QRM, so the timed defect pattern is the post-compaction
    residue the stage exists for.  Both implementations repair copies of
    the same arrays (repair mutates in place).
    """
    from repro.core.qrm import QrmScheduler
    from repro.core.repair import repair_defects, repair_defects_reference

    geometry = ArrayGeometry.square(size)
    scheduler = QrmScheduler(geometry)
    load = _loader(geometry, fill, master_seed)
    return _Pair(
        lambda index: scheduler.schedule(load(index)).final,
        lambda array: repair_defects(array.copy()),
        lambda array: repair_defects_reference(array.copy()),
    )


def _guarded_drain_pair(size: int, fill: float, master_seed: int) -> _Pair:
    """The guarded (pipelined-mode) column pass under both drains.

    The guarded drain is the paper's pipelined scan mode: the column
    pass analyses the iteration-start snapshot while executing against
    the live grid the row pass already changed.  Each trial reproduces
    exactly that state — a fresh load, one row pass — and then times the
    guarded column pass of the vectorised closed-form drain against the
    per-round reference, both draining copies of the same live grid.
    """
    from repro.core.passes import Phase, run_pass, run_pass_reference
    from repro.lattice.array import AtomArray
    from repro.lattice.geometry import Quadrant

    geometry = ArrayGeometry.square(size)
    frames = {q: geometry.quadrant_frame(q) for q in Quadrant}
    load = _loader(geometry, fill, master_seed)

    def make_input(index: int) -> tuple:
        array = load(index)
        snapshot = array.grid.copy()
        run_pass(array, frames, Phase.ROW, scan_source=array.grid)
        return array.grid, snapshot

    def column_pass(pass_runner) -> Callable[[tuple], None]:
        def run(trial_input: tuple) -> None:
            live, snapshot = trial_input
            pass_runner(
                AtomArray(geometry, live),  # AtomArray copies on ingest
                frames,
                Phase.COLUMN,
                scan_source=snapshot,
                guard=True,
            )

        return run

    return _Pair(make_input, column_pass(run_pass), column_pass(run_pass_reference))


def _masked_qrm_pair(size: int, fill: float, master_seed: int) -> _Pair:
    """The masked QRM+repair path under both implementations.

    The scenario is a ring target (outer radius ``0.35 * size``, inner
    ``0.15 * size``) with mask-derived per-line scan limits
    (``scan_limit="mask"``) and repair enabled — the configuration that
    exercises every mask-aware code path at once.  The vectorised side
    is the production scheduler; the reference side composes the
    per-command pass runner with :func:`~repro.core.repair.
    repair_defects_reference` on the pre-repair final array, so both
    sides schedule and repair identical masked states.
    """
    from repro.config import MASK_SCAN_LIMIT, QrmParameters
    from repro.core.passes import run_pass_reference
    from repro.core.qrm import QrmScheduler
    from repro.core.repair import repair_defects_reference
    from repro.lattice.mask import TargetMask

    outer = size * 0.35
    inner = size * 0.15
    mask = TargetMask.ring(size, size, outer_radius=outer, inner_radius=inner)
    geometry = ArrayGeometry.with_mask(size, size, mask)
    fast = QrmScheduler(
        geometry,
        QrmParameters(enable_repair=True, scan_limit=MASK_SCAN_LIMIT),
    )
    slow = QrmScheduler(
        geometry,
        QrmParameters(scan_limit=MASK_SCAN_LIMIT),
        pass_runner=run_pass_reference,
    )
    return _Pair(
        _loader(geometry, fill, master_seed),
        fast.schedule,
        lambda array: repair_defects_reference(slow.schedule(array).final.copy()),
        {
            "mask": f"ring(outer={outer:g},inner={inner:g})",
            "mask_sites": int(mask.n_sites),
        },
    )


def _registry_pair(name: str) -> Component:
    """A scheduler timed against its registered ``-reference`` oracle.

    Both sides resolve through the algorithm registry — the fast path
    under ``name`` and the per-command oracle under
    ``"<name>-reference"`` — so the perf suite measures exactly the pair
    every other consumer of the registry gets.
    """

    def pair(size: int, fill: float, master_seed: int) -> _Pair:
        geometry = ArrayGeometry.square(size)
        return _Pair(
            _loader(geometry, fill, master_seed),
            get_algorithm(name, geometry).schedule,
            get_algorithm(f"{name}-reference", geometry).schedule,
        )

    return _versus_reference(name, pair)


# -- batched_qrm ------------------------------------------------------------


def _batched_qrm_setup(size: int, fill: float, trials: int, master_seed: int) -> Setup:
    """The cross-trial batched QRM engine against serial scheduling.

    Measures the *steady state*: one :class:`~repro.core.batch.
    BatchQrmScheduler` and one serial :class:`~repro.core.qrm.
    QrmScheduler` are reused across all repeats (matching how the
    campaign engine drives them), with an unmeasured warm-up pass so the
    interned shift/tag pool and allocator are hot before the clock
    starts.  Batch sizes are timed smallest-first in isolated blocks —
    a 128-trial stack's result churn evicts enough cache to poison an
    adjacent small-batch repeat — with a serial repeat interleaved into
    every block.  The analysis is deterministic, so repeats discard
    nothing but jitter.  Amortised ms is whole-batch wall time divided
    by the batch size.
    """
    from repro.core.batch import BatchQrmScheduler
    from repro.core.qrm import QrmScheduler

    geometry = ArrayGeometry.square(size)
    serial = QrmScheduler(geometry)
    batched = BatchQrmScheduler(geometry)
    n_max = max(DEFAULT_BATCH_SIZES)
    load = _loader(geometry, fill, master_seed)
    arrays = [load(index) for index in range(n_max)]

    # Warm-up: populate the move interner and touch both code paths
    # before timing anything.
    batched.schedule_batch(arrays[:1])
    serial.schedule(arrays[0])

    single = Side("single", lambda index: serial.schedule(arrays[index % n_max]))

    def batch_block(n: int) -> Block:
        def run(_: int) -> list:
            return batched.schedule_batch(arrays[:n])

        # ``prepare`` re-establishes this batch size's steady-state
        # footprint before its timed repeats (the previous block's
        # differs).
        amortised = Side(n, run, sample=lambda _, wall_ms: wall_ms / n)
        return Block(trials, (single, amortised), prepare=lambda: run(0))

    timings = yield [batch_block(n) for n in sorted(DEFAULT_BATCH_SIZES)]
    return {
        "size": size,
        "fill": fill,
        "trials": trials,
        "single_ms": summary_dict(timings["single"]),
        "batches": [
            {
                "batch_size": n,
                "amortized_ms": summary_dict(timings[n]),
                "speedup_vs_single": timings["single"].minimum / timings[n].minimum,
            }
            for n in DEFAULT_BATCH_SIZES
        ],
    }


def _batched_qrm_line(block: Mapping) -> str:
    per_batch = ", ".join(
        f"B={b['batch_size']}: {b['amortized_ms']['mean']:.2f} ms "
        f"({b['speedup_vs_single']:.1f}x)"
        for b in block["batches"]
    )
    return (
        f"{block['size']}x{block['size']}: "
        f"single {block['single_ms']['mean']:.2f} ms/trial; "
        f"amortised {per_batch}"
    )


# -- service_latency --------------------------------------------------------


def _arm_round(clients: Sequence, arrays: Sequence, key: Any):
    """Start one closed-loop round: every client fires its requests back
    to back, recording per-request latency.

    The client threads start parked on a barrier; the returned
    ``release`` lets them go and joins them, so the timed region is only
    the round itself.  Returns ``(release, per-client latency lists)``.
    """
    import threading

    latencies: list[list[float]] = [[] for _ in clients]
    barrier = threading.Barrier(len(clients) + 1)

    def fire(w: int, client) -> None:
        barrier.wait()
        for array in arrays[w]:
            start = time.perf_counter()
            client.schedule(key, array)
            latencies[w].append((time.perf_counter() - start) * 1e3)

    threads = [
        threading.Thread(target=fire, args=(w, client), daemon=True)
        for w, client in enumerate(clients)
    ]
    for thread in threads:
        thread.start()

    def release() -> None:
        barrier.wait()
        for thread in threads:
            thread.join()

    return release, latencies


def _service_latency_setup(
    size: int, fill: float, trials: int, master_seed: int
) -> Setup:
    """Closed-loop scheduling requests through the service.

    For each concurrency level two servers run side by side — one with
    micro-batching off (``max_batch_size=1``), one with the production
    window — and that many closed-loop client threads each fire
    ``max(trials, 3)`` sequential QRM requests per round, recording
    per-request latency.  Rounds alternate unbatched/batched inside each
    sweep, with an unmeasured warm-up request per client so scheduler
    caches and connections are hot.

    Percentiles pool both sweeps' latencies; the amortised per-request
    cost is the *minimum* round wall over the sweeps divided by the
    round's request count — the same best-of minima convention every
    other gated ratio uses.  ``speedup_batched`` is the ratio of those
    amortised minima (unbatched / batched): above 1, concurrent clients
    pay less per schedule with batching on.  At concurrency 1 the ratio
    is *expected* to sit below 1 — a lone closed-loop client pays the
    full batch window on every request, the classic latency-for-
    throughput trade — which is why the regression gate only pins the
    highest measured concurrency.
    """
    from repro.service import SchedulerKey, ServiceClient, serve_in_thread

    requests = max(trials, 3)
    geometry = ArrayGeometry.square(size)
    key = SchedulerKey(
        geometry=(
            geometry.width,
            geometry.height,
            geometry.target_width,
            geometry.target_height,
        )
    )
    entries = []
    for clients_n in sorted(DEFAULT_SERVICE_CONCURRENCIES):
        arrays = [
            [
                load_uniform(geometry, fill, rng=master_seed + 1000 * w + index)
                for index in range(requests)
            ]
            for w in range(clients_n)
        ]
        with serve_in_thread(max_batch_size=1) as off_server, serve_in_thread(
            batch_window=SERVICE_BATCH_WINDOW_S, max_batch_size=SERVICE_MAX_BATCH_SIZE
        ) as on_server:
            pool = {
                name: [ServiceClient(server.address) for _ in range(clients_n)]
                for name, server in (("unbatched", off_server), ("batched", on_server))
            }
            latencies: dict[str, list] = {name: [] for name in pool}

            def round_block(name: str) -> Block:
                def arm(_: int) -> Callable[[], None]:
                    release, per_client = _arm_round(pool[name], arrays, key)
                    latencies[name].extend(per_client)
                    return release

                return Block(1, (Side(name, lambda release: release()),), arm)

            try:
                for clients in pool.values():
                    for w, client in enumerate(clients):
                        client.schedule(key, arrays[w][0])  # warm-up
                # One block per mode, unbatched first: each round's client
                # threads start just before its GC sweep and timed release.
                timings = yield [round_block(name) for name in pool]
            finally:
                for clients in pool.values():
                    for client in clients:
                        client.close()

        modes = {}
        for name in pool:
            samples = np.concatenate(latencies[name])
            amortized = timings[name].minimum / (clients_n * requests)
            modes[name] = {
                "requests": int(samples.size),
                "p50_ms": float(np.percentile(samples, 50)),
                "p95_ms": float(np.percentile(samples, 95)),
                "p99_ms": float(np.percentile(samples, 99)),
                "amortized_ms": amortized,
                "throughput_rps": 1e3 / amortized,
            }
        entries.append(
            {
                "clients": clients_n,
                "unbatched": modes["unbatched"],
                "batched": modes["batched"],
                "speedup_batched": (
                    modes["unbatched"]["amortized_ms"]
                    / modes["batched"]["amortized_ms"]
                ),
            }
        )
    return {
        "size": size,
        "fill": fill,
        "trials": requests,
        "batch_window_ms": SERVICE_BATCH_WINDOW_S * 1e3,
        "max_batch_size": SERVICE_MAX_BATCH_SIZE,
        "concurrency": entries,
    }


def _service_latency_line(block: Mapping) -> str:
    per_level = "; ".join(
        f"c={e['clients']}: p50 "
        f"{e['unbatched']['p50_ms']:.2f}->{e['batched']['p50_ms']:.2f} ms, p99 "
        f"{e['unbatched']['p99_ms']:.2f}->{e['batched']['p99_ms']:.2f} ms, "
        f"{e['speedup_batched']:.2f}x amortised"
        for e in block["concurrency"]
    )
    return (
        f"{block['size']}x{block['size']} (unbatched->batched, window "
        f"{block['batch_window_ms']:g} ms): {per_level}"
    )


# -- the declarations -------------------------------------------------------

#: The QRM hot-path block (``speedup`` in the JSON layout).  It and the
#: subsystem pairs run two sweeps; the reference-oracle pairs run one —
#: the mta1 reference alone takes seconds per call at 64x64.
QRM_SPEEDUP = Component(
    "qrm",
    _qrm_setup,
    {**_VS_REFERENCE_SCHEMA, "seed_ms": _summary, "speedup_vs_seed": _positive},
    (Ratio("speedup_vs_seed"), _VS_REFERENCE),
    _qrm_line,
    sweeps=2,
)

#: The per-component blocks (``component_speedups``), in measurement
#: order.  ``batched_qrm`` and ``service_latency`` run first: the
#: reference oracles after them (mta1's in particular) churn through
#: enough allocation to fragment the heap and depress batched throughput
#: measured later, and their ratios feed CI regression gates.
COMPONENTS: tuple[Component, ...] = (
    Component(
        "batched_qrm",
        _batched_qrm_setup,
        {
            **_CASE_SCHEMA,
            "single_ms": _summary,
            "batches": _records(
                {
                    "batch_size": _positive_int,
                    "amortized_ms": _summary,
                    "speedup_vs_single": _positive,
                }
            ),
        },
        (Ratio("speedup_vs_single", "batches", by="batch_size", tag="B"),),
        _batched_qrm_line,
        sweeps=2,
    ),
    Component(
        "service_latency",
        _service_latency_setup,
        {
            **_CASE_SCHEMA,
            "batch_window_ms": None,
            "max_batch_size": None,
            "concurrency": _records(
                {
                    "clients": _positive_int,
                    "unbatched": _latency_mode,
                    "batched": _latency_mode,
                    "speedup_batched": _positive,
                }
            ),
        },
        # Low-concurrency ratios are dominated by the batch window (an
        # intentional latency-for-throughput trade), so they wobble with
        # the window/schedule-time ratio rather than signal a regression.
        (
            Ratio(
                "speedup_batched",
                "concurrency",
                by="clients",
                tag="c",
                highest_only=True,
            ),
        ),
        _service_latency_line,
        sweeps=2,
    ),
    _versus_reference("repair", _repair_pair),
    _versus_reference("guarded_drain", _guarded_drain_pair),
    _versus_reference(
        "masked_qrm",
        _masked_qrm_pair,
        {"mask": _text, "mask_sites": _positive_int},
        lambda block: _versus_reference_line(block, f" {block['mask']}"),
    ),
    _registry_pair("tetris"),
    _registry_pair("psca"),
    _registry_pair("mta1"),
)

#: Names of the per-component blocks, in measurement order.
COMPONENT_NAMES = tuple(component.name for component in COMPONENTS)

_DECLARED = {c.name: c for c in (QRM_SPEEDUP, *COMPONENTS)}


def component_blocks(
    payload: Mapping,
) -> Iterator[tuple[Component, str, Mapping | None]]:
    """``(component, JSON path, block or None)`` for every declaration."""
    yield QRM_SPEEDUP, "speedup", payload.get("speedup")
    measured = payload.get("component_speedups") or {}
    for component in COMPONENTS:
        path = f"component_speedups[{component.name!r}]"
        yield component, path, measured.get(component.name)


def run_perf_suite(
    sizes: Sequence[int] = DEFAULT_SIZES,
    fills: Sequence[float] = DEFAULT_FILLS,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    trials: int = 3,
    master_seed: int = 0,
    speedup_size: int | None = 64,
    observer: Callable[[str], None] | None = None,
) -> PerfReport:
    """Time schedule construction over the benchmark grid.

    With ``speedup_size`` set, every declared component block is
    measured at that size (``None`` skips them, e.g. in CI smoke mode).
    """
    report = PerfReport(master_seed=master_seed, trials=trials)
    for algorithm in algorithms:
        for size in sizes:
            for fill in fills:
                case = BenchCase(algorithm=algorithm, size=size, fill=fill)
                if observer is not None:
                    observer(case.label())
                wall_ms, moves = _time_schedules(
                    algorithm, size, fill, trials, master_seed
                )
                report.records.append(
                    BenchRecord(case=case, wall_ms=wall_ms, moves=moves)
                )
    if speedup_size is not None:
        for name in _DECLARED:
            if observer is not None:
                observer(f"{name} speedup block at {speedup_size}x{speedup_size}")
            report.blocks[name] = measure(
                name, size=speedup_size, trials=trials, master_seed=master_seed
            )
    return report


# ---------------------------------------------------------------------------
# Schema validation
# ---------------------------------------------------------------------------

_ENTRY_SCHEMA = {
    "algorithm": None,
    "size": None,
    "fill": None,
    "trials": _positive_int,
    "wall_ms": _summary,
    "moves": _summary,
}


def validate_bench_report(payload: dict) -> None:
    """Raise :class:`ValueError` unless ``payload`` is a valid report.

    This is the machine-checked contract behind ``BENCH_*.json``: the
    schema version is pinned, every entry carries the summary keys with
    coherent min/mean/max, trial counts are positive and uniform across
    entries, and every component block matches its declared schema.
    ``tests/test_bench_schema.py`` holds both the committed artefact and
    freshly generated reports to it.
    """
    if payload.get("schema_version") != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"schema_version {payload.get('schema_version')!r} != "
            f"{BENCH_SCHEMA_VERSION}"
        )
    for key in ("master_seed", "trials", "environment", "entries", "skipped"):
        if key not in payload:
            raise ValueError(f"missing top-level key {key!r}")
    _positive_int(payload["trials"], "trials")

    for index, entry in enumerate(payload["entries"]):
        context = f"entries[{index}]"
        _check_record(entry, _ENTRY_SCHEMA, context)
        if entry["trials"] != payload["trials"]:
            raise ValueError(
                f"{context}.trials {entry['trials']} drifted from the "
                f"report-level {payload['trials']}"
            )

    for index, skip in enumerate(payload["skipped"]):
        _check_record(
            skip, dict.fromkeys(("algorithm", "size", "reason")), f"skipped[{index}]"
        )

    unknown = set(payload.get("component_speedups") or {}) - set(COMPONENT_NAMES)
    if unknown:
        raise ValueError(f"unknown component speedups {sorted(unknown)}")
    missing = []
    for component, path, block in component_blocks(payload):
        if block is None:
            missing.append(component.name)
        else:
            _check_record(block, component.schema, path)
    if payload.get("speedup") is not None and missing:
        raise ValueError(
            f"component_speedups missing {missing}; expected {list(COMPONENT_NAMES)}"
        )
