"""campaign-mix: ``run_campaign`` rounds over a mixed scenario grid.

Each round is one campaign with the serial executor, a fresh journal
in a temporary directory and no trial cache, over these cells, four
seeds each:

* ``qrm``, ``tetris`` and ``psca`` on 16x16 and 32x32, with and
  without the default ``LossSpec``;
* a ring-masked ``qrm`` cell on 32x32 with Poisson loading;
* ``qrm`` at 50x50 -> 30x30 with the cycle-level FPGA model.

Rounds repeat, each with its own master seed, until the window ends.
A trial's latency is the time between the observer's consecutive
``trial_completed`` events; throughput counts trials over the time
spent inside ``run_campaign``.

Correctness, outside the timed window: each round's aggregate CSV must
equal the CSV of the same spec run with ``batch_size=8``.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from harness import (
    NullTracer,
    Outcome,
    SpeedTrack,
    Tracer,
    mean,
    min_samples,
    percentile,
    self_peak_rss_mb,
)

SEEDS_PER_CELL = 4
#: Host speed probes before each round (a round takes about a second).
PROBES_PER_ROUND = 3
#: Rounds per run stay below this, so master seeds never collide.
MAX_ROUNDS = 1000


def make_spec(master_seed: int, n_seeds: int = SEEDS_PER_CELL):
    from repro.campaign.spec import CampaignSpec, LossSpec, MaskSpec, ScenarioCell

    ring = ScenarioCell(
        algorithm="qrm",
        size=32,
        fill=0.5,
        mask=MaskSpec.of("ring"),
        loading="poisson",
    )
    paper = ScenarioCell(algorithm="qrm", size=50, target=30, fill=0.6, fpga=True)
    return CampaignSpec(
        name="perfbench-campaign-mix",
        algorithms=("qrm", "tetris", "psca"),
        sizes=(16, 32),
        fills=(0.5,),
        loss_models=(None, LossSpec()),
        n_seeds=n_seeds,
        master_seed=master_seed,
        extra_cells=(ring, paper),
    )


def trial_layer(cell) -> str:
    """The per-layer bucket a trial's ``run_trial`` time belongs to."""
    return "fpga.trial_ms" if cell.fpga else f"core.trial_ms.{cell.algorithm}"


class TrialClock:
    """Observer stamping each ``trial_completed``; the untraced timer."""

    def __init__(self) -> None:
        self.stamps: list[float] = []

    def campaign_started(self, spec, n_trials, n_cached) -> None:
        self.stamps.append(time.perf_counter())

    def trial_completed(self, trial, result, from_cache) -> None:
        self.stamps.append(time.perf_counter())

    def cell_completed(self, cell, aggregate) -> None:
        pass

    def campaign_completed(self, result) -> None:
        pass

    def intervals_ms(self) -> list[tuple[float, float]]:
        """(end time, milliseconds) per completed trial."""
        return [(b, (b - a) * 1e3) for a, b in zip(self.stamps, self.stamps[1:])]


class TracingExecutor(TrialClock):
    """Timing executor and observer in one, for the traced run.

    As executor it runs items serially like ``SerialExecutor`` and
    opens a ``campaign.trial`` span around a ``campaign.run_trial``
    span per item; as observer it closes the trial span when the engine
    has journalled the result.
    """

    def __init__(self, tracer: Tracer, parent: int, round_index: int) -> None:
        super().__init__()
        self.tracer = tracer
        self.parent = parent
        self.round_index = round_index
        self.run_trial_s: dict[str, list[float]] = {}
        self._trial_sid = None
        self._last_s = 0.0

    def run(self, fn, items):
        for index, item in enumerate(items):
            group = f"round-{self.round_index}-trial-{index}"
            self._trial_sid = self.tracer.begin("campaign.trial", group, self.parent)
            sid = self.tracer.begin("campaign.run_trial", group, self._trial_sid)
            outcome = fn(item)
            self.tracer.end(sid)
            self._last_s = self.tracer.spans[sid].duration
            yield index, outcome

    def trial_completed(self, trial, result, from_cache) -> None:
        self.tracer.end(self._trial_sid)
        self.run_trial_s.setdefault(trial_layer(trial.cell), []).append(self._last_s)
        super().trial_completed(trial, result, from_cache)


@dataclass
class Fixture:
    seed: int
    tmp: Path


@dataclass
class Window:
    first_round: int
    trials: int = 0
    failed: int = 0
    busy_s: float = 0.0
    wall_s: float = 0.0
    #: (end time, milliseconds) per completed trial.
    trial_ms: list = field(default_factory=list)
    fills: list = field(default_factory=list)
    journal_bytes: int = 0
    fpga_cycles: list = field(default_factory=list)
    moves: list = field(default_factory=list)
    run_trial_s: dict = field(default_factory=dict)
    #: (master seed, aggregate CSV) per round, for the batched check.
    csvs: list = field(default_factory=list)
    track: SpeedTrack = field(default_factory=SpeedTrack)
    next_round: int = 0

    def cost(self) -> float:
        """Seconds in ``run_campaign`` per trial at reference host speed."""
        return self.busy_s / self.trials / self.track.speed()


def setup(seed: int, ctx) -> Fixture:
    from repro.campaign.engine import run_campaign

    tmp = Path(tempfile.mkdtemp(prefix="campaign-", dir=ctx.work_dir))
    ctx.cleanup.push(lambda: shutil.rmtree(tmp, ignore_errors=True))
    # Warm-up: one seed per cell imports every algorithm and model.
    run_campaign(make_spec(seed * MAX_ROUNDS + MAX_ROUNDS - 1, n_seeds=1))
    return Fixture(seed=seed, tmp=tmp)


def _measure(fixture: Fixture, window: Window, seconds, min_n, tracer) -> None:
    from repro.campaign.engine import run_campaign
    from repro.campaign.executors import SerialExecutor
    from repro.campaign.journal import RunJournal
    from repro.errors import ReproError

    start = time.perf_counter()
    deadline = start + seconds
    index = window.first_round
    while time.perf_counter() < deadline or window.trials < min_n:
        if index >= MAX_ROUNDS - 1:
            raise RuntimeError("campaign-mix ran out of round seeds")
        group = f"round-{index}"
        sid = tracer.begin("bench.round", group)
        for _ in range(PROBES_PER_ROUND):
            window.track.probe()
        spec = make_spec(fixture.seed * MAX_ROUNDS + index)
        path = fixture.tmp / f"round-{index}.jsonl"
        journal = RunJournal.fresh(path)
        tracer.end(sid)
        run_sid = tracer.begin("campaign.run", group)
        if tracer.enabled:
            clock = executor = TracingExecutor(tracer, run_sid, index)
        else:
            clock, executor = TrialClock(), SerialExecutor()
        began = time.perf_counter()
        try:
            result = run_campaign(
                spec, executor=executor, observer=clock, journal=journal
            )
        except ReproError:
            result = None
        window.busy_s += time.perf_counter() - began
        tracer.end(run_sid)
        sid = tracer.begin("bench.round", group)
        journal.close()
        window.journal_bytes += path.stat().st_size
        path.unlink()
        done = len(clock.stamps) - 1 if clock.stamps else 0
        window.trial_ms.extend(clock.intervals_ms())
        window.trials += spec.n_trials
        window.failed += (spec.n_trials - done) if result is None else 0
        if result is not None:
            window.csvs.append((spec.master_seed, result.to_csv()))
            for aggregate in result.aggregates:
                fills = [aggregate.mean("target_fill")] * aggregate.trials
                window.fills.extend(fills)
                window.moves.extend([aggregate.mean("moves")] * aggregate.trials)
                if aggregate.cell.fpga:
                    window.fpga_cycles.append(aggregate.mean("fpga_cycles"))
        if tracer.enabled:
            for layer, seconds_list in clock.run_trial_s.items():
                window.run_trial_s.setdefault(layer, []).extend(seconds_list)
        tracer.end(sid)
        index += 1
    window.wall_s = time.perf_counter() - start
    window.next_round = index


def run(fixture: Fixture, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    plain = Window(first_round=0)
    if trace:
        _measure(fixture, plain, seconds / 2, 0, NullTracer())
        traced = Window(first_round=plain.next_round)
        tracer = Tracer()
        _measure(fixture, traced, seconds / 2, 0, tracer)
        windows = [plain, traced]
        outcome.tracer = tracer
        outcome.traced_wall_s = traced.wall_s
        outcome.layers = _layers(plain, traced)
    else:
        _measure(fixture, plain, seconds, min_samples(95), NullTracer())
        windows = [plain]
        trial_ms = [ms / plain.track.speed_at(t) for t, ms in plain.trial_ms]
        outcome.end_to_end = {
            "latency_ms.p50": percentile(trial_ms, 50, beyond=0),
            "latency_ms.p95": percentile(trial_ms, 95),
            "throughput_per_s": 1.0 / plain.cost(),
            "target_fill": mean(plain.fills),
        }
    outcome.peak_rss_mb = self_peak_rss_mb()
    outcome.attempted = sum(window.trials for window in windows)
    outcome.failed = sum(window.failed for window in windows)
    outcome.problems.extend(_check(windows))
    return outcome


def _check(windows: list[Window]) -> list[str]:
    from repro.campaign.engine import run_campaign

    problems = []
    for window in windows:
        for master_seed, csv in window.csvs:
            batched = run_campaign(make_spec(master_seed), batch_size=8).to_csv()
            if batched != csv:
                problems.append(
                    f"campaign-mix: master seed {master_seed} CSV differs "
                    f"from its batch_size=8 run"
                )
    return problems


def _layers(plain: Window, traced: Window) -> dict[str, float]:
    to_ms = 1e3 / traced.track.speed()
    run_trial_s = [s for values in traced.run_trial_s.values() for s in values]
    layers = {
        layer: mean(values) * to_ms for layer, values in traced.run_trial_s.items()
    }
    engine_s = (traced.busy_s - sum(run_trial_s)) / traced.trials
    layers.update(
        {
            "campaign.run_trial_ms": mean(run_trial_s) * to_ms,
            "campaign.engine_ms": engine_s * to_ms,
            "campaign.journal_bytes": traced.journal_bytes / traced.trials,
            "fpga.cycles": mean(traced.fpga_cycles),
            "core.moves": mean(traced.moves),
            "trace.overhead_ratio": traced.cost() / plain.cost() - 1.0,
            "trace.host_speed": traced.track.speed(),
        }
    )
    return layers
