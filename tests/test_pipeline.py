"""Closed-loop pipeline: the sequential driver and its determinism.

The determinism contract of :mod:`repro.pipeline`: for any
:class:`PipelineConfig`, two runs emit byte-identical per-cycle traces —
same detected occupancy, same schedules, same post-loss truth, in the
same (shot, cycle) order — because every frame's RNG streams are
pre-spawned and the stage functions are pure.  Configs come from the
shared :func:`oracles.pipeline_configs` strategy.

Also covered here: stage-latency bookkeeping
(:class:`StageReport`), config validation, the multi-cycle campaign
axis (trial determinism and journal resume), and the ``repro pipeline``
CLI surface.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

from oracles import campaign_specs, pipeline_configs
from repro.campaign import (
    CampaignSpec,
    ExperimentCampaign,
    InterruptingObserver,
    LossSpec,
    RunJournal,
    ScenarioCell,
    TrialSpec,
    read_journal,
    run_trial,
)
from repro.cli import main
from repro.errors import ConfigurationError
from repro.lattice.mask import TargetMask
from repro.physics.loss import LossModel
from repro.pipeline import PipelineConfig, run_pipeline
from repro.timing.latency import (
    BUDGETED_STAGES,
    PIPELINE_STAGES,
    STAGE_SCHEDULE,
    StageReport,
)

#: Aggressive loss model: short vacuum lifetime so multi-cycle repair
#: loops actually have defects to repair on every cycle.
LOSS = LossModel(vacuum_lifetime_s=0.05)


# ---------------------------------------------------------------------------
# Determinism: a config fixes the trace byte for byte
# ---------------------------------------------------------------------------


class TestModeEquivalence:
    """Run-to-run equivalence of the sequential driver."""

    @given(config=pipeline_configs())
    @settings(max_examples=8, deadline=None)
    def test_rerun_is_deterministic(self, config):
        first = run_pipeline(config, "sequential")
        second = run_pipeline(config, "sequential")
        assert first.trace_lines() == second.trace_lines()

    def test_each_frame_imaged_and_detected_once(self):
        config = PipelineConfig(
            size=8, fill=0.5, shots=3, cycles=3, master_seed=5, loss=LOSS
        )
        result = run_pipeline(config, "sequential")
        calls = {key: timing.n_calls for key, timing in result.report.stages.items()}
        assert calls["camera"] == result.n_frames
        assert calls["detect"] == result.n_frames

    def test_trace_lines_are_canonical_json(self):
        config = PipelineConfig(size=6, fill=0.4, shots=2, cycles=2, loss=LOSS)
        result = run_pipeline(config, "sequential")
        for line in result.trace_lines():
            payload = json.loads(line)
            assert set(payload) == {
                "shot",
                "cycle",
                "occupancy",
                "threshold",
                "moves",
                "truth_after",
                "fill_after",
                "lost",
                "fallback",
            }
            assert all(set(row) <= {"#", "."} for row in payload["occupancy"])

    def test_frames_ordered_by_shot_then_cycle(self):
        config = PipelineConfig(size=6, fill=0.4, shots=3, cycles=3, loss=LOSS)
        result = run_pipeline(config, "sequential")
        order = [
            (json.loads(line)["shot"], json.loads(line)["cycle"])
            for line in result.trace_lines()
        ]
        assert order == sorted(order)


# ---------------------------------------------------------------------------
# Multi-cycle closed-loop behaviour
# ---------------------------------------------------------------------------


class TestClosedLoop:
    def test_lossless_run_converges_and_stops_early(self):
        # Without loss, one repair cycle fills the target and the next
        # detection retires the shot — extra cycle budget is untouched.
        config = PipelineConfig(size=8, fill=0.6, shots=1, cycles=4, master_seed=3)
        result = run_pipeline(config, "sequential")
        (shot,) = result.shots
        assert shot.converged
        assert len(shot.records) <= 2
        assert shot.records[-1].converged_at_detect or (
            shot.records[-1].defect_free_after
        )

    def test_lossy_run_uses_extra_cycles(self):
        config = PipelineConfig(
            size=8, fill=0.6, shots=2, cycles=3, master_seed=1, loss=LOSS
        )
        result = run_pipeline(config, "sequential")
        assert result.n_frames > len(result.shots)
        for shot in result.shots:
            cycles = [record.cycle for record in shot.records]
            assert cycles == list(range(len(cycles)))

    def test_fpga_timing_attaches_model_and_budget(self):
        config = PipelineConfig(
            size=8, fill=0.4, shots=1, cycles=1, master_seed=2, fpga_timing=True
        )
        result = run_pipeline(config, "sequential")
        assert result.modelled_fpga_us() is not None
        assert result.modelled_fpga_us() > 0
        comparison = result.hardware_comparison()
        assert comparison is not None
        assert "hardware budget" in comparison
        assert result.hardware_comparison() in result.format_summary()

    def test_no_fpga_timing_no_comparison(self):
        config = PipelineConfig(size=6, fill=0.4, shots=1, master_seed=2)
        result = run_pipeline(config, "sequential")
        assert result.modelled_fpga_us() is None
        assert result.hardware_comparison() is None

    def test_to_dict_round_trips_through_json(self):
        config = PipelineConfig(size=6, fill=0.5, shots=2, cycles=2, loss=LOSS)
        payload = json.loads(json.dumps(run_pipeline(config, "sequential").to_dict()))
        assert payload["mode"] == "sequential"
        assert payload["shots"] == 2
        assert payload["frames"] >= 2
        assert len(payload["trace_digest"]) == 64
        stages = {s["stage"] for s in payload["stage_report"]["stages"]}
        assert stages <= set(PIPELINE_STAGES)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"size": 1},
            {"fill": 1.5},
            {"fill": -0.1},
            {"shots": 0},
            {"cycles": 0},
            {"fpga_timing": True, "algorithm": "tetris"},
            {"size": 8, "target": 4, "mask": TargetMask.rect(8, 8, 4, 4)},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            PipelineConfig(**kwargs)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown pipeline mode"):
            run_pipeline(PipelineConfig(size=4), "warp")

    def test_pipelined_mode_removed(self):
        with pytest.raises(ConfigurationError, match="pipelined driver was removed"):
            run_pipeline(PipelineConfig(size=4), "pipelined")


# ---------------------------------------------------------------------------
# Stage-latency bookkeeping
# ---------------------------------------------------------------------------


class TestStageReport:
    def test_unknown_stage_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown pipeline stage"):
            StageReport().record("teleport", 1.0)

    def test_negative_elapsed_rejected(self):
        with pytest.raises(ConfigurationError):
            StageReport().record(STAGE_SCHEDULE, -1.0)

    def test_timed_accumulates(self):
        report = StageReport()
        with report.timed("camera"):
            pass
        with report.timed("camera"):
            pass
        timing = report.stages["camera"]
        assert timing.n_calls == 2
        assert timing.total_us >= timing.best_us * 2 >= 0
        assert timing.mean_us == timing.total_us / 2

    def test_ordered_follows_stage_vocabulary(self):
        report = StageReport()
        for stage in reversed(PIPELINE_STAGES):
            report.record(stage, 1.0)
        assert [t.stage for t in report.ordered()] == list(PIPELINE_STAGES)

    def test_busy_sums_stage_time(self):
        report = StageReport()
        report.record("camera", 30.0)
        report.record("detect", 30.0)
        report.wall_us = 80.0
        assert report.busy_us == pytest.approx(60.0)
        assert "wall 0.08 ms, busy 0.06 ms" in report.format()

    def test_compare_to_budget_covers_budgeted_stages(self):
        report = StageReport()
        for stage in PIPELINE_STAGES:
            report.record(stage, 10.0)
        table = report.compare_to_budget(
            {stage: 1.0 for stage in BUDGETED_STAGES}, "unit budget"
        )
        for stage in BUDGETED_STAGES:
            assert stage in table
        assert "replay" not in table

    def test_pipeline_report_covers_all_stages(self):
        config = PipelineConfig(size=6, fill=0.4, shots=2, cycles=2, loss=LOSS)
        result = run_pipeline(config, "sequential")
        assert result.report.wall_us >= result.report.busy_us > 0
        assert set(result.report.stages) <= set(PIPELINE_STAGES)
        assert "camera" in result.report.stages


# ---------------------------------------------------------------------------
# Campaign integration: the --cycles axis
# ---------------------------------------------------------------------------

CYCLES_CELL = ScenarioCell(
    algorithm="qrm",
    size=8,
    fill=0.5,
    loss=LossSpec(vacuum_lifetime_s=0.05),
    cycles=3,
)


class TestCampaignCycles:
    def test_trial_is_deterministic(self):
        trial = TrialSpec(cell=CYCLES_CELL, seed_index=0, master_seed=7)
        first = run_trial(trial)
        second = run_trial(trial)
        assert first.key == second.key
        assert dict(first.metrics) == dict(second.metrics)

    def test_trial_reports_cycles_used(self):
        trial = TrialSpec(cell=CYCLES_CELL, seed_index=0, master_seed=7)
        metrics = run_trial(trial).metrics
        assert 1 <= metrics["cycles_used"] <= CYCLES_CELL.cycles
        assert "survival" in metrics
        assert 0.0 <= metrics["survival"] <= 1.0

    def test_single_cycle_cell_unchanged_by_axis(self):
        # cycles=1 must keep the original (non-pipeline) trial path and
        # its instance key, so existing caches and journals stay valid.
        flat = ScenarioCell(algorithm="qrm", size=8, fill=0.5)
        looped = ScenarioCell(algorithm="qrm", size=8, fill=0.5, cycles=1)
        assert flat.instance_key() == looped.instance_key()
        assert "cycles" not in flat.label()

    def test_multi_cycle_label_and_dict(self):
        assert "cycles=3" in CYCLES_CELL.label()
        assert CYCLES_CELL.to_dict()["cycles"] == 3

    @given(spec=campaign_specs(max_seeds=2, cycles=(2, 3)))
    @settings(max_examples=5, deadline=None)
    def test_campaign_runs_deterministically(self, spec):
        first = ExperimentCampaign(spec).run()
        second = ExperimentCampaign(spec).run()
        assert first.to_csv() == second.to_csv()
        for aggregate in first.aggregates:
            assert "cycles_used" in aggregate.metrics

    def test_interrupted_cycles_campaign_resumes_identically(self, tmp_path):
        spec = CampaignSpec(
            name="cycles-resume",
            algorithms=("qrm",),
            sizes=(8,),
            fills=(0.5,),
            loss_models=(LossSpec(vacuum_lifetime_s=0.05),),
            n_seeds=4,
            cycles=2,
        )
        clean = ExperimentCampaign(spec).run()

        path = tmp_path / "run.jsonl"
        journal = RunJournal.fresh(path)
        with pytest.raises(KeyboardInterrupt):
            ExperimentCampaign(
                spec, journal=journal, observer=InterruptingObserver(after=2)
            ).run()
        journal.close()

        journal = RunJournal.resume(path)
        resumed = ExperimentCampaign(spec, journal=journal).run()
        journal.close()
        assert resumed.journal_replays == 2
        assert resumed.to_csv() == clean.to_csv()
        assert read_journal(path).completed


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestPipelineCli:
    ARGS = ["pipeline", "--size", "6", "--fill", "0.4", "--shots", "2", "--seed", "3"]

    def test_default_run_prints_stage_report(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "stage latency" in out

    def test_mode_option_removed(self, capsys):
        with pytest.raises(SystemExit):
            main(self.ARGS + ["--mode", "sequential"])

    def test_single_mode_trace_and_json(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        payload = tmp_path / "out.json"
        args = self.ARGS + [
            "--cycles",
            "2",
            "--loss",
            "--trace",
            str(trace),
            "--json",
            str(payload),
        ]
        assert main(args) == 0
        lines = trace.read_text().splitlines()
        assert lines
        assert all(json.loads(line)["shot"] in (0, 1) for line in lines)
        data = json.loads(payload.read_text())
        assert set(data) == {"sequential"}
        assert data["sequential"]["cycles"] == 2

    def test_cli_traces_identical_across_runs(self, tmp_path):
        traces = []
        for run in range(2):
            path = tmp_path / f"run{run}.txt"
            args = self.ARGS + ["--cycles", "2", "--loss"]
            assert main(args + ["--trace", str(path), "--quiet"]) == 0
            traces.append(path.read_bytes())
        assert traces[0] == traces[1]

    def test_campaign_cycles_flag(self, capsys):
        code = main(
            [
                "campaign",
                "--sizes",
                "6",
                "--fills",
                "0.5",
                "--seeds",
                "2",
                "--loss",
                "--cycles",
                "2",
                "--algorithms",
                "qrm",
            ]
        )
        assert code == 0
        assert "cycles" in capsys.readouterr().out
