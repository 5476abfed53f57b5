"""Tests for the benchmark's own helpers.

Run from the root of the repository::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from harness import (  # noqa: E402
    REFERENCE_PROBE_MS,
    Cleanup,
    Span,
    SpeedTrack,
    Tracer,
    accounting_ratio,
    check_accounting,
    layer_means,
    min_samples,
    percentile,
    self_time_by_name,
    self_times,
)

# -- percentile rule ---------------------------------------------------------


def test_p95_needs_two_hundred_samples():
    assert min_samples(95) == 200
    assert min_samples(99) == 1000
    assert min_samples(50, beyond=0) == 1


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))
    assert percentile(values, 95) == 190
    assert percentile(values, 50, beyond=0) == 100
    assert percentile(reversed(values), 95) == 190


def test_percentile_refuses_a_tail_it_did_not_observe():
    with pytest.raises(ValueError, match="need 10"):
        percentile(range(199), 95)


# -- span self time ----------------------------------------------------------


def spans(*rows):
    """Spans from ``(name, parent, start, end)`` rows, ids in row order."""
    return [
        Span(sid, name, "g", parent, start, end)
        for sid, (name, parent, start, end) in enumerate(rows)
    ]


def test_self_time_subtracts_children():
    tree = spans(
        ("shot", None, 0.0, 10.0),
        ("frame", 0, 1.0, 9.0),
        ("camera", 1, 1.0, 3.0),
        ("awg", 1, 4.0, 8.0),
    )
    assert self_times(tree) == {0: 2.0, 1: 2.0, 2: 2.0, 3: 4.0}


def test_self_time_counts_overlapping_children_once():
    tree = spans(
        ("parent", None, 0.0, 10.0),
        ("a", 0, 2.0, 6.0),
        ("b", 0, 4.0, 8.0),
    )
    assert self_times(tree)[0] == pytest.approx(4.0)


def test_self_time_clips_children_to_their_parent():
    tree = spans(("parent", None, 0.0, 5.0), ("child", 0, 3.0, 7.0))
    assert self_times(tree)[0] == pytest.approx(3.0)


def test_self_time_by_name_sums_and_counts():
    tree = spans(
        ("frame", None, 0.0, 4.0),
        ("awg", 0, 0.0, 1.0),
        ("frame", None, 4.0, 10.0),
        ("awg", 2, 5.0, 8.0),
    )
    assert self_time_by_name(tree) == {"frame": (6.0, 2), "awg": (4.0, 2)}
    assert layer_means(tree, {"awg": "awg_ms"}) == {"awg_ms": 2000.0}
    scaled = layer_means(tree, {"awg": "awg_ms", "gap": "gap_ms"}, speed=2.0)
    assert scaled == {"awg_ms": 1000.0, "gap_ms": 0.0}


def test_tracer_records_nested_spans():
    tracer = Tracer()
    outer = tracer.begin("outer", "req-1")
    inner = tracer.begin("inner", "req-1", outer)
    tracer.end(inner)
    tracer.end(outer)
    first, second = tracer.spans
    assert (first.parent, second.parent) == (None, outer)
    assert first.start <= second.start <= second.end <= first.end
    assert {span.group for span in tracer.spans} == {"req-1"}


# -- accounting check --------------------------------------------------------


def test_accounting_passes_when_spans_cover_the_wall_time():
    tree = spans(("a", None, 0.0, 4.5), ("b", None, 4.6, 9.5))
    assert accounting_ratio(tree, 10.0) == pytest.approx(0.94)
    assert check_accounting(tree, 10.0) is None


def test_accounting_fails_when_time_is_unexplained():
    tree = spans(("a", None, 0.0, 4.0), ("b", None, 5.0, 8.0))
    assert "0.700" in check_accounting(tree, 10.0)


def test_accounting_fails_when_spans_double_count():
    # A span that overlaps another without being its child counts twice.
    tree = spans(("a", None, 0.0, 10.0), ("b", None, 2.0, 6.0))
    assert check_accounting(tree, 10.0) is not None


def test_accounting_fails_on_an_open_span():
    tree = spans(("a", None, 0.0, math.nan))
    assert check_accounting(tree, 10.0) is not None


def test_accounting_rejects_a_zero_wall_time():
    with pytest.raises(ValueError):
        accounting_ratio([], 0.0)


# -- host speed --------------------------------------------------------------


def test_speed_at_averages_the_nearest_probes():
    track = SpeedTrack()
    track.LOCAL = 5
    track.times = [float(t) for t in range(10)]
    track.probe_ms = [REFERENCE_PROBE_MS * (1 + t) for t in range(10)]
    assert track.speed() == pytest.approx(5.5)
    assert track.speed_at(5.0) == pytest.approx(6.0)  # probes 3..7
    assert track.speed_at(-1.0) == pytest.approx(3.0)  # probes 0..4
    assert track.speed_at(99.0) == pytest.approx(8.0)  # probes 5..9


def test_speed_probe_takes_milliseconds():
    track = SpeedTrack()
    track.probe()
    assert 0.0 < track.probe_ms[0] < 1000.0


# -- cleanup -----------------------------------------------------------------


def test_cleanup_runs_every_callback_in_reverse_even_after_errors():
    calls = []
    cleanup = Cleanup()
    cleanup.push(lambda: calls.append("first"))
    cleanup.push(lambda: 1 / 0)
    cleanup.push(lambda: calls.append("last"))
    errors = cleanup.run()
    assert calls == ["last", "first"]
    assert errors == ["ZeroDivisionError: division by zero"]
    assert cleanup.run() == []


# -- entry point -------------------------------------------------------------


def test_run_fails_without_the_package_source(tmp_path):
    here = Path(__file__).resolve().parent.parent
    ignore = shutil.ignore_patterns("tests", "__pycache__")
    shutil.copytree(here, tmp_path / "perfbench", ignore=ignore)
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "loop-50"]
        + ["--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
