"""Coverage of the speedup regression gate over the committed artefact.

Measures nothing: every check perturbs the committed ``BENCH_qrm.json``
and asks :func:`repro.analysis.perf_gate.check_perf_regression` whether
it noticed.  Each numeric leaf of the report is halved on its own; the
leaves the gate tracks must each produce exactly one failure naming that
ratio, and together they must name exactly the pinned label set — so a
component silently dropped from (or added to) the gate fails here.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.perf_gate import check_perf_regression

COMMITTED_BENCH = Path(__file__).resolve().parent.parent / "BENCH_qrm.json"

#: Every ratio the gate tracks at the committed 64x64 case.
GATED_LABELS = {
    "qrm@64 speedup_vs_seed",
    "qrm@64 speedup_vs_reference",
    *(
        f"{name}@64 speedup_vs_reference"
        for name in (
            "repair",
            "tetris",
            "psca",
            "mta1",
            "guarded_drain",
            "masked_qrm",
        )
    ),
    *(f"batched_qrm@64 B={n} speedup_vs_single" for n in (1, 8, 32, 128)),
    "service_latency@64 c=16 speedup_batched",
}


def _numeric_leaves(node, path=()):
    """Paths to every int/float leaf of a JSON payload."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numeric_leaves(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _numeric_leaves(value, path + (index,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


def _halved(payload: dict, path: tuple) -> dict:
    copy = json.loads(json.dumps(payload))
    node = copy
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] *= 0.5
    return copy


def test_gate_flags_each_tracked_ratio_alone():
    committed = json.loads(COMMITTED_BENCH.read_text())
    assert check_perf_regression(committed, committed) == []
    assert len(GATED_LABELS) == 13

    flagged: dict[str, list[tuple]] = {}
    for path in _numeric_leaves(committed):
        failures = check_perf_regression(_halved(committed, path), committed)
        assert len(failures) <= 1, (path, failures)
        if failures:
            label = failures[0].split(":", 1)[0]
            flagged.setdefault(label, []).append(path)

    assert set(flagged) == GATED_LABELS
    for label, paths in flagged.items():
        assert len(paths) == 1, (label, paths)
        assert paths[0][-1] in label


def test_gate_reports_every_slipping_ratio_at_once():
    committed = json.loads(COMMITTED_BENCH.read_text())
    slipped = committed
    for path in _numeric_leaves(committed):
        if check_perf_regression(_halved(committed, path), committed):
            slipped = _halved(slipped, path)
    failures = check_perf_regression(slipped, committed)
    assert {failure.split(":", 1)[0] for failure in failures} == GATED_LABELS
