"""Schema contract for the ``BENCH_qrm.json`` perf artefact.

``repro bench`` output is a committed, machine-readable artefact; this
suite pins its layout with :func:`repro.analysis.perf.validate_bench_report`
so a refactor cannot silently change the schema (or drop the speedup
provenance blocks) without failing the tier-1 run.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.perf import (
    BENCH_SCHEMA_VERSION,
    COMPONENT_NAMES,
    run_perf_suite,
    validate_bench_report,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
COMMITTED_BENCH = REPO_ROOT / "BENCH_qrm.json"


@pytest.fixture(scope="module")
def committed_payload() -> dict:
    return json.loads(COMMITTED_BENCH.read_text())


def test_committed_bench_artifact_validates(committed_payload):
    validate_bench_report(committed_payload)


def test_committed_bench_has_all_component_speedups(committed_payload):
    components = committed_payload["component_speedups"]
    assert set(components) == set(COMPONENT_NAMES)
    assert {"mta1", "guarded_drain", "batched_qrm"} <= set(components)
    for name, block in components.items():
        if name in ("batched_qrm", "service_latency"):
            continue  # pinned separately below — different block shapes
        assert block["speedup_vs_reference"] > 1.0


def test_committed_bench_service_latency_wins_at_high_concurrency(
    committed_payload,
):
    # The service's acceptance bar: micro-batching beats batching-off on
    # amortised per-request latency at concurrency 16 on the 64x64
    # headline case (pooled best-of minima on both sides).
    block = committed_payload["component_speedups"]["service_latency"]
    assert block["size"] == 64
    by_clients = {entry["clients"]: entry for entry in block["concurrency"]}
    assert 16 in by_clients
    assert by_clients[16]["speedup_batched"] > 1.0
    for entry in block["concurrency"]:
        for mode in ("unbatched", "batched"):
            assert entry[mode]["p50_ms"] <= entry[mode]["p99_ms"]
            assert entry[mode]["amortized_ms"] > 0


def test_committed_bench_batched_qrm_hits_the_speedup_bar(committed_payload):
    # The cross-trial batched engine's acceptance bar: >= 2x amortised
    # per-trial speedup at batch size 32 on the 64x64 headline case.
    block = committed_payload["component_speedups"]["batched_qrm"]
    assert block["size"] == 64
    by_batch = {entry["batch_size"]: entry for entry in block["batches"]}
    assert 32 in by_batch
    assert by_batch[32]["speedup_vs_single"] >= 2.0
    for entry in block["batches"]:
        assert entry["speedup_vs_single"] > 0
        assert entry["amortized_ms"]["mean"] > 0


def test_committed_bench_covers_mta1_on_the_full_grid(committed_payload):
    # The headline QRM-vs-MTA1 comparison must be regenerable at scale:
    # mta1 rides the whole default grid and is never in the skip list.
    from repro.analysis.perf import DEFAULT_SIZES

    mta1_sizes = {
        entry["size"]
        for entry in committed_payload["entries"]
        if entry["algorithm"] == "mta1"
    }
    assert mta1_sizes == set(DEFAULT_SIZES)
    assert all(skip["algorithm"] != "mta1" for skip in committed_payload["skipped"])


def test_fresh_report_validates_end_to_end():
    report = run_perf_suite(
        sizes=(8,),
        fills=(0.5,),
        algorithms=("qrm",),
        trials=1,
        master_seed=0,
        speedup_size=8,
    )
    payload = report.to_dict()
    assert payload["schema_version"] == BENCH_SCHEMA_VERSION
    validate_bench_report(payload)
    assert set(payload["component_speedups"]) == set(COMPONENT_NAMES)


def test_validator_rejects_schema_drift():
    report = run_perf_suite(
        sizes=(8,),
        fills=(0.5,),
        algorithms=("qrm",),
        trials=1,
        master_seed=0,
        speedup_size=None,
    )
    good = report.to_dict()
    validate_bench_report(good)

    stale = dict(good, schema_version=BENCH_SCHEMA_VERSION - 1)
    with pytest.raises(ValueError, match="schema_version"):
        validate_bench_report(stale)

    drifted = json.loads(json.dumps(good))
    drifted["entries"][0]["trials"] += 1
    with pytest.raises(ValueError, match="drifted"):
        validate_bench_report(drifted)

    broken = json.loads(json.dumps(good))
    del broken["entries"][0]["wall_ms"]["std"]
    with pytest.raises(ValueError, match="wall_ms"):
        validate_bench_report(broken)
