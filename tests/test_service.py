"""Differential-oracle and behaviour tests for the scheduling service.

The service's whole contract is that remote scheduling is *bit-identical*
to local scheduling: same moves, same tags, same final grids, same
statistics, regardless of how requests interleave into micro-batch waves.
This suite drives a real server (on a background thread, loopback TCP)
through geometry x fill x concurrency and holds every response to the
local :class:`~repro.core.qrm.QrmScheduler` / registry scheduler with
:func:`tests.oracles.assert_results_identical`, then covers the service
behaviours around that core: wave coalescing counters, the warm
scheduler LRU, the JSON front door, error isolation between wave
siblings, client retry/timeout semantics, and the campaign-level
``executor="service"`` leg.
"""

from __future__ import annotations

import json
import socket
import time

import numpy as np
import pytest

from repro.baselines.base import register_algorithm, unregister_algorithm
from repro.campaign.engine import ExperimentCampaign
from repro.campaign.executors import make_executor
from repro.campaign.spec import CampaignSpec
from repro.errors import ConfigurationError, ServiceError, ServiceTimeoutError
from repro.lattice.array import AtomArray
from repro.lattice.geometry import ArrayGeometry
from repro.lattice.loading import load_uniform
from repro.service import (
    SchedulerCache,
    SchedulerKey,
    ServiceClient,
    ServiceExecutor,
    resolve_scheduler,
    serve_in_thread,
)
from repro.service.executor import parse_address

from tests.oracles import assert_results_identical


def key_for(geometry: ArrayGeometry, algorithm: str = "qrm") -> SchedulerKey:
    return SchedulerKey(
        geometry=(
            geometry.width,
            geometry.height,
            geometry.target_width,
            geometry.target_height,
        ),
        algorithm=algorithm,
    )


@pytest.fixture(scope="module")
def server():
    with serve_in_thread(batch_window=0.05, max_batch_size=32) as thread:
        yield thread


@pytest.fixture(scope="module")
def client(server):
    with ServiceClient(server.address) as client:
        yield client


# ---------------------------------------------------------------------------
# The differential oracle: remote == local, bit for bit
# ---------------------------------------------------------------------------


GEOMETRIES = (
    ArrayGeometry.square(8),
    ArrayGeometry.square(10, 6),
    ArrayGeometry(12, 8, 6, 4),  # non-square array, non-square target
)


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=lambda g: f"{g.width}x{g.height}")
@pytest.mark.parametrize("fill", (0.3, 0.6))
@pytest.mark.parametrize("algorithm", ("qrm", "tetris"))
def test_service_schedules_identical_to_local(client, geometry, fill, algorithm):
    key = key_for(geometry, algorithm)
    local = resolve_scheduler(key)
    for seed in range(3):
        array = load_uniform(geometry, fill, rng=seed)
        remote = client.schedule(key, array)
        assert_results_identical(remote, local.schedule(array))


@pytest.mark.parametrize("concurrency", (4, 16))
def test_concurrent_submissions_stay_identical(client, concurrency):
    # Whole stacks submitted at once coalesce into micro-batch waves
    # server-side; results must come back in submission order and match
    # fresh local scheduling exactly.
    geometry = ArrayGeometry.square(10)
    key = key_for(geometry)
    arrays = [
        load_uniform(geometry, 0.5, rng=seed) for seed in range(concurrency)
    ]
    remote_results = client.schedule_many(key, arrays)
    local = resolve_scheduler(key)
    for array, remote in zip(arrays, remote_results):
        assert_results_identical(remote, local.schedule(array))


def test_mixed_geometries_in_one_wave(client):
    # Interleaved submissions under two different scheduler keys ride the
    # same wave but are grouped per key — every response must match its
    # own geometry's local scheduler.
    keys = [key_for(g) for g in GEOMETRIES]
    futures = [
        (key, client.submit_schedule(key, array))
        for seed in range(4)
        for key, array in (
            (
                keys[seed % len(keys)],
                load_uniform(GEOMETRIES[seed % len(keys)], 0.5, rng=seed),
            ),
        )
    ]
    for key, future in futures:
        remote = future.result()
        local = resolve_scheduler(key)
        assert_results_identical(remote, local.schedule(remote.initial))


def test_results_arrive_without_pass_outcomes(client):
    # Pass outcomes are analysis-internal and dominate pickle size; the
    # server strips them before responding.
    geometry = ArrayGeometry.square(8)
    result = client.schedule(key_for(geometry), load_uniform(geometry, 0.5, rng=0))
    assert result.pass_outcomes == []


# ---------------------------------------------------------------------------
# Micro-batching and the warm scheduler cache
# ---------------------------------------------------------------------------


def test_waves_coalesce_concurrent_requests():
    with serve_in_thread(batch_window=0.2, max_batch_size=32) as thread:
        geometry = ArrayGeometry.square(8)
        key = key_for(geometry)
        arrays = [load_uniform(geometry, 0.5, rng=seed) for seed in range(8)]
        with ServiceClient(thread.address) as client:
            client.schedule_many(key, arrays)
            stats = client.stats()
    assert stats["requests"] == 8
    # The 0.2s window lets the whole stack pile into far fewer waves
    # than requests — concurrency actually amortises.
    assert stats["waves"] < 8
    assert stats["max_wave"] >= 2
    assert stats["batched_requests"] >= 2
    assert stats["native_batch_calls"] == stats["waves"]
    assert stats["fallback_calls"] == 0


def test_batching_off_schedules_alone():
    with serve_in_thread(max_batch_size=1) as thread:
        geometry = ArrayGeometry.square(8)
        key = key_for(geometry)
        arrays = [load_uniform(geometry, 0.5, rng=seed) for seed in range(5)]
        with ServiceClient(thread.address) as client:
            client.schedule_many(key, arrays)
            stats = client.stats()
    assert stats["waves"] == 5
    assert stats["max_wave"] == 1
    assert stats["batched_requests"] == 0


def test_scheduler_cache_stays_warm_and_evicts_lru():
    with serve_in_thread(cache_size=2) as thread:
        with ServiceClient(thread.address) as client:
            for geometry in (GEOMETRIES[0], GEOMETRIES[1], GEOMETRIES[0]):
                client.schedule(
                    key_for(geometry), load_uniform(geometry, 0.5, rng=0)
                )
            warm = client.stats()["cache"]
            # Third request reuses the first geometry's live scheduler.
            assert warm == {**warm, "misses": 2, "hits": 1, "evictions": 0}
            # A third distinct geometry overflows capacity 2 and evicts
            # the least recently used entry.
            geometry = GEOMETRIES[2]
            client.schedule(key_for(geometry), load_uniform(geometry, 0.5, rng=0))
            evicted = client.stats()["cache"]
            assert evicted["evictions"] == 1
            assert evicted["size"] == 2


def test_scheduler_cache_unit_counters():
    cache = SchedulerCache(capacity=1)
    key_a = key_for(ArrayGeometry.square(8))
    key_b = key_for(ArrayGeometry.square(10))
    first = cache.get(key_a)
    assert cache.get(key_a) is first
    cache.get(key_b)
    assert key_a not in cache
    assert cache.stats() == {
        "size": 1,
        "capacity": 1,
        "hits": 1,
        "misses": 2,
        "evictions": 1,
    }


# ---------------------------------------------------------------------------
# JSON front door
# ---------------------------------------------------------------------------


def json_roundtrip(address, *requests: dict) -> list[dict]:
    with socket.create_connection(address, timeout=10.0) as sock:
        with sock.makefile("rwb") as stream:
            for request in requests:
                stream.write(json.dumps(request).encode() + b"\n")
            stream.flush()
            return [json.loads(stream.readline()) for _ in requests]


def test_json_front_door_schedules(server):
    geometry = ArrayGeometry.square(8)
    array = load_uniform(geometry, 0.5, rng=0)
    (response,) = json_roundtrip(
        server.address,
        {
            "id": 7,
            "algorithm": "qrm",
            "size": 8,
            "grid": array.grid.astype(int).tolist(),
        },
    )
    local = resolve_scheduler(key_for(geometry)).schedule(array)
    assert response["id"] == 7
    assert response["ok"] is True
    assert response["algorithm"] == "qrm"
    assert response["moves"] == local.n_moves
    assert response["converged"] == local.converged
    assert len(response["schedule"]["moves"]) == local.n_moves


def test_json_front_door_stats_and_errors(server):
    ping, stats, bad = json_roundtrip(
        server.address,
        {"id": 1, "op": "ping"},
        {"id": 2, "op": "stats"},
        {"id": 3, "op": "schedule"},  # no grid
    )
    assert ping == {"id": 1, "ok": True, "value": "pong"}
    assert stats["ok"] is True and "waves" in stats["value"]
    assert bad["ok"] is False and "grid" in bad["error"]
    # Validation errors still echo the request id for correlation.
    assert bad["id"] == 3


def test_json_bad_requests_get_error_frames_with_their_ids(server):
    # Every line that parses as an object gets an error frame echoing its
    # id, whatever fails after that, and the connection stays usable.
    grid = load_uniform(ArrayGeometry.square(8), 0.5, rng=0).grid.astype(int).tolist()
    *bad, good = json_roundtrip(
        server.address,
        {"id": 3, "size": 8, "grid": [[1, 0], [1]]},  # ragged grid
        {"id": 4, "size": "x", "grid": grid},  # non-integer size
        {"id": 5, "size": 1, "grid": [[1]]},  # no such geometry
        {"id": 6, "size": 8, "grid": grid},
    )
    for request_id, response in zip((3, 4, 5), bad):
        assert response["id"] == request_id
        assert response["ok"] is False and response["error"]
    assert good["id"] == 6 and good["ok"] is True


def test_json_poison_params_do_not_stop_the_dispatcher():
    # A params key the scheduler factory rejects raises TypeError while
    # the wave resolves its scheduler.  It must come back as that
    # request's error frame, and the requests after it must still be
    # served.  A private server: a dead dispatcher would hang every later
    # test sharing the module fixture.
    geometry = ArrayGeometry.square(8)
    grid = load_uniform(geometry, 0.5, rng=0).grid.astype(int).tolist()
    responses = []
    with serve_in_thread(batch_window=0.002) as thread:
        with socket.create_connection(thread.address, timeout=5.0) as sock:
            with sock.makefile("rwb") as stream:
                for request_id, params in ((1, None), (2, {"bogus": 1}), (3, None)):
                    request = {"id": request_id, "size": 8, "grid": grid}
                    if params is not None:
                        request["params"] = params
                    stream.write(json.dumps(request).encode() + b"\n")
                    stream.flush()
                    responses.append(json.loads(stream.readline()))
    first, poison, after = responses
    assert first["id"] == 1 and first["ok"] is True
    assert poison["id"] == 2 and poison["ok"] is False
    assert "bogus" in poison["error"]
    assert after["id"] == 3 and after["ok"] is True


# ---------------------------------------------------------------------------
# Error paths and sibling isolation
# ---------------------------------------------------------------------------


def test_unknown_algorithm_errors_only_that_request(client):
    geometry = ArrayGeometry.square(8)
    good = client.submit_schedule(
        key_for(geometry), load_uniform(geometry, 0.5, rng=0)
    )
    bad = client.submit_schedule(
        key_for(geometry, "no-such-scheduler"),
        load_uniform(geometry, 0.5, rng=1),
    )
    with pytest.raises(ServiceError, match="no-such-scheduler"):
        bad.result()
    assert good.result().algorithm == "qrm"


def test_unknown_op_is_rejected(client):
    with pytest.raises(ServiceError, match="unknown op"):
        client._submit("bogus", None).result()


def test_malformed_grid_is_rejected(client):
    geometry = ArrayGeometry.square(8)
    payload = key_for(geometry).to_payload()
    payload["grid"] = np.ones((3, 3), dtype=bool)  # wrong shape
    with pytest.raises(ServiceError):
        client._submit("schedule", payload).result()


class _PoisonScheduler:
    """Schedules via tetris but explodes on all-empty frames."""

    name = "poison-prone"

    def __init__(self, geometry):
        from repro.baselines.tetris import TetrisScheduler

        self._inner = TetrisScheduler(geometry)

    def schedule(self, array: AtomArray):
        if not array.grid.any():
            raise RuntimeError("mid-analysis explosion on an empty frame")
        return self._inner.schedule(array)


def test_wave_sibling_isolation_on_mid_batch_failure():
    register_algorithm("poison-prone", lambda geometry: _PoisonScheduler(geometry))
    try:
        with serve_in_thread(batch_window=0.2, max_batch_size=32) as thread:
            geometry = ArrayGeometry.square(8)
            key = key_for(geometry, "poison-prone")
            arrays = [load_uniform(geometry, 0.5, rng=seed) for seed in range(4)]
            poison = AtomArray(geometry, np.zeros(geometry.shape, dtype=bool))
            with ServiceClient(thread.address) as client:
                futures = [
                    client.submit_schedule(key, array)
                    for array in arrays[:2] + [poison] + arrays[2:]
                ]
                with pytest.raises(ServiceError, match="explosion"):
                    futures[2].result()
                local = _PoisonScheduler(geometry)
                for array, future in zip(
                    arrays, futures[:2] + futures[3:]
                ):
                    assert_results_identical(
                        future.result(), local.schedule(array)
                    )
                stats = client.stats()
    finally:
        unregister_algorithm("poison-prone")
    assert stats["fallback_calls"] >= 1
    assert stats["errors"] == 1


# ---------------------------------------------------------------------------
# Client reliability: timeout, retry, reconnect
# ---------------------------------------------------------------------------


def test_request_timeout_exhausts_retries_and_raises():
    # A listener that accepts but never answers: every attempt times
    # out, and the wait raises once the retry budget is spent.
    with socket.create_server(("127.0.0.1", 0)) as mute:
        client = ServiceClient(
            mute.getsockname(),
            request_timeout=0.05,
            max_retries=1,
            backoff_base=0.01,
        )
        try:
            start = time.perf_counter()
            with pytest.raises(ServiceTimeoutError, match="no response"):
                client.ping()
            assert time.perf_counter() - start < 5.0
        finally:
            client.close()


def test_unreachable_service_raises_service_error():
    with socket.create_server(("127.0.0.1", 0)) as placeholder:
        free_port = placeholder.getsockname()[1]
    with pytest.raises(ServiceError, match="cannot reach"):
        ServiceClient(
            ("127.0.0.1", free_port), max_retries=0, backoff_base=0.01
        )


def test_client_reconnects_after_server_restart():
    first = serve_in_thread()
    host, port = first.address
    client = ServiceClient(
        (host, port), max_retries=8, backoff_base=0.05
    )
    try:
        assert client.ping()
        first.stop()
        second = serve_in_thread(host=host, port=port)
        try:
            # The receiver thread sees EOF, reconnects with backoff, and
            # the next request flows through the fresh server.
            assert client.ping()
            geometry = ArrayGeometry.square(8)
            array = load_uniform(geometry, 0.5, rng=0)
            remote = client.schedule(key_for(geometry), array)
            local = resolve_scheduler(key_for(geometry))
            assert_results_identical(remote, local.schedule(array))
        finally:
            second.stop()
    finally:
        client.close()


def test_client_close_is_prompt_after_server_stops():
    # The receiver thread is in its reconnect backoff (up to 12.75 s at
    # these settings) when close() runs; closing must cut it short.
    thread = serve_in_thread()
    client = ServiceClient(thread.address, max_retries=8, backoff_base=0.05)
    assert client.ping()
    thread.stop()
    time.sleep(0.1)
    start = time.perf_counter()
    client.close()
    assert time.perf_counter() - start < 1.0


def test_client_rejects_bad_configuration():
    with pytest.raises(ServiceError, match="max_in_flight"):
        ServiceClient(("127.0.0.1", 1), max_in_flight=0)


# ---------------------------------------------------------------------------
# Campaign integration: executor="service"
# ---------------------------------------------------------------------------


SPEC = CampaignSpec(
    name="service-oracle",
    algorithms=("qrm", "tetris"),
    sizes=(8, 10),
    fills=(0.4, 0.6),
    n_seeds=3,
    master_seed=11,
)


def test_service_executor_aggregates_byte_identical(server):
    serial = ExperimentCampaign(SPEC, cache=None).run()
    remote = ExperimentCampaign(
        SPEC, cache=None, executor=ServiceExecutor(server.address)
    ).run()
    assert remote.to_csv() == serial.to_csv()
    assert remote.to_csv(stats=True) == serial.to_csv(stats=True)


def test_service_executor_batched_trials_byte_identical(server):
    serial = ExperimentCampaign(SPEC, cache=None).run()
    remote = ExperimentCampaign(
        SPEC,
        cache=None,
        executor=ServiceExecutor(server.address),
        batch_size=8,
    ).run()
    assert remote.to_csv() == serial.to_csv()


def test_make_executor_service_kind():
    executor = make_executor(
        None, kind="service", service_addr="127.0.0.1:7421"
    )
    assert isinstance(executor, ServiceExecutor)
    assert executor.address == ("127.0.0.1", 7421)

    with pytest.raises(ConfigurationError, match="--service-addr"):
        make_executor(None, kind="service")
    with pytest.raises(ConfigurationError, match="only applies"):
        make_executor(None, kind="serial", service_addr="127.0.0.1:7421")


@pytest.mark.parametrize(
    "address", ("localhost", ":7421", "no-port:", "host:notaport")
)
def test_parse_address_rejects_malformed(address):
    with pytest.raises(ConfigurationError):
        parse_address(address)


def test_parse_address_accepts_both_forms():
    assert parse_address("0.0.0.0:80") == ("0.0.0.0", 80)
    assert parse_address(("::1", 443)) == ("::1", 443)
