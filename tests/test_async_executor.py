"""Tests for the asyncio-driven campaign executor."""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.campaign import (
    AsyncExecutor,
    CampaignSpec,
    ExperimentCampaign,
    SerialExecutor,
    make_executor,
)
from repro.errors import ConfigurationError


def _square(x: int) -> int:
    return x * x


def _boom(x: int) -> int:
    raise ValueError(f"boom on {x}")


def _slow_square(x: int) -> int:
    time.sleep(0.05)
    return x * x


def small_spec(**overrides) -> CampaignSpec:
    fields = dict(
        name="async-unit",
        algorithms=("qrm", "tetris"),
        sizes=(8,),
        fills=(0.5,),
        n_seeds=3,
    )
    fields.update(overrides)
    return CampaignSpec(**fields)


class TestAsyncExecutor:
    def test_yields_every_index_exactly_once(self):
        results = dict(AsyncExecutor(workers=2).run(_square, list(range(10))))
        assert results == {i: i * i for i in range(10)}

    def test_empty_items(self):
        assert list(AsyncExecutor(workers=2).run(_square, [])) == []

    def test_single_worker_degrades_to_serial(self):
        pairs = list(AsyncExecutor(workers=1).run(_square, [3, 4]))
        assert pairs == [(0, 9), (1, 16)]

    def test_campaign_aggregates_match_serial(self):
        spec = small_spec()
        serial = ExperimentCampaign(spec, executor=SerialExecutor()).run()
        fanned = ExperimentCampaign(spec, executor=AsyncExecutor(workers=2)).run()
        assert serial.to_csv() == fanned.to_csv()
        for a, b in zip(serial.aggregates, fanned.aggregates):
            assert a.cell == b.cell
            assert a.metrics == b.metrics

    def test_error_propagates(self):
        with pytest.raises(ValueError, match="boom"):
            dict(AsyncExecutor(workers=2).run(_boom, [1, 2, 3]))

    def test_early_close_cancels_cleanly(self):
        executor = AsyncExecutor(workers=2, max_in_flight=2)
        stream = executor.run(_slow_square, list(range(12)))
        first = next(stream)
        assert first[1] == first[0] ** 2
        started = time.perf_counter()
        stream.close()
        # Closing cancels the outstanding fan-out rather than draining
        # all 12 sleeps through 2 workers (~0.3 s).
        assert time.perf_counter() - started < 2.0

    def test_arun_for_async_callers(self):
        async def collect():
            results = {}
            async for index, value in AsyncExecutor(workers=2).arun(_square, [2, 3, 4]):
                results[index] = value
            return results

        assert asyncio.run(collect()) == {0: 4, 1: 9, 2: 16}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AsyncExecutor(workers=0)
        with pytest.raises(ConfigurationError):
            AsyncExecutor(max_in_flight=0)

    def test_backpressure_bound_defaults_to_twice_workers(self):
        executor = AsyncExecutor(workers=3)
        assert executor.max_in_flight is None  # resolved at run time
        assert executor._pool_size(100) == 3


class TestMakeExecutor:
    def test_kinds(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)
        # "process" is the same bounded-in-flight pool as "async".
        pooled = make_executor(4)
        assert isinstance(pooled, AsyncExecutor)
        assert pooled.workers == 4
        assert isinstance(make_executor(4, kind="serial"), SerialExecutor)
        fanned = make_executor(4, kind="async")
        assert isinstance(fanned, AsyncExecutor)
        assert fanned.workers == 4
        assert isinstance(make_executor(None, kind="async"), AsyncExecutor)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            make_executor(2, kind="quantum")
