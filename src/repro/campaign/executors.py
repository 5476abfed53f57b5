"""Pluggable trial executors.

The engine hands an executor a picklable function and a list of items;
the executor yields ``(index, result)`` pairs in whatever order the
trials finish.  The engine re-keys results, so completion order never
affects aggregates — which is what lets the serial and process-pool
executors produce bit-identical campaign results.

Two in-process families live here:

* :class:`SerialExecutor` — submission order, no concurrency;
* :class:`AsyncExecutor` — asyncio-driven process-pool fan-out with a
  bounded number of in-flight trials (backpressure) and cooperative
  cancellation when the consumer stops iterating.  It serves both the
  ``process`` and the ``async`` executor kinds.

Multi-host dispatch lives in :mod:`repro.campaign.dispatch` behind the
same protocol.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import multiprocessing
import os
from dataclasses import dataclass
from typing import Any, AsyncIterator, Callable, Iterator, Protocol, Sequence, TypeVar

from repro.errors import ConfigurationError

T = TypeVar("T")

#: Executor kinds accepted by :func:`make_executor` and the CLI.
EXECUTOR_KINDS = ("serial", "process", "async", "service", "distributed")


class CampaignExecutor(Protocol):
    """Anything that can map a function over trial specs."""

    def run(
        self, fn: Callable[[T], Any], items: Sequence[T]
    ) -> Iterator[tuple[int, Any]]:
        """Yield ``(index, fn(items[index]))`` in completion order."""
        ...


class SerialExecutor:
    """In-process execution, in submission order."""

    def run(
        self, fn: Callable[[T], Any], items: Sequence[T]
    ) -> Iterator[tuple[int, Any]]:
        for index, item in enumerate(items):
            yield index, fn(item)


@dataclass
class AsyncExecutor:
    """``asyncio``-driven process-pool fan-out with backpressure.

    Trials run in a ``concurrent.futures.ProcessPoolExecutor``; an
    asyncio event loop owns submission and completion.  At most
    ``max_in_flight`` trials are submitted to the pool at any moment (a
    semaphore provides the backpressure bound), results are yielded in
    completion order, and closing the result iterator early — or an
    exception escaping a trial — cancels every outstanding submission
    and shuts the pool down.

    The synchronous :meth:`run` drives a private event loop so the
    executor slots behind the same :class:`CampaignExecutor` protocol
    as the serial executor; async callers can consume :meth:`arun`
    directly from their own loop.

    Parameters
    ----------
    workers:
        Process-pool size; defaults to the CPU count, capped at the
        number of items.
    max_in_flight:
        Bound on concurrently submitted trials; defaults to twice the
        worker count, which keeps every worker busy without flooding
        the pool queue when trials are produced faster than they run.
    start_method:
        Forwarded to ``multiprocessing.get_context`` (None = platform
        default).
    """

    workers: int | None = None
    max_in_flight: int | None = None
    start_method: str | None = None

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        if self.max_in_flight is not None and self.max_in_flight < 1:
            raise ConfigurationError(
                f"max_in_flight must be >= 1, got {self.max_in_flight}"
            )

    def _pool_size(self, n_items: int) -> int:
        workers = self.workers or os.cpu_count() or 1
        return max(1, min(workers, n_items))

    async def arun(
        self, fn: Callable[[T], Any], items: Sequence[T]
    ) -> AsyncIterator[tuple[int, Any]]:
        """Async variant of :meth:`run` for callers that own a loop."""
        items = list(items)
        if not items:
            return
        workers = self._pool_size(len(items))
        bound = self.max_in_flight or 2 * workers
        loop = asyncio.get_running_loop()
        context = multiprocessing.get_context(self.start_method)
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=context
        )
        semaphore = asyncio.Semaphore(bound)

        async def submit(index: int, item: T) -> tuple[int, Any]:
            async with semaphore:
                return index, await loop.run_in_executor(pool, fn, item)

        tasks = [loop.create_task(submit(i, item)) for i, item in enumerate(items)]
        try:
            for future in asyncio.as_completed(tasks):
                yield await future
        finally:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            pool.shutdown(wait=True, cancel_futures=True)

    def run(
        self, fn: Callable[[T], Any], items: Sequence[T]
    ) -> Iterator[tuple[int, Any]]:
        items = list(items)
        if not items:
            return
        if self._pool_size(len(items)) == 1:
            yield from SerialExecutor().run(fn, items)
            return
        loop = asyncio.new_event_loop()
        stream = self.arun(fn, items)
        try:
            while True:
                try:
                    yield loop.run_until_complete(stream.__anext__())
                except StopAsyncIteration:
                    break
        finally:
            loop.run_until_complete(stream.aclose())
            loop.close()


def make_executor(
    workers: int | str | None,
    kind: str = "process",
    service_addr: str | tuple[str, int] | None = None,
) -> CampaignExecutor:
    """CLI helper mapping ``--workers``/``--executor`` to an executor.

    ``kind`` is one of :data:`EXECUTOR_KINDS`.  The default
    ``"process"`` kind builds an :class:`AsyncExecutor` over ``workers``
    processes, degrading to the serial executor for 0/1/None workers;
    ``"async"`` always builds an :class:`AsyncExecutor`, whose worker
    count defaults to the CPU count when ``workers`` is None;
    ``"service"`` runs trials as clients of a scheduling server
    (``repro serve``) and requires ``service_addr``; ``"distributed"``
    fans trials out across worker endpoints — ``workers`` is then
    ``"host:port[,host:port...]"`` naming running ``repro worker
    --listen`` daemons, or a count of local subprocess workers to
    launch.
    """
    if kind not in EXECUTOR_KINDS:
        raise ConfigurationError(
            f"unknown executor kind '{kind}'; choose from {EXECUTOR_KINDS}"
        )
    if kind == "distributed":
        if service_addr is not None:
            raise ConfigurationError(
                "--service-addr only applies to the service executor, "
                "not 'distributed'"
            )
        from repro.campaign.dispatch import DistributedExecutor, parse_workers

        return DistributedExecutor(workers=parse_workers(workers))
    if isinstance(workers, str):
        raise ConfigurationError(
            f"--workers {workers!r} (worker endpoints) only applies to "
            f"the distributed executor, not '{kind}'"
        )
    if kind == "service":
        if service_addr is None:
            raise ConfigurationError(
                "the service executor needs the server address "
                "(--service-addr host:port)"
            )
        from repro.service.executor import ServiceExecutor

        return ServiceExecutor(service_addr)
    if service_addr is not None:
        raise ConfigurationError(
            f"--service-addr only applies to the service executor, "
            f"not '{kind}'"
        )
    if kind == "serial":
        return SerialExecutor()
    if kind == "process" and (workers is None or workers <= 1):
        return SerialExecutor()
    return AsyncExecutor(workers=workers)
