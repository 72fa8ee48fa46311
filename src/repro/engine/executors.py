"""The one map path of sharded campaigns and sweeps.

:func:`map_payloads` runs a list of payloads -- a campaign's shards or a
sweep's cells -- and hands each result to ``consume`` in payload order,
the only contract the runner's map-reduce needs.  It takes one of two
ways, chosen from :attr:`repro.flow.ExecutionConfig.pooled`: the
caller's in-process ``local`` callable in a loop
(``executor="serial"``, or a single worker), or the caller's picklable
``task`` on the warm worker pool (``executor="process"`` with
``workers > 1``).  The loop is the reference the pool must match bit
for bit, and a failed payload surfaces through the caller's ``fail``
on both paths.

Persistent-pool lifecycle
-------------------------

Worker pools are warm module-level state, keyed by ``(start method,
worker count)``: the first pooled map forks (or spawns) its pool, and
every later map with the same shape reuses it -- across campaigns and
sweeps.  Pool startup, module imports and the per-process
flow/``CompiledProgram`` caches (:mod:`repro.engine.runner`) are paid
once per process lifetime instead of once per map.  The pools are
reclaimed at interpreter exit (``atexit``) or eagerly via
:func:`shutdown_pools`; benchmarks call :func:`warm_pool` first so pool
startup never pollutes a timing window.

Start method
------------

The pool's ``multiprocessing`` start method is pinned explicitly via
``get_context`` rather than inherited from whatever the platform (or a
library) set globally: :func:`default_start_method` picks ``fork``
wherever the platform offers it (Linux -- cheap startup, workers inherit
the parent's imports) and falls back to the platform default (``spawn``
on Windows and current macOS) elsewhere.
:attr:`repro.flow.ExecutionConfig.start_method` overrides the choice per
flow; campaign results are bit-identical across start methods because
shard tasks rebuild everything from the picklable flow spec.

Timeouts
--------

A plain ``Pool.map`` blocks forever when a worker dies mid-task (the
pool replaces the process, but the task's result never arrives).  The
pool path therefore takes results one at a time with a per-payload
timeout (:attr:`repro.flow.ExecutionConfig.shard_timeout`); on expiry
the pool is terminated and evicted and the payload fails with a
:class:`ShardTimeoutError` -- carrying the payload index -- so a wedged
campaign fails loudly instead of hanging.  Task exceptions, by
contrast, re-raise in the parent and leave the (healthy) pool warm.
"""

from __future__ import annotations

import atexit
import functools
import multiprocessing
import multiprocessing.pool
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from ..obs import ProgressDispatcher, rss_bytes

__all__ = [
    "ShardTimeoutError",
    "map_payloads",
    "default_start_method",
    "warm_pool",
    "warm_pool_stats",
    "shutdown_pools",
]

P = TypeVar("P")
R = TypeVar("R")


class ShardTimeoutError(RuntimeError):
    """One payload exceeded the per-shard timeout.

    Raised in the parent after the worker pool has been terminated and
    evicted; ``payload_index`` identifies the payload whose result never
    arrived (typically because its worker died or wedged).
    """

    def __init__(self, payload_index: int, timeout: float) -> None:
        self.payload_index = payload_index
        self.timeout = timeout
        super().__init__(
            f"payload {payload_index} did not complete within {timeout:g}s; "
            f"the worker pool was terminated (worker died or wedged?)"
        )

    def __reduce__(self):
        return (type(self), (self.payload_index, self.timeout))


def default_start_method() -> str:
    """The start method the worker pool pins when none is configured.

    ``fork`` wherever the platform offers it: workers inherit the
    parent's imported modules (cheap startup).
    Platforms without ``fork`` fall back to their own default -- in
    practice ``spawn`` on Windows and current macOS.
    """
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else multiprocessing.get_start_method()


#: Warm worker pools, keyed by ``(start method, worker count)``.  Module
#: state on purpose: pools persist across maps so flow and program
#: caches in the workers stay warm for a whole sweep.
_WARM_POOLS: Dict[Tuple[str, int], multiprocessing.pool.Pool] = {}


def _pool(start_method: str, workers: int) -> multiprocessing.pool.Pool:
    key = (start_method, workers)
    pool = _WARM_POOLS.get(key)
    if pool is None:
        pool = multiprocessing.get_context(start_method).Pool(processes=workers)
        _WARM_POOLS[key] = pool
    return pool


def _evict_pool(start_method: str, workers: int) -> None:
    pool = _WARM_POOLS.pop((start_method, workers), None)
    if pool is not None:
        pool.terminate()
        pool.join()


def _warm_noop(_value: int) -> None:
    return None


def warm_pool(workers: int, start_method: Optional[str] = None) -> None:
    """Start (or verify) the warm pool for ``workers`` ahead of use.

    A no-op round trip through every worker proves the pool is up, so a
    subsequent timed map (benchmarks!) measures shard execution, not
    process startup.  ``workers < 2`` needs no pool and returns
    immediately.
    """
    if workers < 2:
        return
    method = start_method or default_start_method()
    _pool(method, workers).map(_warm_noop, range(workers), chunksize=1)


def warm_pool_stats() -> Tuple[int, int]:
    """``(warm pool count, worker processes across them)`` right now.

    A resource gauge for the progress events; reads module state only.
    """
    return len(_WARM_POOLS), sum(key[1] for key in _WARM_POOLS)


def shutdown_pools() -> None:
    """Terminate every warm worker pool (idempotent).

    Registered with ``atexit``; call it directly to reclaim worker
    processes early or to force fresh workers.
    """
    while _WARM_POOLS:
        _, pool = _WARM_POOLS.popitem()
        pool.terminate()
        pool.join()


atexit.register(shutdown_pools)


def _sample_gauges(observer: Any) -> None:
    """Sample the engine's resource state into ``observer``.

    It emits gauge events for the warm pool state (``executor.pools`` /
    ``executor.pool_workers``) and the parent's RSS (``proc.rss_mb``),
    all O(1) reads.  The artifact store is not sampled: its on-disk
    size takes a walk of every entry (``repro store stats``), and its
    accesses already reach the trace as ``store.hit`` / ``store.miss``
    / ``store.write`` counters.  A no-op when ``observer`` is inactive.
    """
    if not observer.active:
        return
    pools, pool_workers = warm_pool_stats()
    observer.gauge("executor.pools", pools)
    observer.gauge("executor.pool_workers", pool_workers)
    observer.gauge("proc.rss_mb", round(rss_bytes() / 1e6, 1))


def _guarded(
    task: Callable[[P], Any], fail: Callable[[P, Exception], Exception], payload: P
) -> Any:
    """Run ``task`` on a pool worker; its failure is wrapped by ``fail``
    before the error is pickled back to the parent."""
    try:
        return task(payload)
    except Exception as exc:
        raise fail(payload, exc) from exc


def _pool_outputs(
    task: Callable[[P], Any],
    payloads: Sequence[P],
    start_method: str,
    workers: int,
    timeout: Optional[float],
) -> Iterator[Any]:
    """``task`` over ``payloads`` on the warm pool, outputs in payload order.

    ``imap`` instead of ``map``: outputs arrive one at a time, which is
    what makes a per-payload timeout possible at all -- ``Pool.map``
    offers no way to notice a worker that died holding a task.  On a
    timeout the pool still holds the wedged or lost task: it is
    terminated and dropped from the warm cache, so the next map starts
    fresh.  Task exceptions re-raise here and leave the pool warm.
    """
    iterator = _pool(start_method, workers).imap(task, payloads, chunksize=1)
    for index in range(len(payloads)):
        try:
            output = iterator.next(timeout)
        except multiprocessing.TimeoutError:
            _evict_pool(start_method, workers)
            raise ShardTimeoutError(index, timeout) from None
        yield output


def map_payloads(
    payloads: Sequence[P],
    task: Callable[[P], Tuple[R, Optional[List[Dict[str, Any]]]]],
    local: Callable[[P], R],
    consume: Callable[[R], None],
    execution: Any,
    *,
    fail: Callable[[P, Exception], Exception],
    observer: Any,
    obs_config: Any,
    total: int,
    unit: str,
) -> None:
    """Run every payload and hand its result to ``consume``, in payload order.

    In process (``execution.pooled`` false) ``local(payload)`` runs in
    a loop and its result goes straight to ``consume``.  Otherwise
    ``task`` runs on the warm pool of ``execution.workers`` processes
    started by ``execution.start_method``, and returns ``(result,
    events)``: the trailing list holds the events its worker buffered
    (:func:`repro.obs.capture_events`).  As each output arrives, in
    payload order, its events are replayed into ``observer`` and then
    ``result`` goes to ``consume``, so the trace file holds every
    worker event once, in payload order, and the parent holds no
    payload's events or result longer than the fold needs.  When
    ``observer`` is active and the workers buffer (``obs_config.active``),
    the same events feed a :class:`~repro.obs.ProgressDispatcher`
    counting ``total`` ``unit``: the ``engine.progress`` events, the
    resource gauges and, with ``obs_config.progress``, the stderr
    progress line.

    A failed payload raises ``fail(payload, error)`` on both paths, so
    the error names it: when ``local``, ``task`` or ``consume`` raises
    ``error``, and when the payload's result is not back within
    ``execution.shard_timeout`` seconds (``error`` is then a
    :class:`ShardTimeoutError`, and the pool is evicted).  ``task`` and
    ``fail`` travel to the workers, so both must be module-level; a
    task's failure is wrapped in the worker, and ``fail`` must build a
    picklable error.
    """
    if not execution.pooled:
        for payload in payloads:
            try:
                consume(local(payload))
            except Exception as exc:
                raise fail(payload, exc) from exc
        return
    if not payloads:
        return
    start_method = execution.start_method or default_start_method()
    available = multiprocessing.get_all_start_methods()
    if start_method not in available:
        raise ValueError(
            f"start method {start_method!r} is not available on this "
            f"platform; choose from {available}"
        )
    dispatcher = None
    if observer.active and obs_config.active:
        dispatcher = ProgressDispatcher(
            observer,
            total=total,
            unit=unit,
            # -q (verbosity 0) silences the rendered line like it
            # silences the console sink; the progress *events* still flow.
            progress=obs_config.progress and obs_config.verbosity > 0,
            resource_sampler=lambda: _sample_gauges(observer),
        )
    outputs = _pool_outputs(
        functools.partial(_guarded, task, fail),
        payloads,
        start_method,
        execution.workers,
        execution.shard_timeout,
    )
    try:
        with observer.span(
            "executor.map",
            backend="process",
            workers=min(execution.workers, len(payloads)),
            payloads=len(payloads),
            start_method=start_method,
        ):
            for payload, (result, events) in zip(payloads, outputs):
                if events:
                    observer.replay(events)
                    if dispatcher is not None:
                        dispatcher(events)
                try:
                    consume(result)
                except Exception as exc:
                    raise fail(payload, exc) from exc
    except ShardTimeoutError as exc:
        raise fail(payloads[exc.payload_index], exc) from exc
    finally:
        if dispatcher is not None:
            dispatcher.finish()
