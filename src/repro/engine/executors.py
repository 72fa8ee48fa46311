"""The process pool that sharded campaigns and sweeps map over.

The engine runs a list of payloads one of two ways, chosen from
:attr:`repro.flow.ExecutionConfig.pooled`: an in-process
loop (``executor="serial"``, or a single worker), or the warm
:class:`ProcessPoolExecutor` (``executor="process"`` with ``workers >
1``).  Both deliver results *in payload order* -- the only contract the
runner's map-reduce needs -- and the loop is the reference the pool must
match bit for bit.  :func:`_map_on_pool` is the one pool path: the
runner's shard maps and the sweep's cell maps both go through it.

Persistent-pool lifecycle
-------------------------

Worker pools are warm module-level state, keyed by ``(start method,
worker count)``: the first ``map`` that needs a pool forks (or spawns)
it, and every later ``map`` with the same shape reuses it -- across
executor instances, campaigns and sweeps.  That is the whole point:
pool startup, module imports and the per-process flow/``CompiledProgram``
caches (:mod:`repro.engine.runner`) are paid once per process lifetime
instead of once per ``map`` call, which is what used to make 2-worker
campaigns *slower* than serial.  The pools are reclaimed at interpreter
exit (``atexit``) or eagerly via :func:`shutdown_pools`; benchmarks call
:func:`warm_pool` first so pool startup never pollutes a timing window.

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
pool replaces the process, but the task's result never arrives).
``map`` therefore consumes results one at a time with a configurable
per-payload timeout (:attr:`repro.flow.ExecutionConfig.shard_timeout`);
on expiry the pool is terminated and evicted and
:class:`ShardTimeoutError` -- carrying the payload index -- is raised,
so a wedged campaign fails loudly instead of hanging.  Task exceptions,
by contrast, re-raise in the parent and leave the (healthy) pool warm.
"""

from __future__ import annotations

import atexit
import multiprocessing
import multiprocessing.pool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..obs import ProgressDispatcher, get_observer

__all__ = [
    "ExecutorError",
    "ShardTimeoutError",
    "ProcessPoolExecutor",
    "default_start_method",
    "warm_pool",
    "warm_pool_stats",
    "shutdown_pools",
]

P = TypeVar("P")
R = TypeVar("R")


class ExecutorError(RuntimeError):
    """The process pool failed outside the task function itself."""


class ShardTimeoutError(ExecutorError):
    """One payload exceeded the executor's per-shard timeout.

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
    """The start method the process executor pins when none is configured.

    ``fork`` wherever the platform offers it: workers inherit the
    parent's imported modules (cheap startup).
    Platforms without ``fork`` fall back to their own default -- in
    practice ``spawn`` on Windows and current macOS.
    """
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else multiprocessing.get_start_method()


#: Warm worker pools, keyed by ``(start method, worker count)``.  Module
#: state on purpose: pools persist across executor instances so flow and
#: program caches in the workers stay warm for a whole sweep.
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
    subsequent timed ``map`` (benchmarks!) measures shard execution, not
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


class ProcessPoolExecutor:
    """A persistent ``multiprocessing`` pool of worker processes.

    ``fn`` and the payloads must be picklable (the runner's task
    functions are module-level for exactly this reason).  Results come
    back in payload order regardless of completion order.  The
    underlying pool is shared module state (see the module docstring for
    the lifecycle): constructing an executor is cheap and does not start
    processes; the first ``map`` does, and later maps reuse them.

    Args:
        workers: pool size; must be >= 1.
        start_method: ``multiprocessing`` start method to pin
            (``fork``/``spawn``/``forkserver``); ``None`` uses
            :func:`default_start_method`.
        timeout: seconds to wait for *each* payload's result before
            declaring the pool wedged and raising
            :class:`ShardTimeoutError`; ``None`` waits forever (a dead
            worker then hangs the map -- configure a timeout for
            unattended campaigns).

    The engine never builds a one-worker pool: ``ExecutionConfig.pooled`` keeps
    ``ExecutionConfig(executor="process")`` at the default ``workers=1``
    on the in-process loop, so it pays no process or flow-rebuild
    overhead.
    """

    def __init__(
        self,
        workers: int,
        start_method: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        if start_method is not None:
            available = multiprocessing.get_all_start_methods()
            if start_method not in available:
                raise ValueError(
                    f"start method {start_method!r} is not available on this "
                    f"platform; choose from {available}"
                )
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive or None, got {timeout}")
        self.workers = workers
        self.start_method = start_method or default_start_method()
        self.timeout = timeout

    def map(
        self,
        fn: Callable[[P], R],
        payloads: Sequence[P],
        consume: Optional[Callable[[R], None]] = None,
    ) -> List[R]:
        """``fn`` over ``payloads`` on the pool, results in payload order.

        With ``consume``, each result is handed to it as soon as it is
        next in order and nothing is collected (the returned list is
        empty), so a caller that folds results holds only the ones still
        in flight.
        """
        if not payloads:
            return []
        with get_observer().span(
            "executor.map",
            backend="process",
            workers=min(self.workers, len(payloads)),
            payloads=len(payloads),
            start_method=self.start_method,
        ):
            return self._pool_map(fn, payloads, consume)

    def _pool_map(
        self,
        fn: Callable[[P], R],
        payloads: Sequence[P],
        consume: Optional[Callable[[R], None]],
    ) -> List[R]:
        pool = _pool(self.start_method, self.workers)
        try:
            # imap instead of map: results are consumed one at a time,
            # which is what makes a per-payload timeout possible at all
            # -- Pool.map offers no way to notice a worker that died
            # holding a task.
            iterator = pool.imap(fn, payloads, chunksize=1)
            results: List[R] = []
            emit = results.append if consume is None else consume
            for index in range(len(payloads)):
                try:
                    result = iterator.next(self.timeout)
                except multiprocessing.TimeoutError:
                    raise ShardTimeoutError(index, self.timeout) from None
                emit(result)
            return results
        except ShardTimeoutError:
            # The pool still holds the wedged/lost task: terminate it and
            # drop it from the warm cache so the next map starts fresh.
            _evict_pool(self.start_method, self.workers)
            raise
        # Task exceptions (re-raised by the pool in the parent) leave the
        # pool healthy and warm: no eviction.


def _map_on_pool(
    task: Callable[[P], Tuple[Any, ...]],
    payloads: Sequence[P],
    execution: Any,
    obs_config: Any,
    observer: Any,
    total: int,
    unit: str,
    resource_sampler: Callable[[], None],
    consume: Callable[[Tuple[Any, ...]], None],
) -> None:
    """Map ``task`` over ``payloads`` on the warm pool, in payload order.

    The pool is built from ``execution``'s ``workers``, ``start_method``
    and ``shard_timeout`` (the timeout applies per payload).

    Every task returns ``(*result, events)``: the trailing list holds
    the events its worker buffered (:func:`repro.obs.capture_events`).
    As each payload's output arrives (in payload order), its events are
    replayed into ``observer`` and then the bare ``result`` tuple goes
    to ``consume``, so the trace file holds every worker event once, in
    payload order, and the parent holds no payload's events or result
    longer than the fold needs.  When ``observer`` is active and the
    workers buffer (``obs_config.active``), the same events feed a
    :class:`~repro.obs.ProgressDispatcher` counting ``total`` ``unit``:
    the ``engine.progress`` events, the ``resource_sampler`` gauges and,
    with ``obs_config.progress``, the stderr progress line.
    """
    executor = ProcessPoolExecutor(
        execution.workers,
        start_method=execution.start_method,
        timeout=execution.shard_timeout,
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
            resource_sampler=resource_sampler,
        )

    def take(output: Tuple[Any, ...]) -> None:
        *result, events = output
        if events:
            observer.replay(events)
            if dispatcher is not None:
                dispatcher(events)
        consume(tuple(result))

    try:
        executor.map(task, payloads, take)
    finally:
        if dispatcher is not None:
            dispatcher.finish()
