"""The process pool that sharded campaigns and sweeps map over.

The engine runs a list of payloads one of two ways, chosen from
:class:`repro.flow.ExecutionConfig` by :func:`_uses_pool`: an in-process
loop (``executor="serial"``, or a single worker), or the warm
:class:`ProcessPoolExecutor` (``executor="process"`` with ``workers >
1``).  Both return results *in payload order* -- the only contract the
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
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..obs import LiveDispatcher, get_observer
from ..obs import live as obs_live

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

    When the map ran with the live channel attached, ``heartbeat_age``
    carries the seconds since the last ``worker.heartbeat`` arrived --
    the difference between "the workers are dead" (stale heartbeats)
    and "the shard is just slower than the timeout" (fresh ones), which
    the message spells out.  Without live telemetry both fields are
    ``None`` and the message is the classic one.
    """

    def __init__(
        self,
        payload_index: int,
        timeout: float,
        heartbeat_age: Optional[float] = None,
        heartbeat_s: Optional[float] = None,
    ) -> None:
        self.payload_index = payload_index
        self.timeout = timeout
        self.heartbeat_age = heartbeat_age
        self.heartbeat_s = heartbeat_s
        message = (
            f"payload {payload_index} did not complete within {timeout:g}s; "
            f"the worker pool was terminated (worker died or wedged?)"
        )
        if heartbeat_age is not None:
            # Within a few missed beats the worker was demonstrably alive
            # moments ago; far beyond that, it is presumed dead.
            interval = heartbeat_s if heartbeat_s else 1.0
            verdict = (
                "alive but slow?"
                if heartbeat_age <= 3.0 * interval
                else "dead since then?"
            )
            message += (
                f"; last worker heartbeat was {heartbeat_age:.1f}s ago ({verdict})"
            )
        super().__init__(message)

    def __reduce__(self):
        return (
            type(self),
            (self.payload_index, self.timeout, self.heartbeat_age, self.heartbeat_s),
        )


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

#: Each warm pool's live event channel, same key.  The queue is built
#: from the pool's own context *before* the pool (workers inherit it
#: through the initializer) and lives exactly as long as its pool.
_POOL_CHANNELS: Dict[Tuple[str, int], obs_live.LiveChannel] = {}


def _pool(start_method: str, workers: int) -> multiprocessing.pool.Pool:
    key = (start_method, workers)
    pool = _WARM_POOLS.get(key)
    if pool is None:
        context = multiprocessing.get_context(start_method)
        queue = context.Queue(obs_live.LIVE_QUEUE_SIZE)
        pool = context.Pool(
            processes=workers,
            initializer=obs_live.install_worker_channel,
            initargs=(queue,),
        )
        _WARM_POOLS[key] = pool
        _POOL_CHANNELS[key] = obs_live.LiveChannel(queue)
    return pool


def _pool_channel(start_method: str, workers: int) -> Optional[obs_live.LiveChannel]:
    return _POOL_CHANNELS.get((start_method, workers))


def _evict_pool(start_method: str, workers: int) -> None:
    pool = _WARM_POOLS.pop((start_method, workers), None)
    channel = _POOL_CHANNELS.pop((start_method, workers), None)
    if pool is not None:
        pool.terminate()
        pool.join()
    if channel is not None:
        channel.close()


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

    A resource gauge for the live telemetry; reads module state only.
    """
    return len(_WARM_POOLS), sum(key[1] for key in _WARM_POOLS)


def shutdown_pools() -> None:
    """Terminate every warm worker pool (idempotent).

    Registered with ``atexit``; call it directly to reclaim worker
    processes early or to force fresh workers.
    """
    while _WARM_POOLS:
        key, pool = _WARM_POOLS.popitem()
        channel = _POOL_CHANNELS.pop(key, None)
        pool.terminate()
        pool.join()
        if channel is not None:
            channel.close()
    while _POOL_CHANNELS:  # channels orphaned by direct _WARM_POOLS edits
        _, channel = _POOL_CHANNELS.popitem()
        channel.close()


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

    The engine never builds a one-worker pool: :func:`_uses_pool` keeps
    ``ExecutionConfig(executor="process")`` at the default ``workers=1``
    on the in-process loop, so it pays no process or flow-rebuild
    overhead.
    """

    #: How long ``_pool_map`` waits on the result iterator between live
    #: channel drains when a handler is attached.  Short enough that
    #: heartbeats surface promptly; long enough to stay off the hot path.
    live_poll_s = 0.1

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
        #: Optional live-event callback :func:`_map_on_pool` attaches
        #: before ``map``: called with each non-empty batch of events drained
        #: from the pool's live channel *while* the map is in flight.
        self.on_live_events: Optional[
            Callable[[List[Dict[str, Any]]], None]
        ] = None
        #: The configured worker heartbeat interval (seconds); only used
        #: to phrase :class:`ShardTimeoutError`'s liveness verdict.
        self.heartbeat_s: Optional[float] = None
        self._handler_warned = False

    def map(self, fn: Callable[[P], R], payloads: Sequence[P]) -> List[R]:
        if not payloads:
            return []
        with get_observer().span(
            "executor.map",
            backend="process",
            workers=min(self.workers, len(payloads)),
            payloads=len(payloads),
            start_method=self.start_method,
        ):
            return self._pool_map(fn, payloads)

    def _pool_map(self, fn: Callable[[P], R], payloads: Sequence[P]) -> List[R]:
        pool = _pool(self.start_method, self.workers)
        channel = _pool_channel(self.start_method, self.workers)
        streaming = channel is not None and self.on_live_events is not None
        if streaming:
            channel.drain()  # drop leftovers a previous map never consumed
        last_heartbeat: List[float] = []

        def pump() -> None:
            """Drain the live channel into the handler (never raises)."""
            nonlocal streaming
            if not streaming:
                return
            events = channel.drain()
            if not events:
                return
            if any(e.get("kind") == "worker.heartbeat" for e in events):
                last_heartbeat[:] = [time.monotonic()]
            try:
                self.on_live_events(events)
            except Exception as error:  # noqa: BLE001 - obs must not kill maps
                streaming = False
                if not self._handler_warned:
                    self._handler_warned = True
                    print(
                        f"repro: live event handler disabled after error: "
                        f"{type(error).__name__}: {error}",
                        file=sys.stderr,
                    )

        try:
            # imap instead of map: results are consumed one at a time,
            # which is what makes a per-payload timeout possible at all
            # -- Pool.map offers no way to notice a worker that died
            # holding a task.
            iterator = pool.imap(fn, payloads, chunksize=1)
            results: List[R] = []
            for index in range(len(payloads)):
                try:
                    if streaming:
                        results.append(self._next_streaming(iterator, pump))
                    else:
                        results.append(iterator.next(self.timeout))
                except multiprocessing.TimeoutError:
                    age = (
                        time.monotonic() - last_heartbeat[0]
                        if last_heartbeat
                        else None
                    )
                    raise ShardTimeoutError(
                        index,
                        self.timeout,
                        heartbeat_age=age,
                        heartbeat_s=self.heartbeat_s,
                    ) from None
                pump()
            pump()
            return results
        except ShardTimeoutError:
            # The pool still holds the wedged/lost task: terminate it and
            # drop it from the warm cache so the next map starts fresh.
            _evict_pool(self.start_method, self.workers)
            raise
        # Task exceptions (re-raised by the pool in the parent) leave the
        # pool healthy and warm: no eviction.

    def _next_streaming(self, iterator: Any, pump: Callable[[], None]) -> Any:
        """One result off ``iterator``, draining the live channel while
        waiting.

        The per-payload timeout contract is preserved exactly: the wait
        is chopped into ``live_poll_s`` slices with a pump between them,
        and ``multiprocessing.TimeoutError`` propagates once the total
        exceeds ``self.timeout``.
        """
        deadline = (
            time.monotonic() + self.timeout if self.timeout is not None else None
        )
        while True:
            wait = self.live_poll_s
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise multiprocessing.TimeoutError
                wait = min(wait, remaining)
            try:
                return iterator.next(wait)
            except multiprocessing.TimeoutError:
                pump()


def _uses_pool(execution: Any) -> bool:
    """Whether ``execution`` maps on the warm pool or the in-process loop.

    The one place the choice is made: the pool runs for
    ``executor="process"`` with more than one worker, the loop
    otherwise.  ``execution`` is a :class:`repro.flow.ExecutionConfig`.
    """
    return execution.resolved_executor == "process" and execution.workers > 1


def _map_on_pool(
    task: Callable[[P], Tuple[Any, ...]],
    payloads: Sequence[P],
    execution: Any,
    obs_config: Any,
    observer: Any,
    total: int,
    unit: str,
    resource_sampler: Callable[[], None],
) -> List[Tuple[Any, ...]]:
    """Map ``task`` over ``payloads`` on the warm pool, in payload order.

    The pool is built from ``execution``'s ``workers``, ``start_method``
    and ``shard_timeout`` (the timeout applies per payload).  When
    ``obs_config.live`` is set, a :class:`~repro.obs.LiveDispatcher`
    counting ``total`` ``unit`` feeds progress and heartbeats from the
    pool's live channel while the map runs.

    Every task returns ``(*result, events)``: the trailing list holds
    the events its worker buffered (:func:`repro.obs.capture_events`).
    They are replayed into ``observer`` in payload order -- live copies
    only fed the progress display, so this replay is their single
    delivery into the parent's sinks -- and the bare ``result`` tuples
    are returned.
    """
    executor = ProcessPoolExecutor(
        execution.workers,
        start_method=execution.start_method,
        timeout=execution.shard_timeout,
    )
    dispatcher = None
    if obs_config.live:
        dispatcher = LiveDispatcher(
            observer,
            total=total,
            unit=unit,
            # -q (verbosity 0) silences the rendered line like it
            # silences the console sink; the progress *events* still flow.
            progress=obs_config.progress and obs_config.verbosity > 0,
            resource_sampler=resource_sampler,
        )
        executor.on_live_events = dispatcher
        executor.heartbeat_s = obs_config.heartbeat_s
    try:
        results: List[Tuple[Any, ...]] = []
        for *result, events in executor.map(task, payloads):
            if events:
                observer.replay(events)
            results.append(tuple(result))
        return results
    finally:
        if dispatcher is not None:
            dispatcher.finish()
