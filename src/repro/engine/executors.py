"""Pluggable executors for sharded campaign execution.

An executor maps a picklable task function over a list of payloads and
returns the results *in payload order* -- the only contract the runner's
map-reduce needs.  Two backends ship built in:

* ``"serial"`` -- a plain in-process loop: the debugging backend, and
  the reference the parallel backends must match bit for bit;
* ``"process"`` -- a **persistent** pool of worker processes, the
  production backend for multi-core campaign throughput.

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

The flip side of persistence: a pool forked *before* a backend was
registered in the parent will not see that registration.  Campaign
workers resolve scenarios, simulators and assessment methods from their
own process's registries, so register custom backends at import time (a
module the workers also import), or call :func:`shutdown_pools` after
registering to force fresh workers.

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

Like the flow's other backends (:mod:`repro.flow.registry`), executors
are registered by name so alternative pools (clusters, thread pools for
GIL-free builds, instrumented test doubles) plug in without touching the
runner::

    register_executor("threads", lambda workers: MyThreadExecutor(workers))
    config = ExecutionConfig(workers=4, executor="threads")
"""

from __future__ import annotations

import atexit
import inspect
import multiprocessing
import multiprocessing.pool
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..flow.registry import Registry
from ..obs import get_observer
from ..obs import live as obs_live

__all__ = [
    "Executor",
    "ExecutorError",
    "ShardTimeoutError",
    "SerialExecutor",
    "ProcessPoolExecutor",
    "EXECUTORS",
    "register_executor",
    "get_executor",
    "default_start_method",
    "warm_pool",
    "warm_pool_stats",
    "shutdown_pools",
]

P = TypeVar("P")
R = TypeVar("R")


class ExecutorError(RuntimeError):
    """An executor backend failed outside the task function itself."""


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


class Executor:
    """Structural interface of an executor backend.

    ``map`` must evaluate ``fn`` over every payload and return the
    results in payload order; beyond that, scheduling is the backend's
    business.  Duck typing suffices; this class documents the contract.
    """

    #: Whether the backend can stream worker events to the parent
    #: mid-map through a live channel (:mod:`repro.obs.live`).  Backends
    #: that can set this and honour the ``on_live_events`` /
    #: ``heartbeat_s`` attributes the runner assigns before ``map``.
    supports_live_events = False

    def map(self, fn: Callable[[P], R], payloads: Sequence[P]) -> List[R]:
        raise NotImplementedError  # pragma: no cover - interface only


class SerialExecutor(Executor):
    """In-process, in-order execution (the debugging reference)."""

    def map(self, fn: Callable[[P], R], payloads: Sequence[P]) -> List[R]:
        return [fn(payload) for payload in payloads]


def default_start_method() -> str:
    """The start method the process executor pins when none is configured.

    ``fork`` wherever the platform offers it: workers inherit the
    parent's imported modules (cheap startup, registries populated).
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
    processes early or to force fresh workers after registering new
    backends in the parent.
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


class ProcessPoolExecutor(Executor):
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

    A one-worker pool is *effectively serial*: ``map`` runs in-process
    (no pool, no pickling) and the runner treats it like the serial
    executor, so ``ExecutionConfig(executor="process")`` at the default
    ``workers=1`` does not pay process or flow-rebuild overhead.
    """

    supports_live_events = True

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
        #: Optional live-event callback the runner attaches before
        #: ``map``: called with each non-empty batch of events drained
        #: from the pool's live channel *while* the map is in flight.
        self.on_live_events: Optional[
            Callable[[List[Dict[str, Any]]], None]
        ] = None
        #: The configured worker heartbeat interval (seconds); only used
        #: to phrase :class:`ShardTimeoutError`'s liveness verdict.
        self.heartbeat_s: Optional[float] = None
        self._handler_warned = False

    @property
    def effectively_serial(self) -> bool:
        return self.workers == 1

    def map(self, fn: Callable[[P], R], payloads: Sequence[P]) -> List[R]:
        if not payloads:
            return []
        if self.workers == 1:
            return [fn(payload) for payload in payloads]
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


#: Executor factories, keyed by backend name: ``(workers) -> Executor``.
EXECUTORS: Registry[Callable[..., Executor]] = Registry("executor")


def register_executor(
    name: str, factory: Callable[..., Executor], overwrite: bool = False
) -> None:
    """Register an executor factory under ``name``.

    The factory receives the configured worker count and returns an
    :class:`Executor`; the name becomes valid for
    :attr:`repro.flow.ExecutionConfig.executor` immediately.  Factories
    may optionally accept keyword options (``start_method``,
    ``timeout``); :func:`get_executor` only forwards the ones a
    factory's signature declares, so a plain ``(workers) -> Executor``
    factory keeps working unchanged.
    """
    EXECUTORS.register(name, factory, overwrite=overwrite)


def _accepted_options(
    factory: Callable[..., Executor], options: Dict[str, Any]
) -> Dict[str, Any]:
    """The subset of ``options`` that ``factory``'s signature accepts."""
    try:
        parameters = inspect.signature(factory).parameters.values()
    except (TypeError, ValueError):  # pragma: no cover - C callables
        return {}
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters):
        return dict(options)
    names = {
        p.name
        for p in parameters
        if p.kind
        in (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    }
    return {key: value for key, value in options.items() if key in names}


def get_executor(name: str, workers: int = 1, **options: Any) -> Executor:
    """A fresh executor of the backend registered under ``name``.

    ``options`` (e.g. ``start_method``, ``timeout``) are forwarded only
    when the registered factory accepts them -- ``None`` values are
    dropped first -- so minimal factories and fully-optioned ones share
    one call site in the runner.
    """
    factory = EXECUTORS.get(name)
    options = {key: value for key, value in options.items() if value is not None}
    if options:
        options = _accepted_options(factory, options)
    return factory(workers, **options)


register_executor("serial", lambda workers: SerialExecutor())
register_executor("process", ProcessPoolExecutor)
