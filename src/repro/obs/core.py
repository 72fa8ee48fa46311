"""The observer: spans, metric events and the process-wide current instance.

An :class:`Observer` is the one object instrumented code talks to.  It
fans schema events (:mod:`repro.obs.events`) out to its sinks; the one
aggregate of those events is :class:`~repro.obs.summary.TraceSummary`,
read back from the sink (:func:`~repro.obs.summary.summarize_events`).
The module also owns the *current* observer -- a process-global the
deep layers (artifact store, kernels, executors) read with
:func:`get_observer`, so instrumentation works without passing an
observer argument through every call chain.

The default current observer is :data:`NULL_OBSERVER`: ``active`` is
False, every method is a no-op, and ``span`` returns one shared null
context manager.  Hot paths guard with ``if obs.active:`` so the
untraced configuration pays nothing beyond an attribute check -- the
zero-overhead contract the bit-identity tests rely on.

Three usage shapes:

* the CLI (and any long-lived host) builds an observer from the flow's
  :class:`~repro.flow.config.ObservabilityConfig` via
  :func:`observer_from_config` and installs it with
  :func:`use_observer` around the whole command;
* a bare :class:`~repro.flow.DesignFlow` with an active obs config
  builds (and caches) its own observer lazily;
* engine workers wrap shard execution in :func:`capture_events`, which
  buffers everything into a list that travels back piggybacked on the
  shard result for the parent to :meth:`~Observer.replay`.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .events import make_event
from .profile import DEFAULT_PROFILE_TOP, SpanProfiler
from .sinks import BufferSink, ConsoleSink, JsonlSink, Sink

__all__ = [
    "Observer",
    "NULL_OBSERVER",
    "get_observer",
    "set_observer",
    "use_observer",
    "capture_events",
    "observer_from_config",
]


class _NullSpan:
    """The reusable no-op span of the null observer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """One timed section; emits start/end/error events around its body.

    When the observer profiles, the outermost span additionally brackets
    its body in a :class:`~repro.obs.profile.SpanProfiler` and emits a
    ``span.profile`` event after the closing ``span.end`` -- cProfile
    only allows one active profiler per interpreter, so nested spans run
    unprofiled inside the outer one (their frames show up in the outer
    span's hotspots).
    """

    __slots__ = ("_observer", "name", "attrs", "_start", "_profiler")

    def __init__(self, observer: "Observer", name: str, attrs: Dict[str, Any]) -> None:
        self._observer = observer
        self.name = name
        self.attrs = attrs
        self._start = 0.0
        self._profiler: Optional[SpanProfiler] = None

    def __enter__(self) -> "_Span":
        observer = self._observer
        observer._emit("span.start", self.name, attrs=self.attrs)
        if observer.profile and not observer._profiling:
            observer._profiling = True
            self._profiler = SpanProfiler(observer.profile_top)
            self._start = time.perf_counter()
            self._profiler.start()
        else:
            self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, traceback) -> bool:
        duration = time.perf_counter() - self._start
        observer = self._observer
        hotspots = None
        if self._profiler is not None:
            hotspots = self._profiler.stop()
            observer._profiling = False
            self._profiler = None
        if exc_type is None:
            observer._emit(
                "span.end", self.name, duration_s=duration, attrs=self.attrs
            )
        else:
            observer._emit(
                "span.error",
                self.name,
                duration_s=duration,
                error=f"{exc_type.__name__}: {exc}",
                attrs=self.attrs,
            )
        if hotspots:
            observer._emit(
                "span.profile",
                self.name,
                duration_s=duration,
                profile=hotspots,
                attrs=self.attrs,
            )
        return False


class Observer:
    """Fans events out to sinks.

    ``active`` is True for every observer with at least one sink (until
    its last sink fails); :data:`NULL_OBSERVER` has none.  Observers are
    context managers closing their sinks on exit.
    """

    def __init__(
        self,
        sinks: Sequence[Sink],
        profile: bool = False,
        profile_top: int = DEFAULT_PROFILE_TOP,
    ) -> None:
        self._sinks: Tuple[Sink, ...] = tuple(sinks)
        self.active = bool(self._sinks)
        self._seq = 0
        #: Wrap spans in cProfile and emit ``span.profile`` hotspot
        #: events (see :mod:`repro.obs.profile`).
        self.profile = bool(profile)
        self.profile_top = int(profile_top)
        self._profiling = False
        #: Sinks disabled after raising from ``emit`` -- one failing
        #: sink must never abort the run or starve its siblings.
        self._dead: set = set()
        #: The process that built this observer.  Forked pool workers
        #: inherit the parent's installed observer; comparing pids lets
        #: :func:`capture_events` spot the stale copy and buffer instead
        #: of emitting into sinks the parent will never see.
        self.pid = os.getpid()

    # ------------------------------------------------------------------- emit

    def _dispatch(self, event: Dict[str, Any]) -> None:
        """Hand one event to every live sink, isolating failures.

        Observability must never abort the observed computation: a sink
        that raises is disabled (with one stderr warning naming it) and
        its siblings keep receiving events.  When the last sink dies the
        observer deactivates, restoring the null-observer fast path.
        """
        for index, sink in enumerate(self._sinks):
            if index in self._dead:
                continue
            try:
                sink.emit(event)
            except Exception as error:  # noqa: BLE001 - isolation by design
                self._dead.add(index)
                print(
                    f"repro: {type(sink).__name__} sink disabled after "
                    f"error: {type(error).__name__}: {error}",
                    file=sys.stderr,
                )
        if self._dead and len(self._dead) == len(self._sinks):
            self.active = False

    def _emit(self, kind: str, name: str, **fields: Any) -> None:
        event = make_event(kind, name, seq=self._seq, **fields)
        self._seq += 1
        self._dispatch(event)

    def event(self, kind: str, name: str, **fields: Any) -> None:
        """Emit one event of an arbitrary schema kind.

        The generic escape hatch for kinds without a dedicated helper
        (the ``engine.progress`` events use it); span and
        metric emission should go through their typed methods.
        """
        if not self.active:
            return
        self._emit(kind, name, **fields)

    def span(self, name: str, **attrs: Any):
        """Context manager timing a section; emits start/end/error events."""
        if not self.active:
            return _NULL_SPAN
        return _Span(self, name, attrs)

    def counter(self, name: str, value: float = 1, **attrs: Any) -> None:
        """Emit a ``counter`` event: ``name`` grew by ``value``."""
        if not self.active:
            return
        self._emit("counter", name, value=value, attrs=attrs)

    def gauge(self, name: str, value: float, **attrs: Any) -> None:
        """Emit a ``gauge`` event: ``name`` now reads ``value``."""
        if not self.active:
            return
        self._emit("gauge", name, value=value, attrs=attrs)

    def histogram(self, name: str, value: float, **attrs: Any) -> None:
        """Emit a ``histogram`` event: one sample ``value`` of ``name``."""
        if not self.active:
            return
        self._emit("histogram", name, value=value, attrs=attrs)

    # ----------------------------------------------------------------- replay

    def replay(self, events: Iterable[Dict[str, Any]]) -> None:
        """Re-emit buffered worker events verbatim (ts/pid/seq preserved)."""
        if not self.active:
            return
        for event in events:
            self._dispatch(event)

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Close every sink (flushes the jsonl event log).

        A sink that raises on close is reported, not propagated -- the
        siblings still get their flush.
        """
        for sink in self._sinks:
            try:
                sink.close()
            except Exception as error:  # noqa: BLE001 - isolation by design
                print(
                    f"repro: {type(sink).__name__} sink failed to close: "
                    f"{type(error).__name__}: {error}",
                    file=sys.stderr,
                )

    def __enter__(self) -> "Observer":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        kinds = ", ".join(type(sink).__name__ for sink in self._sinks) or "none"
        return f"Observer(active={self.active}, sinks=[{kinds}])"


#: The inactive default: every operation is a no-op.
NULL_OBSERVER = Observer(())

_current: Observer = NULL_OBSERVER


def get_observer() -> Observer:
    """The process-wide current observer (:data:`NULL_OBSERVER` by default)."""
    return _current


def set_observer(observer: Optional[Observer]) -> Observer:
    """Install ``observer`` (or the null observer for ``None``); returns
    the previously installed one."""
    global _current
    previous = _current
    _current = observer if observer is not None else NULL_OBSERVER
    return previous


@contextmanager
def use_observer(observer: Observer):
    """Install ``observer`` as current for the duration of the block."""
    previous = set_observer(observer)
    try:
        yield observer
    finally:
        set_observer(previous)


def _build_observer(sinks: Sequence[Sink], config: Any) -> Observer:
    """An observer over ``sinks`` with the profiling flags of ``config``."""
    return Observer(sinks, profile=config.profile, profile_top=config.profile_top)


@contextmanager
def capture_events(config: Any):
    """Worker-side event capture: ``(observer, buffered_events)``.

    ``config`` is the flow's
    :class:`~repro.flow.config.ObservabilityConfig`; the buffering
    observer inherits its profiling flags, so ``span.profile`` events
    from worker processes ride back with the shard results like every
    other event.

    When the current observer is already active *in this process* (the
    in-process serial path under a CLI-installed observer) events are
    emitted directly and the buffer is ``None`` -- nothing travels, nothing
    is replayed twice.  A fork-started pool worker inherits the
    parent's installed observer, but emitting into that copy's sinks
    would be lost (or, for the jsonl sink, interleave appends from many
    processes); the pid stamp identifies the stale copy, and the worker
    buffers instead.  When ``config`` is active, a buffering observer is
    installed for the block and the caller ships the returned list back
    to the parent alongside its result.  The buffer holds plain
    JSON-able dicts, so it pickles through the process executor
    unchanged.

    This decision tree is deliberately independent of *how* the worker
    started and *when*: a spawn-started worker simply has no installed
    observer (fresh interpreter) and takes the config-driven buffering
    path, and a **persistent** pool worker -- which may have been forked
    before any observer existed in the parent, and which outlives any
    single campaign -- re-evaluates ``config.active`` from the flow spec
    on every shard, so the buffered-event piggybacking survives warm
    pools and every start method unchanged.  Events travel as plain
    dicts in the shard result tuple, through the pool's result pipe.
    """
    current = get_observer()
    if current.active and current.pid == os.getpid():
        yield current, None
        return
    if not config.active:
        if current.active:  # stale forked copy: silence it for the block
            with use_observer(NULL_OBSERVER):
                yield NULL_OBSERVER, None
        else:
            yield current, None
        return
    buffer: List[Dict[str, Any]] = []
    observer = _build_observer((BufferSink(buffer),), config)
    with use_observer(observer):
        yield observer, buffer


def observer_from_config(config: Any) -> Observer:
    """Build an observer from an :class:`~repro.flow.config.ObservabilityConfig`.

    ``trace`` adds a :class:`~repro.obs.sinks.JsonlSink` on that path,
    and a ``verbosity`` above 0 adds a
    :class:`~repro.obs.sinks.ConsoleSink` at that level.  A config that implies no sink returns
    :data:`NULL_OBSERVER`.
    """
    sinks: List[Sink] = []
    if config.trace is not None:
        sinks.append(JsonlSink(config.trace))
    if config.verbosity > 0:
        sinks.append(ConsoleSink(config.verbosity))
    if not sinks:
        return NULL_OBSERVER
    return _build_observer(sinks, config)
