"""Observability: structured tracing, metrics and progress events.

``repro.obs`` gives the whole stack -- flow stages, engine shards, the
artifact store, sweeps and the compiled kernels -- one way to say what
it is doing: an :class:`Observer` that times :meth:`~Observer.span`
sections, folds :meth:`~Observer.counter` / :meth:`~Observer.gauge` /
:meth:`~Observer.histogram` updates into a live
:class:`~repro.obs.metrics.MetricsRegistry`, and streams every event to
the named sinks (:data:`SINKS`): a JSONL trace file, console progress
lines on stderr, or the null sink.

The cardinal rule is *observation never changes the result*: events
carry timestamps and durations as side-channels only, workers buffer
their events and ship them back piggybacked on shard results (so the
process executor stays deterministic), and the default
:data:`NULL_OBSERVER` makes the untraced path a no-op.  A traced run's
traces and verdicts are bit-identical to an untraced one -- pinned by
test.

Enable it from a flow config::

    config = FlowConfig(obs=ObservabilityConfig(trace="events.jsonl"))

or from the CLI::

    repro sweep --axis sbox_bits=3,4 --trace events.jsonl --progress
    repro trace summary events.jsonl

On top of the durable buffered path, :mod:`repro.obs.live` streams a
throttled sample of worker events plus ``worker.heartbeat`` beats to
the parent *mid-shard* over a pool-owned queue -- the live rendering
behind ``--progress``, ``repro top`` and ``repro trace summary
--follow``.  The live channel is lossy by design and the buffer stays
canonical, so the cardinal rule holds unchanged.
"""

from .core import (
    NULL_OBSERVER,
    Observer,
    capture_events,
    get_observer,
    observer_from_config,
    set_observer,
    use_observer,
)
from .events import (
    EVENT_KINDS,
    LIVE_KINDS,
    METRIC_KINDS,
    PROFILE_KINDS,
    SCHEMA_VERSION,
    SPAN_KINDS,
    SUPPORTED_SCHEMA_VERSIONS,
    ObsError,
    make_event,
    validate_event,
)
from .live import (
    LiveChannel,
    LiveDispatcher,
    LiveSink,
    ProgressAggregator,
    install_worker_channel,
    rss_bytes,
    start_heartbeat,
    worker_queue,
    worker_task,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .profile import DEFAULT_PROFILE_TOP, SpanProfiler, hotspots_from_profile
from .sinks import (
    SINKS,
    BufferSink,
    ConsoleSink,
    JsonlSink,
    NullSink,
    Sink,
    get_sink,
)
from .summary import (
    SpanStats,
    TraceSummary,
    iter_trace_events,
    summarize_events,
    summarize_trace_file,
)

__all__ = [
    "Observer",
    "NULL_OBSERVER",
    "get_observer",
    "set_observer",
    "use_observer",
    "capture_events",
    "observer_from_config",
    "ObsError",
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "EVENT_KINDS",
    "SPAN_KINDS",
    "METRIC_KINDS",
    "PROFILE_KINDS",
    "LIVE_KINDS",
    "make_event",
    "validate_event",
    "SpanProfiler",
    "hotspots_from_profile",
    "DEFAULT_PROFILE_TOP",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Sink",
    "NullSink",
    "BufferSink",
    "JsonlSink",
    "ConsoleSink",
    "SINKS",
    "get_sink",
    "SpanStats",
    "TraceSummary",
    "summarize_events",
    "summarize_trace_file",
    "iter_trace_events",
    "LiveChannel",
    "LiveDispatcher",
    "LiveSink",
    "ProgressAggregator",
    "install_worker_channel",
    "worker_queue",
    "worker_task",
    "start_heartbeat",
    "rss_bytes",
]
