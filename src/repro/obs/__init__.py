"""Observability: structured tracing, metrics and progress events.

``repro.obs`` gives the whole stack -- flow stages, engine shards, the
artifact store, sweeps and the compiled kernels -- one way to say what
it is doing: an :class:`Observer` that times :meth:`~Observer.span`
sections, emits :meth:`~Observer.counter` / :meth:`~Observer.gauge` /
:meth:`~Observer.histogram` events, and streams every event to the
sinks its config implies: a JSONL trace file (``trace``) and console
progress lines on stderr (``verbosity`` above 0).  :class:`TraceSummary` is the
one aggregate of those events (:func:`summarize_events` over a
buffered run, :func:`summarize_trace_file` over a trace file).

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

    repro sweep --axis gate_style=sabl,cvsl --trace events.jsonl --progress
    repro trace summary events.jsonl

Each pooled payload's events ride back with its result, and the parent
replays them as soon as that result arrives.  The same replayed events
drive :mod:`repro.obs.progress` -- the ``--progress`` line, the
``engine.progress`` events and the per-worker table ``repro top`` reads
back from a trace file -- so there is one event path, and it advances
once per finished shard or sweep cell.
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
from .progress import ProgressAggregator, ProgressDispatcher, rss_bytes
from .profile import DEFAULT_PROFILE_TOP, SpanProfiler, hotspots_from_profile
from .sinks import BufferSink, ConsoleSink, JsonlSink, Sink
from .summary import (
    Histogram,
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
    "Sink",
    "BufferSink",
    "JsonlSink",
    "ConsoleSink",
    "Histogram",
    "SpanStats",
    "TraceSummary",
    "summarize_events",
    "summarize_trace_file",
    "iter_trace_events",
    "ProgressAggregator",
    "ProgressDispatcher",
    "rss_bytes",
]
