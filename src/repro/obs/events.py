"""The structured event schema of the observability layer.

Every signal the instrumented code emits -- span boundaries, metric
updates -- is one flat, JSON-able dictionary.  A fixed, versioned shape
(rather than free-form dicts) is what makes the downstream consumers
possible: the jsonl sink appends one line per event, ``repro trace
summary`` aggregates a file of them without knowing who produced each
line, and ``repro top`` tails a growing file of them.

Schema (version 3; version-1 and version-2 lines remain valid)::

    {
      "v": 3,                  # schema version
      "ts": 1754556000.123,    # unix wall-clock seconds (float)
      "pid": 4242,             # emitting process (worker provenance)
      "seq": 17,               # per-observer monotone sequence number
      "kind": "span.end",      # one of EVENT_KINDS
      "name": "stage.traces",  # dotted span/metric name
      "duration_s": 1.234,     # span.end / span.error / span.profile
      "value": 256,            # counter / gauge / histogram only
      "error": "FlowError: ...",   # span.error only
      "profile": [...],        # span.profile only: top-N hotspot dicts
      "attrs": {"flow": "cli"}     # optional str -> scalar context
    }

Version 2 added the ``span.profile`` kind: when
:attr:`~repro.flow.config.ObservabilityConfig.profile` is set, every
profiled span is followed by one ``span.profile`` event whose
``profile`` field lists the span's top-N cumulative-time hotspots --
``{"func": "file:line(name)", "calls": int, "tottime_s": float,
"cumtime_s": float}`` -- so a perf regression report can point at the
function that caused it.

Version 3 added the run-status kinds (:data:`LIVE_KINDS`):
``progress`` (parent-side aggregate -- ``value`` is units done,
``attrs`` the :class:`~repro.obs.progress.ProgressAggregator` snapshot
with rate/ETA/worker count) and ``worker.heartbeat``.  Nothing emits
``worker.heartbeat`` any more; the kind still validates so version-3
trace files that hold worker beats stay readable.  Both kinds describe
the run, never the results.

Timestamps and durations are observability side-channels: they never
feed back into any computation, which is why a traced campaign stays
bit-identical to an untraced one.
"""

from __future__ import annotations

import numbers
import os
import time
from typing import Any, Dict, Mapping, Optional

__all__ = [
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "EVENT_KINDS",
    "SPAN_KINDS",
    "METRIC_KINDS",
    "PROFILE_KINDS",
    "LIVE_KINDS",
    "HOTSPOT_FIELDS",
    "ObsError",
    "make_event",
    "validate_event",
]

#: Bump when the event shape (not the emitted names) changes.
SCHEMA_VERSION = 3

#: Older schema versions whose events still validate (versions 2 and 3
#: only *added* kinds -- ``span.profile``, then the run-status kinds -- so
#: version-1 and version-2 logs stay readable).
SUPPORTED_SCHEMA_VERSIONS = (1, 2, SCHEMA_VERSION)

#: Span lifecycle events (``span.start`` is emitted only at high
#: verbosity sinks' discretion -- it is part of the schema regardless).
SPAN_KINDS = ("span.start", "span.end", "span.error")

#: Metric-update events; ``value`` carries the increment (counter) or
#: the observed sample (gauge, histogram).
METRIC_KINDS = ("counter", "gauge", "histogram")

#: Profiler output: one event per profiled span, carrying the span's
#: top-N cumulative hotspots in the ``profile`` field.
PROFILE_KINDS = ("span.profile",)

#: Run-status kinds (schema version 3): the parent's ``progress``
#: aggregates, and ``worker.heartbeat``, which only older version-3
#: trace files hold.
LIVE_KINDS = ("worker.heartbeat", "progress")

EVENT_KINDS = SPAN_KINDS + METRIC_KINDS + PROFILE_KINDS + LIVE_KINDS

#: Required keys of each hotspot entry in a ``span.profile`` event.
HOTSPOT_FIELDS = ("func", "calls", "tottime_s", "cumtime_s")


class ObsError(ValueError):
    """An event failed schema validation, or a sink was misconfigured."""


def _scalar(value: Any) -> bool:
    return value is None or isinstance(value, (str, bool, numbers.Real))


def make_event(
    kind: str,
    name: str,
    seq: int,
    value: Optional[float] = None,
    duration_s: Optional[float] = None,
    error: Optional[str] = None,
    profile: Optional[Any] = None,
    attrs: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """A schema-valid event dictionary, stamped with time and process.

    The emitting :class:`~repro.obs.core.Observer` supplies ``seq``;
    everything else is the caller's payload.  Non-scalar attribute
    values are stringified so the event always serialises to strict
    JSON.
    """
    event: Dict[str, Any] = {
        "v": SCHEMA_VERSION,
        "ts": time.time(),
        "pid": os.getpid(),
        "seq": int(seq),
        "kind": kind,
        "name": name,
    }
    if value is not None:
        event["value"] = float(value) if not isinstance(value, bool) else value
    if duration_s is not None:
        event["duration_s"] = float(duration_s)
    if error is not None:
        event["error"] = str(error)
    if profile is not None:
        event["profile"] = [dict(entry) for entry in profile]
    if attrs:
        event["attrs"] = {
            str(key): (item if _scalar(item) else str(item))
            for key, item in attrs.items()
        }
    return event


def validate_event(event: Any) -> Dict[str, Any]:
    """Check ``event`` against the schema; returns it on success.

    Raises :class:`ObsError` naming the first violated constraint --
    the error message is the contract the schema tests (and the CI
    trace-file check) pin.
    """
    if not isinstance(event, Mapping):
        raise ObsError(f"event must be a mapping, got {type(event).__name__}")
    if event.get("v") not in SUPPORTED_SCHEMA_VERSIONS:
        raise ObsError(
            f"unsupported event schema version {event.get('v')!r}; "
            f"expected {SCHEMA_VERSION}"
        )
    kind = event.get("kind")
    if kind not in EVENT_KINDS:
        raise ObsError(f"unknown event kind {kind!r}; expected one of {EVENT_KINDS}")
    name = event.get("name")
    if not isinstance(name, str) or not name:
        raise ObsError(f"event name must be a non-empty string, got {name!r}")
    for field, types in (("ts", numbers.Real), ("pid", int), ("seq", int)):
        if not isinstance(event.get(field), types) or isinstance(
            event.get(field), bool
        ):
            raise ObsError(f"event field {field!r} must be a number, got "
                           f"{event.get(field)!r}")
    if kind in METRIC_KINDS + LIVE_KINDS and not isinstance(
        event.get("value"), numbers.Real
    ):
        raise ObsError(f"{kind} event needs a numeric 'value', got "
                       f"{event.get('value')!r}")
    if kind in ("span.end", "span.error", "span.profile"):
        duration = event.get("duration_s")
        if not isinstance(duration, numbers.Real) or duration < 0:
            raise ObsError(
                f"{kind} event needs a non-negative 'duration_s', got {duration!r}"
            )
    if kind == "span.error" and not isinstance(event.get("error"), str):
        raise ObsError("span.error event needs an 'error' string")
    if kind == "span.profile":
        hotspots = event.get("profile")
        if not isinstance(hotspots, (list, tuple)):
            raise ObsError(
                f"span.profile event needs a 'profile' list of hotspot "
                f"entries, got {hotspots!r}"
            )
        for entry in hotspots:
            if not isinstance(entry, Mapping):
                raise ObsError(
                    f"profile hotspots must be mappings, got "
                    f"{type(entry).__name__}"
                )
            if not isinstance(entry.get("func"), str) or not entry.get("func"):
                raise ObsError(
                    f"profile hotspot needs a non-empty 'func' string, "
                    f"got {entry.get('func')!r}"
                )
            for field in ("calls", "tottime_s", "cumtime_s"):
                if not isinstance(entry.get(field), numbers.Real):
                    raise ObsError(
                        f"profile hotspot field {field!r} must be a number, "
                        f"got {entry.get(field)!r}"
                    )
    attrs = event.get("attrs")
    if attrs is not None:
        if not isinstance(attrs, Mapping):
            raise ObsError(f"event attrs must be a mapping, got {attrs!r}")
        for key, item in attrs.items():
            if not isinstance(key, str) or not key:
                raise ObsError(f"attr names must be non-empty strings, got {key!r}")
            if not _scalar(item):
                raise ObsError(
                    f"attr {key!r} must be a JSON scalar, got {type(item).__name__}"
                )
    return dict(event)
