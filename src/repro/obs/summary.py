"""Aggregating a trace event log into human-sized summaries.

``repro trace summary events.jsonl`` is the read side of the jsonl
sink: it folds the flat event stream back into per-span timing tables,
counter totals and the per-cell view of a sweep.  The aggregation is
also usable programmatically -- :func:`summarize_events` accepts any
iterable of schema events, so tests and services can summarize a
buffered run without touching the filesystem.

Reading is tail-safe: a jsonl trace being appended by a live campaign
may end in a *truncated* line (the writer mid-append).  The reader
skips an unterminated trailing partial instead of raising -- only
newline-terminated garbage is an error -- and :func:`iter_trace_events`
exposes the same reader as a generator with an optional follow mode
(the engine of ``repro top`` and ``repro trace summary --follow``).
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .events import ObsError, validate_event

__all__ = [
    "Histogram",
    "SpanStats",
    "TraceSummary",
    "summarize_events",
    "summarize_trace_file",
    "iter_trace_events",
]


class Histogram:
    """Running summary of observed samples, quantiles included.

    Exact count/total/min/max/mean plus *approximate* p50/p95/p99 from a
    fixed-size uniform reservoir (Vitter's algorithm R): constant memory
    regardless of sample count, exact while the sample count stays
    within the reservoir.  The replacement draws come from a
    fixed-seeded private PRNG, so two identical observation streams
    always report identical quantiles -- determinism the observability
    bit-identity contract extends to its own outputs.
    """

    __slots__ = ("count", "total", "min", "max", "_reservoir", "_rng")

    #: Samples kept for quantile estimation.  512 bounds the p99 error
    #: to a few percent while keeping snapshots cheap to sort.
    RESERVOIR_SIZE = 512

    #: The quantiles every snapshot reports.
    QUANTILES: Tuple[Tuple[str, float], ...] = (
        ("p50", 0.50),
        ("p95", 0.95),
        ("p99", 0.99),
    )

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._reservoir: List[float] = []
        self._rng = random.Random(0x0B5E)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._reservoir) < self.RESERVOIR_SIZE:
            self._reservoir.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.RESERVOIR_SIZE:
                self._reservoir[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (linear interpolation over the
        reservoir); 0.0 with no samples."""
        if not self._reservoir:
            return 0.0
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in 0..1, got {q}")
        ordered = sorted(self._reservoir)
        position = q * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        fraction = position - low
        return ordered[low] * (1.0 - fraction) + ordered[high] * fraction

    def quantiles(self) -> Dict[str, float]:
        """The standard snapshot quantiles (:data:`QUANTILES`)."""
        return {name: self.quantile(q) for name, q in self.QUANTILES}

    def to_dict(self) -> Dict[str, Any]:
        if not self.count:
            return {"type": "histogram", "count": 0}
        return {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            **self.quantiles(),
        }


@dataclass
class SpanStats:
    """Aggregate timing of every completion of one span name."""

    name: str
    count: int = 0
    errors: int = 0
    total_s: float = 0.0
    max_s: float = 0.0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def observe(self, duration_s: float, error: bool) -> None:
        self.count += 1
        if error:
            self.errors += 1
        self.total_s += duration_s
        if duration_s > self.max_s:
            self.max_s = duration_s

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "errors": self.errors,
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            "max_s": self.max_s,
        }


@dataclass
class TraceSummary:
    """Everything ``repro trace summary`` reports about one event log."""

    events: int = 0
    errors: int = 0
    #: span name -> aggregate timing, insertion-ordered by first completion.
    spans: Dict[str, SpanStats] = field(default_factory=dict)
    #: counter name -> summed value.
    counters: Dict[str, float] = field(default_factory=dict)
    #: histogram name -> full running summary of observed values,
    #: reservoir quantiles (p50/p95/p99) included.
    histograms: Dict[str, Histogram] = field(default_factory=dict)
    #: sweep cell name -> {"duration_s": ..., "error": ...} per sweep.cell span.
    cells: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: span name -> hotspot label -> {"calls", "tottime_s", "cumtime_s",
    #: "spans"}: ``span.profile`` events merged across repetitions of
    #: the same span (a shard span profiled 12 times folds into one
    #: table with its per-function times summed).
    profiles: Dict[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)

    def add(self, event: Dict[str, Any]) -> None:
        """Fold one schema event into the summary."""
        self.events += 1
        kind = event["kind"]
        name = event["name"]
        if kind in ("span.end", "span.error"):
            error = kind == "span.error"
            if error:
                self.errors += 1
            stats = self.spans.get(name)
            if stats is None:
                stats = self.spans[name] = SpanStats(name)
            stats.observe(event.get("duration_s", 0.0), error)
            if name == "sweep.cell":
                cell = (event.get("attrs") or {}).get("cell")
                if cell is not None:
                    self.cells[str(cell)] = {
                        "duration_s": event.get("duration_s", 0.0),
                        "error": event.get("error") if error else None,
                    }
        elif kind == "counter":
            self.counters[name] = self.counters.get(name, 0.0) + event.get("value", 0)
        elif kind == "histogram":
            stats = self.histograms.get(name)
            if stats is None:
                stats = self.histograms[name] = Histogram()
            stats.observe(event.get("value", 0.0))
        elif kind == "span.profile":
            merged = self.profiles.setdefault(name, {})
            for entry in event.get("profile", ()):  # validated upstream
                slot = merged.setdefault(
                    entry["func"],
                    {"calls": 0, "tottime_s": 0.0, "cumtime_s": 0.0, "spans": 0},
                )
                slot["calls"] += entry["calls"]
                slot["tottime_s"] += entry["tottime_s"]
                slot["cumtime_s"] += entry["cumtime_s"]
                slot["spans"] += 1

    def top_hotspots(self, span: str, top: int = 10) -> List[Dict[str, Any]]:
        """The span's merged hotspots, hottest (cumulative) first."""
        merged = self.profiles.get(span, {})
        ordered = sorted(
            merged.items(), key=lambda item: (-item[1]["cumtime_s"], item[0])
        )
        return [
            {"func": func, **values} for func, values in ordered[: max(1, top)]
        ]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "events": self.events,
            "errors": self.errors,
            "spans": {name: stats.to_dict() for name, stats in self.spans.items()},
            "counters": dict(self.counters),
            "histograms": {
                name: stats.to_dict() for name, stats in self.histograms.items()
            },
            "cells": {name: dict(info) for name, info in self.cells.items()},
            "profiles": {
                name: self.top_hotspots(name) for name in self.profiles
            },
        }


def summarize_events(events: Iterable[Dict[str, Any]]) -> TraceSummary:
    """Aggregate an iterable of schema events into a :class:`TraceSummary`.

    Each event is validated first; a malformed one raises
    :class:`~repro.obs.events.ObsError`.
    """
    summary = TraceSummary()
    for event in events:
        summary.add(validate_event(event))
    return summary


def _parse_line(path: str, lineno: int, line: str) -> Dict[str, Any]:
    """One complete jsonl line -> validated event; errors name the line."""
    try:
        event = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ObsError(f"{path}:{lineno}: not valid JSON: {exc}") from None
    try:
        return validate_event(event)
    except ObsError as exc:
        raise ObsError(f"{path}:{lineno}: {exc}") from None


def iter_trace_events(
    path: str,
    follow: bool = False,
    poll_s: float = 0.2,
    stop: Optional[Callable[[], bool]] = None,
) -> Iterator[Dict[str, Any]]:
    """Yield validated events from a jsonl trace, optionally tailing it.

    Blank lines are skipped; a complete (newline-terminated) line that
    is not valid JSON or not a schema-valid event raises
    :class:`~repro.obs.events.ObsError` naming the line number.  An
    *unterminated* trailing line is a writer mid-append, not an error:
    without ``follow`` it is included only when it already parses as a
    valid event (the write happened to be atomic) and silently skipped
    otherwise; with ``follow`` the reader holds onto the partial and
    keeps polling every ``poll_s`` seconds until the rest of the line --
    or more lines -- arrive, until the optional ``stop`` callable
    returns True.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lineno = 0
        partial = ""
        while True:
            chunk = handle.readline()
            if chunk:
                partial += chunk
                if not partial.endswith("\n"):
                    continue  # readline stopped at EOF mid-line
                line, partial = partial.strip(), ""
                lineno += 1
                if line:
                    yield _parse_line(path, lineno, line)
                continue
            # At EOF (readline returned nothing new).
            if follow and not (stop is not None and stop()):
                time.sleep(poll_s)
                continue
            remainder = partial.strip()
            if remainder:
                try:
                    yield validate_event(json.loads(remainder))
                except (ValueError, ObsError):
                    pass  # truncated trailing line: skip, don't raise
            return


def summarize_trace_file(path: str) -> TraceSummary:
    """Read a jsonl trace file and aggregate it.

    Blank lines are ignored; a complete line that is not valid JSON or
    not a schema-valid event raises :class:`~repro.obs.events.ObsError`
    naming the offending line number.  A truncated trailing line (a
    live writer mid-append) is skipped, so summarizing a growing trace
    is always safe.
    """
    summary = TraceSummary()
    for event in iter_trace_events(path):
        summary.add(event)
    return summary
