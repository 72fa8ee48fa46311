"""Rendering trace-summary aggregates as text tables.

The data side lives in :mod:`repro.obs.summary`; this module turns a
:class:`~repro.obs.summary.TraceSummary` into the aligned tables
``repro trace summary events.jsonl`` prints: per-span timing, counter
totals (cache hits and misses included), metric distributions and --
for sweep traces -- the per-cell breakdown.  :func:`format_live_status`
is the compact companion view ``repro top`` refreshes while tailing a
growing trace: progress line, per-worker table of finished shards and
cells, busiest spans.
"""

from __future__ import annotations

from typing import List, Optional

from .tables import format_table

__all__ = ["format_trace_summary", "format_live_status"]


def _seconds(value: float) -> str:
    return f"{value:.3f}"


def format_trace_summary(summary) -> str:
    """Text report of a :class:`~repro.obs.summary.TraceSummary`."""
    blocks: List[str] = []
    header = f"Trace summary: {summary.events} events"
    if summary.errors:
        header += f", {summary.errors} errors"
    blocks.append(header)

    if summary.spans:
        rows = [
            [
                name,
                stats.count,
                stats.errors,
                _seconds(stats.total_s),
                _seconds(stats.mean_s),
                _seconds(stats.max_s),
            ]
            for name, stats in sorted(summary.spans.items())
        ]
        blocks.append(
            format_table(
                ["span", "count", "errors", "total [s]", "mean [s]", "max [s]"],
                rows,
                title="Spans",
            )
        )

    if summary.counters:
        rows = [
            [name, f"{total:g}"] for name, total in sorted(summary.counters.items())
        ]
        blocks.append(format_table(["counter", "total"], rows, title="Counters"))

    if summary.histograms:
        rows = [
            [
                name,
                stats.count,
                f"{stats.mean:g}",
                f"{stats.quantile(0.50):g}",
                f"{stats.quantile(0.95):g}",
                f"{stats.quantile(0.99):g}",
                f"{stats.max:g}",
            ]
            for name, stats in sorted(summary.histograms.items())
        ]
        blocks.append(
            format_table(
                ["metric", "samples", "mean", "p50", "p95", "p99", "max"],
                rows,
                title="Histograms",
            )
        )

    if summary.profiles:
        for span in sorted(summary.profiles):
            rows = [
                [
                    entry["func"],
                    entry["calls"],
                    _seconds(entry["tottime_s"]),
                    _seconds(entry["cumtime_s"]),
                    entry["spans"],
                ]
                for entry in summary.top_hotspots(span)
            ]
            blocks.append(
                format_table(
                    ["function", "calls", "self [s]", "cumulative [s]", "spans"],
                    rows,
                    title=f"Profile hotspots: {span}",
                )
            )

    if summary.cells:
        rows = [
            [
                name,
                _seconds(info.get("duration_s", 0.0)),
                info.get("error") or "ok",
            ]
            for name, info in sorted(summary.cells.items())
        ]
        blocks.append(
            format_table(
                ["cell", "time [s]", "status"], rows, title="Sweep cells"
            )
        )

    return "\n\n".join(blocks)


def _dash(value) -> str:
    return "-" if value is None else str(value)


def format_live_status(summary, aggregator, now: Optional[float] = None) -> str:
    """Status block ``repro top`` renders from a (growing) trace.

    ``summary`` is the :class:`~repro.obs.summary.TraceSummary` of
    everything read so far, ``aggregator`` the
    :class:`~repro.obs.progress.ProgressAggregator` fed the same events
    with their file timestamps, and ``now`` the newest event timestamp
    seen (result ages are relative to it, so a finished trace reads as a
    snapshot of its final moment, not as ever-growing staleness).  The
    Workers table has one row per pid that finished a shard or sweep
    cell: its last result and the traces it has finished.
    """
    header = aggregator.render_line(now)
    counts = f"{summary.events} events"
    if summary.errors:
        counts += f", {summary.errors} errors"
    blocks: List[str] = [f"{header}\n{counts}"]

    if aggregator.workers:
        rows = []
        for pid, state in sorted(aggregator.workers.items()):
            age = (
                f"{max(0.0, now - state['ts']):.1f}" if now is not None else "-"
            )
            rows.append(
                [
                    pid,
                    _dash(state.get("task")),
                    _dash(state.get("shard")),
                    _dash(state.get("cell")),
                    _dash(state.get("traces_done")),
                    age,
                ]
            )
        blocks.append(
            format_table(
                ["pid", "task", "shard", "cell", "traces", "last [s]"],
                rows,
                title="Workers",
            )
        )

    if summary.spans:
        busiest = sorted(
            summary.spans.items(), key=lambda item: (-item[1].total_s, item[0])
        )[:8]
        rows = [
            [name, stats.count, _seconds(stats.total_s), _seconds(stats.mean_s)]
            for name, stats in busiest
        ]
        blocks.append(
            format_table(
                ["span", "count", "total [s]", "mean [s]"],
                rows,
                title="Busiest spans",
            )
        )

    return "\n\n".join(blocks)
