"""Rendering benchmark tables, history records and perf deltas.

The data side lives in :mod:`repro.perf`; this module turns its
objects into the aligned text tables ``repro bench ls`` / ``run`` /
``history`` / ``compare`` print.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

from .tables import format_table

__all__ = [
    "format_benchmark_list",
    "format_bench_record",
    "format_history",
    "format_deltas",
]


def format_benchmark_list(benchmarks: Iterable[Any]) -> str:
    """Table of the benchmarks and their declared metrics."""
    rows = [
        [
            bench.name,
            str(len(bench.metrics)),
            ", ".join(spec.name for spec in bench.metrics[:4])
            + (", ..." if len(bench.metrics) > 4 else ""),
            bench.description,
        ]
        for bench in benchmarks
    ]
    return format_table(
        ["benchmark", "metrics", "first metrics", "description"],
        rows,
        title="Built-in benchmarks",
    )


def _flags(entry: Dict[str, Any]) -> str:
    flags = []
    if entry.get("unreliable"):
        flags.append(f"unreliable (needs {entry.get('workers')} CPUs)")
    return ", ".join(flags) or "-"


def format_bench_record(record: Dict[str, Any]) -> str:
    """Per-metric table for one history record."""
    rows = [
        [
            name,
            f"{entry['value']:g}",
            entry.get("unit", ""),
            "+" if entry.get("higher_is_better", True) else "-",
            f"{entry.get('spread_rel', 0.0) * 100:.1f}%",
            _flags(entry),
        ]
        for name, entry in sorted(record.get("metrics", {}).items())
    ]
    provenance = record.get("provenance", {})
    sha = str(provenance.get("git_sha", "?"))[:9]
    dirty = " (dirty)" if provenance.get("git_dirty") else ""
    mode = "quick" if record.get("quick") else "full"
    title = (
        f"Benchmark {record.get('benchmark', '?')}: {mode}, "
        f"{record.get('repetitions', 1)} repetition(s), {sha}{dirty}"
    )
    return format_table(
        ["metric", "value", "unit", "dir", "spread", "flags"],
        rows,
        title=title,
    )


def format_history(records: List[Dict[str, Any]]) -> str:
    """One row per history record, oldest first."""
    rows = []
    for index, record in enumerate(records):
        provenance = record.get("provenance", {})
        rows.append(
            [
                str(index),
                record.get("benchmark", "?"),
                "quick" if record.get("quick") else "full",
                str(record.get("repetitions", 1)),
                str(len(record.get("metrics", {}))),
                str(provenance.get("git_sha", "?"))[:9],
                "yes" if provenance.get("git_dirty") else "no",
                str(provenance.get("created_iso", "?")),
            ]
        )
    return format_table(
        ["#", "benchmark", "mode", "reps", "metrics", "commit", "dirty", "when"],
        rows,
        title=f"Perf history: {len(records)} records",
    )


def format_deltas(deltas: Iterable[Any]) -> str:
    """Per-metric comparison table with the gate verdict per row."""
    rows = []
    for delta in deltas:
        if delta.unreliable:
            verdict = "unreliable"
        elif delta.regression:
            verdict = "REGRESSION"
        elif delta.worsening < 0:
            verdict = "improved"
        else:
            verdict = "ok"
        rows.append(
            [
                delta.benchmark,
                delta.metric,
                f"{delta.old:g}",
                f"{delta.new:g}",
                f"{-delta.worsening * 100:+.1f}%",
                f"{delta.spread_rel * 100:.1f}%",
                verdict,
            ]
        )
    return format_table(
        ["benchmark", "metric", "old", "new", "change", "jitter", "verdict"],
        rows,
        title="Benchmark comparison (change is signed toward better)",
    )
