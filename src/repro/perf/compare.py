"""Comparing history records and the noise-aware regression gate.

Naive perf gating ("fail on any 10% slowdown") fires constantly on
shared CI runners, so everyone learns to ignore it.  The gate here is
deliberately two-keyed: a metric regresses only when its worsening
clears **both** a relative threshold *and* the measured jitter band --
``jitter_factor`` times the larger of the two records' observed
relative spreads (recorded at measurement time from repeated runs).  A
10% slowdown of a metric that wobbles 8% run-to-run is not a finding; a
10% slowdown of a metric that repeats within 1% is.

Records are addressed by selector: ``latest``/``last`` and ``prev``
pick from the end of the history, an integer indexes it (negative from
the end), and anything else matches a git SHA prefix in the record's
provenance.  Comparison pairs records benchmark-by-benchmark and
intersects their metric sets, so a quick run compares cleanly against
a full one on the metrics both measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from .registry import PerfError

__all__ = [
    "DEFAULT_REL_THRESHOLD",
    "DEFAULT_JITTER_FACTOR",
    "MetricDelta",
    "resolve_selector",
    "compare_records",
    "compare_histories",
    "regressions",
]

#: A metric must worsen by more than this fraction to regress.
DEFAULT_REL_THRESHOLD = 0.10

#: ... and by more than this multiple of the measured relative spread.
DEFAULT_JITTER_FACTOR = 2.0


@dataclass(frozen=True)
class MetricDelta:
    """One metric's change between two history records."""

    benchmark: str
    metric: str
    unit: str
    higher_is_better: bool
    old: float
    new: float
    #: Signed fractional worsening: positive means the metric got worse
    #: in its declared direction, negative means it improved.
    worsening: float
    #: The jitter band: the larger of the two records' relative spreads.
    spread_rel: float
    #: True when either side was measured with more workers than CPUs.
    unreliable: bool
    #: True when the worsening clears both the threshold and the jitter
    #: band (never for unreliable metrics).
    regression: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "benchmark": self.benchmark,
            "metric": self.metric,
            "unit": self.unit,
            "higher_is_better": self.higher_is_better,
            "old": self.old,
            "new": self.new,
            "worsening": self.worsening,
            "spread_rel": self.spread_rel,
            "unreliable": self.unreliable,
            "regression": self.regression,
        }


def resolve_selector(
    records: List[Dict[str, Any]], selector: str
) -> Dict[str, Any]:
    """The record ``selector`` names within one benchmark's history.

    ``latest``/``last`` is the newest record, ``prev`` the newest
    earlier record run in the same mode (``quick`` or full) -- the two
    modes measure different campaign sizes, so comparing across them
    is meaningless -- an integer indexes the history (0 oldest, -1
    newest), anything
    else matches a unique git SHA prefix in the records' provenance
    (newest match wins only if the prefix is unambiguous across SHAs).
    """
    if not records:
        raise PerfError("history is empty; run `repro bench run` first")
    if selector in ("latest", "last"):
        return records[-1]
    if selector == "prev":
        if len(records) < 2:
            raise PerfError(
                "history holds a single record; 'prev' needs at least two"
            )
        quick = bool(records[-1].get("quick"))
        for record in reversed(records[:-1]):
            if bool(record.get("quick")) == quick:
                return record
        mode = "quick" if quick else "full"
        raise PerfError(
            f"no earlier {mode}-mode record to compare the latest one with; "
            f"'prev' only pairs records of the same mode"
        )
    try:
        index = int(selector)
    except ValueError:
        pass
    else:
        try:
            return records[index]
        except IndexError:
            raise PerfError(
                f"history index {index} out of range "
                f"({len(records)} records)"
            ) from None
    matches = [
        record
        for record in records
        if str(record.get("provenance", {}).get("git_sha", "")).startswith(selector)
    ]
    if not matches:
        raise PerfError(
            f"no history record matches selector {selector!r} "
            f"(try latest, prev, an index or a git SHA prefix)"
        )
    unique = {str(match["provenance"]["git_sha"]) for match in matches}
    if len(unique) > 1:
        raise PerfError(
            f"selector {selector!r} matches {len(unique)} different commits; "
            f"use a longer SHA prefix"
        )
    return matches[-1]


def _worsening(old: float, new: float, higher_is_better: bool) -> float:
    if old == 0:
        return 0.0
    if higher_is_better:
        return (old - new) / abs(old)
    return (new - old) / abs(old)


def compare_records(
    old: Dict[str, Any],
    new: Dict[str, Any],
    rel_threshold: float = DEFAULT_REL_THRESHOLD,
    jitter_factor: float = DEFAULT_JITTER_FACTOR,
) -> List[MetricDelta]:
    """Per-metric deltas between two records of the *same* benchmark.

    Only metrics present in both records compare; each delta carries the
    regression verdict under the two-keyed rule described in the module
    docstring.
    """
    if old.get("benchmark") != new.get("benchmark"):
        raise PerfError(
            f"cannot compare records of different benchmarks "
            f"({old.get('benchmark')!r} vs {new.get('benchmark')!r})"
        )
    deltas: List[MetricDelta] = []
    old_metrics = old.get("metrics", {})
    new_metrics = new.get("metrics", {})
    for name in sorted(set(old_metrics) & set(new_metrics)):
        before, after = old_metrics[name], new_metrics[name]
        higher = bool(after.get("higher_is_better", True))
        worsening = _worsening(
            float(before["value"]), float(after["value"]), higher
        )
        spread = max(
            float(before.get("spread_rel", 0.0)),
            float(after.get("spread_rel", 0.0)),
        )
        unreliable = bool(
            before.get("unreliable", False) or after.get("unreliable", False)
        )
        regression = (
            not unreliable
            and worsening > rel_threshold
            and worsening > jitter_factor * spread
        )
        deltas.append(
            MetricDelta(
                benchmark=str(new.get("benchmark")),
                metric=name,
                unit=str(after.get("unit", "")),
                higher_is_better=higher,
                old=float(before["value"]),
                new=float(after["value"]),
                worsening=round(worsening, 6),
                spread_rel=round(spread, 6),
                unreliable=unreliable,
                regression=regression,
            )
        )
    return deltas


def compare_histories(
    records: List[Dict[str, Any]],
    old_selector: str,
    new_selector: str,
    rel_threshold: float = DEFAULT_REL_THRESHOLD,
    jitter_factor: float = DEFAULT_JITTER_FACTOR,
    benchmark: Optional[str] = None,
) -> List[MetricDelta]:
    """Resolve both selectors per benchmark and compare the pairs.

    Benchmarks present on only one side are skipped (a new benchmark
    has nothing to regress against).  ``benchmark`` restricts the
    comparison to one name.
    """
    names = sorted(
        {record["benchmark"] for record in records}
        if benchmark is None
        else {benchmark}
    )
    deltas: List[MetricDelta] = []
    for name in names:
        slice_ = [record for record in records if record["benchmark"] == name]
        if not slice_:
            raise PerfError(f"no history records for benchmark {name!r}")
        try:
            old = resolve_selector(slice_, old_selector)
            new = resolve_selector(slice_, new_selector)
        except PerfError:
            if benchmark is not None:
                raise
            continue  # this benchmark lacks one side; nothing to compare
        if old is new:
            continue
        deltas.extend(
            compare_records(
                old,
                new,
                rel_threshold=rel_threshold,
                jitter_factor=jitter_factor,
            )
        )
    return deltas


def regressions(deltas: List[MetricDelta]) -> List[MetricDelta]:
    """The subset of ``deltas`` the gate fails on."""
    return [delta for delta in deltas if delta.regression]
