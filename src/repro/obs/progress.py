"""Campaign progress: completion, rate, ETA and the per-worker table.

There is one event transport: every pooled payload (a run of campaign
blocks, or one sweep cell) buffers its worker's events with
:func:`repro.obs.capture_events`, and they ride back with its result.
The parent replays each payload's events as soon as that result arrives
(:func:`repro.engine.executors._map_on_pool`), and the same events feed
a :class:`ProgressDispatcher`.  A payload is the unit of progress: the
display advances once per finished shard or cell.

:class:`ProgressAggregator` folds events into a completion count, an
EWMA rate, an ETA and a per-worker table built from the ``shard.*`` and
``sweep.cell`` span ends.  ``repro top`` feeds it the events of a trace
file with their own timestamps; :class:`ProgressDispatcher` feeds it the
replayed events of a running map, emits ``engine.progress`` events,
samples resource gauges and renders the ``--progress`` line.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, TextIO

__all__ = ["ProgressAggregator", "ProgressDispatcher", "rss_bytes"]


def rss_bytes() -> int:
    """This process's resident set size, stdlib only.

    Reads ``/proc/self/statm`` where available (Linux) and falls back to
    ``resource.getrusage`` peak-RSS elsewhere; returns 0 when neither
    source works.
    """
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except Exception:  # pragma: no cover - non-Linux fallback
        try:
            import resource

            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            return int(peak) * (1 if sys.platform == "darwin" else 1024)
        except Exception:
            return 0


class ProgressAggregator:
    """Folds events into completion state, an EWMA rate and an ETA.

    Units are whatever the campaign counts in -- traces for a sharded
    campaign, cells for a sweep.  Completions come from the ``shard.*``
    span ends carrying their ``count`` and from the ``sweep.cells_done``
    counter.  The same span ends (and ``sweep.cell`` ends) build the
    per-worker table: each row is keyed by the event's ``pid`` and holds
    the newest result's ``ts``, span name, shard index or cell, and the
    traces that worker has finished.

    Every method takes an explicit ``now`` so tests (and file replay,
    which uses event timestamps) stay deterministic; the dispatcher
    passes ``time.time()``, the clock event timestamps are read on.
    """

    #: EWMA smoothing factor of the completion rate.
    ALPHA = 0.3

    def __init__(self, total: Optional[int], unit: str = "traces") -> None:
        self.total = int(total) if total else None
        self.unit = unit
        self.done = 0
        self.shards_done = 0
        self.cells_done = 0
        #: pid -> the newest result's state (ts/task/shard/cell/traces_done).
        self.workers: Dict[int, Dict[str, Any]] = {}
        self._rate: Optional[float] = None
        self._last_advance: Optional[float] = None

    # -- feeding

    def note_event(self, event: Dict[str, Any], now: float) -> None:
        """Fold one replayed (or file-read) event into the state machine."""
        kind = event.get("kind")
        name = event.get("name", "")
        attrs = event.get("attrs") or {}
        if kind == "counter" and name == "sweep.cells_done":
            value = int(event.get("value", 1) or 1)
            self.cells_done += value
            if self.unit == "cells":
                self.advance(value, now)
            return
        if kind not in ("span.end", "span.error"):
            return
        shard = name.startswith("shard.")
        if not shard and name != "sweep.cell":
            return
        count = attrs.get("count") if shard else None
        row = self.workers.setdefault(int(event.get("pid", 0)), {"traces_done": 0})
        row.update(
            ts=float(event.get("ts", now)),
            task=name,
            shard=attrs.get("index"),
            cell=attrs.get("cell"),
        )
        if kind == "span.end" and isinstance(count, (int, float)):
            row["traces_done"] += int(count)
        if shard:
            self.shards_done += 1
            if self.unit == "traces" and isinstance(count, (int, float)):
                self.advance(int(count), now)
            elif self.unit == "shards":
                self.advance(1, now)

    def advance(self, units: int, now: float) -> None:
        """Record ``units`` more work done at time ``now`` (EWMA update)."""
        self.done += units
        if self._last_advance is not None:
            dt = now - self._last_advance
            if dt > 0:
                sample = units / dt
                self._rate = (
                    sample
                    if self._rate is None
                    else self.ALPHA * sample + (1.0 - self.ALPHA) * self._rate
                )
        self._last_advance = now

    # -- reading

    @property
    def rate(self) -> Optional[float]:
        """EWMA completion rate in units per second (``None`` until two
        completions have been observed)."""
        return self._rate

    def eta_s(self) -> Optional[float]:
        """Estimated seconds to completion (``None`` when unknowable)."""
        if self.total is None or self._rate is None or self._rate <= 0:
            return None
        return max(0.0, (self.total - self.done) / self._rate)

    def last_result_age(self, now: float) -> Optional[float]:
        """Seconds since the newest worker result, by its event ``ts``."""
        if not self.workers:
            return None
        return max(0.0, now - max(state["ts"] for state in self.workers.values()))

    def snapshot(self) -> Dict[str, Any]:
        """JSON-scalar progress attributes for a ``progress`` event."""
        snapshot: Dict[str, Any] = {
            "unit": self.unit,
            "done": self.done,
            "shards_done": self.shards_done,
            "workers": len(self.workers),
        }
        if self.total is not None:
            snapshot["total"] = self.total
        if self._rate is not None:
            snapshot["rate"] = round(self._rate, 3)
        eta = self.eta_s()
        if eta is not None:
            snapshot["eta_s"] = round(eta, 1)
        if self.cells_done:
            snapshot["cells_done"] = self.cells_done
        return snapshot

    def render_line(self, now: Optional[float] = None) -> str:
        """One human-readable progress line (the ``--progress`` display)."""
        if self.total:
            percent = 100.0 * self.done / self.total
            head = f"{self.unit} {self.done}/{self.total} ({percent:.1f}%)"
        else:
            head = f"{self.unit} {self.done}"
        parts = [head]
        if self._rate is not None:
            parts.append(f"{self._rate:.1f}/s")
        eta = self.eta_s()
        if eta is not None:
            parts.append(f"ETA {eta:.1f}s")
        if self.workers:
            parts.append(f"{len(self.workers)} worker(s)")
            if now is not None:
                age = self.last_result_age(now)
                if age is not None:
                    parts.append(f"last result {age:.1f}s ago")
        return "repro: " + " | ".join(parts)


class ProgressDispatcher:
    """Progress of one pooled map, fed each payload's replayed events.

    One instance per map/sweep: feeds every event to its
    :class:`ProgressAggregator`, emits a parent-side ``engine.progress``
    event at most every :attr:`INTERVAL_S` (and once more from
    :meth:`finish`), samples resource gauges through the optional
    ``resource_sampler`` hook, and -- when ``progress`` is set --
    renders the stderr progress line (in place on a TTY; throttled plain
    lines otherwise, so piped logs stay readable).  It never dispatches
    the events it is fed: the caller has already replayed them.
    """

    #: Minimum seconds between two ``engine.progress`` events.
    INTERVAL_S = 0.5

    def __init__(
        self,
        observer: Any,
        total: Optional[int] = None,
        unit: str = "traces",
        progress: bool = False,
        resource_sampler: Optional[Callable[[], None]] = None,
    ) -> None:
        self.observer = observer
        self.aggregator = ProgressAggregator(total, unit=unit)
        self.progress = bool(progress)
        self.resource_sampler = resource_sampler
        self.stream: TextIO = sys.stderr
        self._last_tick: Optional[float] = None
        self._inplace = bool(getattr(self.stream, "isatty", lambda: False)())
        self._rendered_inplace = False

    def __call__(self, events: List[Dict[str, Any]]) -> None:
        now = time.time()
        for event in events:
            self.aggregator.note_event(event, now)
        self._tick(now)

    def _tick(self, now: float, final: bool = False) -> None:
        if (
            not final
            and self._last_tick is not None
            and now - self._last_tick < self.INTERVAL_S
        ):
            return
        self._last_tick = now
        if self.resource_sampler is not None:
            try:
                self.resource_sampler()
            except Exception:  # noqa: BLE001 - gauges must never kill a map
                pass
        self.observer.event(
            "progress",
            "engine.progress",
            value=float(self.aggregator.done),
            attrs=self.aggregator.snapshot(),
        )
        if self.progress:
            self._render(now)

    def _render(self, now: float) -> None:
        line = self.aggregator.render_line(now)
        try:
            if self._inplace:
                self.stream.write(f"\r\x1b[2K{line}")
                self._rendered_inplace = True
            else:
                self.stream.write(line + "\n")
            self.stream.flush()
        except Exception:  # pragma: no cover - broken stderr
            self.progress = False

    def finish(self) -> None:
        """Final progress event and display cleanup; call after the map."""
        self._tick(time.time(), final=True)
        if self._rendered_inplace:
            try:
                self.stream.write("\n")
                self.stream.flush()
            except Exception:  # pragma: no cover - broken stderr
                pass
