"""Event sinks: where the observability stream goes.

A sink consumes schema events (:mod:`repro.obs.events`) one at a time.
The flow's :class:`~repro.flow.config.ObservabilityConfig` implies its
sinks (:func:`repro.obs.observer_from_config`):

* :class:`JsonlSink` -- set by ``trace``: appends one JSON object per
  line to that file; the durable, machine-readable record
  ``repro trace summary`` aggregates.
* :class:`ConsoleSink` -- set by a ``verbosity`` above 0:
  human-readable progress lines on stderr, filtered by the verbosity
  (stderr so ``repro sweep --json -`` keeps a clean stdout).

A config that implies neither gets the null observer: instrumented hot
paths guard on ``observer.active`` and never even build their event
payloads.  :class:`BufferSink` is the worker-side transport.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Optional, TextIO

from .events import ObsError

__all__ = ["Sink", "JsonlSink", "ConsoleSink", "BufferSink"]


class Sink:
    """Structural interface of an event sink.

    ``emit`` consumes one schema-valid event dictionary; ``close``
    releases whatever the sink holds (file handles).  Duck typing
    suffices; this class documents the contract.
    """

    def emit(self, event: Dict[str, Any]) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; emitting after close is undefined."""


class BufferSink(Sink):
    """Collects events into a list -- the worker-side transport.

    Engine workers cannot write the parent's trace file (interleaved
    appends from many processes would corrupt it) and must stay
    deterministic, so they buffer into plain lists that travel back
    piggybacked on the shard results; the parent replays them into its
    own sinks (:meth:`repro.obs.Observer.replay`).
    """

    def __init__(self, buffer: Optional[List[Dict[str, Any]]] = None) -> None:
        self.buffer: List[Dict[str, Any]] = buffer if buffer is not None else []

    def emit(self, event: Dict[str, Any]) -> None:
        self.buffer.append(event)


class JsonlSink(Sink):
    """Appends one canonical-JSON line per event to ``path``.

    The handle is opened lazily (a traced config that never emits never
    touches the filesystem) in line-buffered append mode, so every event
    reaches disk as soon as it is emitted -- a crashed campaign keeps
    its partial trace.

    Writability is checked *eagerly*: a trace path whose directory does
    not exist (or is not writable, or which names a directory) fails
    here, at configure time, with a clear error -- not twenty minutes
    into a sweep when the first event tries to open the file.
    """

    def __init__(self, path: str) -> None:
        if not path:
            raise ObsError("jsonl sink needs a trace file path")
        self.path = path
        self._handle: Optional[TextIO] = None
        self._check_writable()

    def _check_writable(self) -> None:
        directory = os.path.dirname(os.path.abspath(self.path))
        if os.path.isdir(self.path):
            raise ObsError(
                f"trace path {self.path!r} is a directory; the jsonl sink "
                f"needs a file path"
            )
        if not os.path.isdir(directory):
            raise ObsError(
                f"trace path {self.path!r} is not writable: directory "
                f"{directory!r} does not exist"
            )
        target = self.path if os.path.exists(self.path) else directory
        if not os.access(target, os.W_OK):
            raise ObsError(f"trace path {self.path!r} is not writable")

    def emit(self, event: Dict[str, Any]) -> None:
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8", buffering=1)
        self._handle.write(json.dumps(event, sort_keys=True, separators=(",", ":")))
        self._handle.write("\n")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class ConsoleSink(Sink):
    """Human-readable progress lines on stderr.

    Verbosity levels (wired to the CLI's ``-q``/``-v`` flags):

    * 0 -- silent (``-q``);
    * 1 -- the default: stage, engine and sweep-cell completions plus
      every error;
    * 2 -- adds shard, store and kernel detail (``-v``);
    * 3 -- everything, span starts included (``-vv``).
    """

    #: Name prefixes considered *detail* (demoted one verbosity level).
    DETAIL_PREFIXES = ("shard.", "store.", "kernel.", "executor.")

    def __init__(self, verbosity: int = 1, stream: Optional[TextIO] = None) -> None:
        self.verbosity = verbosity
        self.stream = stream if stream is not None else sys.stderr

    def _level(self, event: Dict[str, Any]) -> int:
        kind = event["kind"]
        if kind == "span.error":
            return 1
        detail = event["name"].startswith(self.DETAIL_PREFIXES)
        if kind == "span.end":
            return 2 if detail else 1
        if kind in ("counter", "gauge", "histogram"):
            return 3 if not detail else 2
        if kind == "span.profile":
            return 2
        if kind == "progress":
            # The progress dispatcher renders its own progress line;
            # the console copy is detail for -v.
            return 2
        return 3  # span.start

    def _format(self, event: Dict[str, Any]) -> str:
        kind = event["kind"]
        name = event["name"]
        attrs = event.get("attrs") or {}
        suffix = " ".join(f"{key}={value}" for key, value in attrs.items())
        if kind == "span.end":
            body = f"{name} done in {event['duration_s']:.3f}s"
        elif kind == "span.error":
            body = f"{name} FAILED after {event['duration_s']:.3f}s: {event['error']}"
        elif kind == "span.start":
            body = f"{name} ..."
        elif kind == "span.profile":
            hotspots = event.get("profile") or []
            head = hotspots[0] if hotspots else {}
            body = (
                f"{name} hottest: {head.get('func', '?')} "
                f"({head.get('cumtime_s', 0.0):.3f}s cumulative, "
                f"{len(hotspots)} entries)"
            )
        else:
            body = f"{name} = {event.get('value')}"
        return f"repro: {body}" + (f"  [{suffix}]" if suffix else "")

    def emit(self, event: Dict[str, Any]) -> None:
        if self._level(event) <= self.verbosity:
            print(self._format(event), file=self.stream)
