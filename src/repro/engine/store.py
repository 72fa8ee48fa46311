"""Disk-backed artifact store for campaign results.

Trace campaigns dominate the cost of every sweep, and a sweep grid
re-runs many cells that differ only in their analysis settings.  The
store caches stage results on disk, keyed by a **content hash** of
everything that determines the result, so a re-run (or another grid
cell with the same campaign) loads the traces instead of re-acquiring
them.  The flow's stages reach it through :mod:`repro.engine.stored`,
which also builds every key; this module only stores and loads.

Layout (one directory per artifact, named by the full SHA-256 key)::

    <store root>/
        <64-hex-char key>/
            meta.json          # kind, the keyed config record, array names
            traces.npy         # trace arrays, one .npy per array
            plaintexts.npy

Arrays are stored as one ``.npy`` file each (NumPy's native format);
JSON-only artifacts (assessment verdicts, routed layouts, sweep reports)
carry their payload inside ``meta.json``, written as one compact line
(entries written indented by older versions read the same).  A lookup
reads ``meta.json`` once.  A JSON payload may set some of its entries
apart as *parts*, one ``<name>.json`` file each beside ``meta.json``
(a routed layout's full record is one): a lookup reads none of them,
and :meth:`ArtifactStore.get_part` reads one when it is asked for.

Writes are atomic: an artifact is assembled in a temporary directory and
renamed into place, so parallel sweep cells racing on the same key never
observe a half-written entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..obs import get_observer
from ..power.trace import TraceSet

__all__ = ["ArtifactStore", "content_key"]

#: Bump when the on-disk layout changes shape, or when every key
#: changes at once (2: keys rooted at the physics fingerprint; 3: a
#: layout entry's payload is its rail loads and details, its full
#: record a part of its own).
_STORE_FORMAT = 3


def content_key(payload: Mapping[str, Any]) -> str:
    """SHA-256 content hash of a JSON-able payload (canonical form).

    The payload is serialised with sorted keys and minimal separators so
    logically equal configs hash equally regardless of dict order.
    """
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ArtifactStore:
    """Content-addressed cache of trace sets and JSON stage results.

    Args:
        root: store directory (created on first write).
    """

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)
        # Access counters since this handle was opened (not persisted);
        # ``stats()`` reports them and the observer mirrors them as
        # ``store.hit`` / ``store.miss`` / ``store.write`` events.
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.bytes_written = 0

    def _count(self, hit: bool, kind: str) -> None:
        obs = get_observer()
        if hit:
            self.hits += 1
            obs.counter("store.hit", kind=kind)
        else:
            self.misses += 1
            obs.counter("store.miss", kind=kind)

    # ------------------------------------------------------------------ paths

    def path(self, key: str) -> Path:
        """Directory of the artifact stored under ``key``."""
        if not key or any(sep in key for sep in (os.sep, "/", "\\")):
            raise ValueError(f"malformed store key {key!r}")
        return self.root / key

    def __contains__(self, key: str) -> bool:
        return (self.path(key) / "meta.json").is_file()

    def _discard(self, key: str) -> None:
        """Remove an entry that exists but cannot be loaded.

        Writes never replace an existing entry (:meth:`_write_entry`
        takes a failed rename onto it as a lost race with a
        content-equal writer), so a damaged entry left in place would
        shadow every recomputed result for its key.
        """
        shutil.rmtree(self.path(key), ignore_errors=True)

    def _read_meta(self, key: str) -> Optional[Dict[str, Any]]:
        meta_path = self.path(key) / "meta.json"
        try:
            with open(meta_path, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
        except OSError:
            return None
        except ValueError:
            meta = None
        if not isinstance(meta, dict):
            self._discard(key)
            return None
        return meta

    def _read_current(self, key: str) -> Optional[Dict[str, Any]]:
        """:meth:`_read_meta` of an entry in this store's format.

        An entry of another ``format`` was laid out by another version
        of this module: it is removed (see :meth:`_discard`) and reads
        as a miss, so the recomputed result takes its place.
        """
        meta = self._read_meta(key)
        if meta is not None and meta.get("format") != _STORE_FORMAT:
            self._discard(key)
            return None
        return meta

    def _write_entry(
        self,
        key: str,
        meta: Dict[str, Any],
        arrays: Mapping[str, np.ndarray],
        parts: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        target = self.path(key)
        staging = Path(
            tempfile.mkdtemp(prefix=f".{key[:12]}-", dir=self.root)
        )
        try:
            for name, array in arrays.items():
                np.save(staging / f"{name}.npy", np.ascontiguousarray(array))
            for name, part in (parts or {}).items():
                (staging / f"{name}.json").write_text(
                    json.dumps(part, sort_keys=True), encoding="utf-8"
                )
            # One compact C-encoder dump: an indented one is several
            # times larger and slower on a layout entry.
            (staging / "meta.json").write_text(
                json.dumps(meta, sort_keys=True), encoding="utf-8"
            )
            entry_bytes = sum(
                path.stat().st_size for path in staging.iterdir() if path.is_file()
            )
            try:
                os.replace(staging, target)
            except OSError:
                # A concurrent writer won the race for this key; its
                # artifact is content-equal, keep it.
                if key not in self:
                    raise
        finally:
            # ``finally``, not ``except Exception``: a KeyboardInterrupt
            # mid-save must not leak the staging dir either.  After a
            # successful ``os.replace`` the path no longer exists and
            # this is a no-op; a writer killed outright (SIGKILL, OOM)
            # still leaves its dir behind -- that is what :meth:`gc`
            # prunes.
            shutil.rmtree(staging, ignore_errors=True)
        self.writes += 1
        self.bytes_written += entry_bytes
        obs = get_observer()
        if obs.active:
            obs.counter(
                "store.write", kind=str(meta.get("kind", "json")), bytes=entry_bytes
            )

    # ----------------------------------------------------------------- traces

    def put_traceset(
        self,
        key: str,
        traces: TraceSet,
        config: Mapping[str, Any],
        details: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Cache a :class:`~repro.power.trace.TraceSet` under ``key``.

        ``config`` is the keyed config record; it is stored verbatim in
        ``meta.json`` so ``repro store ls`` can explain every entry.
        ``details`` carries the producing stage's summary statistics, so
        cache hits report them without re-walking the arrays.
        """
        meta = {
            "format": _STORE_FORMAT,
            "kind": "traces",
            "key": key,
            "config": dict(config),
            "arrays": ["plaintexts", "traces"],
            "trace_key": int(traces.key),
            "description": traces.description,
            "count": len(traces),
        }
        if details is not None:
            meta["details"] = dict(details)
        self._write_entry(
            key,
            meta,
            {"plaintexts": traces.plaintexts, "traces": traces.traces},
        )

    def get_traceset(self, key: str, decode=None) -> Optional[Any]:
        """The cached trace set under ``key``, or ``None`` on a miss.

        With ``decode`` the result is ``decode((traces, details))``, the
        raw ``details`` read from the same ``meta.json`` (see
        :meth:`get_json`).
        """
        meta = self._read_current(key)
        if meta is None or meta.get("kind") != "traces":
            self._count(hit=False, kind="traces")
            return None
        directory = self.path(key)
        try:
            plaintexts = np.load(directory / "plaintexts.npy")
            traces = np.load(directory / "traces.npy")
        except (OSError, ValueError, EOFError):
            self._discard(key)
            self._count(hit=False, kind="traces")
            return None
        traceset = TraceSet(
            plaintexts=plaintexts,
            traces=traces,
            key=int(meta.get("trace_key", 0)),
            description=str(meta.get("description", "")),
        )
        if decode is not None:
            traceset = (traceset, meta.get("details"))
        return self._served(key, "traces", traceset, decode)

    def get_details(self, key: str) -> Optional[Dict[str, Any]]:
        """The producing stage's summary details, when the entry has them."""
        meta = self._read_meta(key)
        if meta is None:
            return None
        details = meta.get("details")
        return dict(details) if isinstance(details, Mapping) else None

    # ------------------------------------------------------------------- json

    def put_json(
        self,
        key: str,
        payload: Any,
        config: Mapping[str, Any],
        kind: str = "json",
        parts: Tuple[str, ...] = (),
    ) -> None:
        """Cache a JSON-able stage result under ``key``.

        The entries of the ``payload`` mapping named in ``parts`` are
        written as files of their own, so :meth:`get_json` reads none of
        them; :meth:`get_part` reads one back.
        """
        if parts:
            payload = dict(payload)
        separate = {name: payload.pop(name) for name in parts}
        meta = {
            "format": _STORE_FORMAT,
            "kind": kind,
            "key": key,
            "config": dict(config),
            "payload": payload,
        }
        if separate:
            meta["parts"] = sorted(separate)
        self._write_entry(key, meta, {}, separate)

    def get_json(
        self,
        key: str,
        kind: str = "json",
        decode: Optional[Callable[[Any], Any]] = None,
    ) -> Optional[Any]:
        """The cached JSON payload under ``key``, or ``None`` on a miss.

        With ``decode`` the result is ``decode(payload)`` instead.  A
        payload it cannot decode -- it returns ``None`` or raises a
        ``LookupError``, ``TypeError`` or ``ValueError`` -- is a damaged
        entry: it is removed (see :meth:`_discard`) and reads as a miss,
        so the recomputed result takes its place.
        """
        meta = self._read_current(key)
        if meta is None or meta.get("kind") != kind:
            self._count(hit=False, kind=kind)
            return None
        return self._served(key, kind, meta.get("payload"), decode)

    def get_part(
        self, key: str, name: str, decode: Optional[Callable[[Any], Any]] = None
    ) -> Optional[Any]:
        """The part ``name`` of the JSON entry under ``key`` (see
        :meth:`put_json`), or ``decode(part)``; ``None`` when it is gone.

        The entry's lookup was counted when :meth:`get_json` served it,
        so reading a part counts nothing.  A part that is missing from
        its entry, cannot be parsed or that ``decode`` refuses (as in
        :meth:`get_json`) is a damaged entry: it is removed.
        """
        if not name.isidentifier():
            raise ValueError(f"malformed part name {name!r}")
        directory = self.path(key)
        try:
            with open(directory / f"{name}.json", "r", encoding="utf-8") as handle:
                part = json.load(handle)
            if decode is not None:
                part = decode(part)
        except (OSError, LookupError, TypeError, ValueError):
            part = None
        if part is None and directory.is_dir():
            self._discard(key)
        return part

    def _served(self, key: str, kind: str, payload: Any, decode) -> Optional[Any]:
        """``payload`` (or ``decode(payload)``) of the entry under ``key``,
        counted as a hit; a payload ``decode`` refuses removes the entry
        and counts as a miss."""
        if decode is not None:
            try:
                payload = decode(payload)
            except (LookupError, TypeError, ValueError):
                payload = None
            if payload is None:
                self._discard(key)
                self._count(hit=False, kind=kind)
                return None
        self._count(hit=True, kind=kind)
        return payload

    # ------------------------------------------------------------ maintenance

    def entries(self) -> List[Dict[str, Any]]:
        """Metadata of every artifact in the store, sorted by key."""
        if not self.root.is_dir():
            return []
        records: List[Dict[str, Any]] = []
        for child in sorted(self.root.iterdir()):
            if not child.is_dir() or child.name.startswith("."):
                continue
            meta = self._read_meta(child.name)
            if meta is not None:
                records.append(meta)
        return records

    def size_bytes(self) -> int:
        """Total bytes the store occupies on disk.

        Other processes may write to the store while this walks it: a
        writer renames its staging dir into place, and the loser of a
        race deletes its own.  A dir or file that vanishes mid-walk
        counts as gone instead of failing the caller.
        """
        total = 0
        for directory, _, files in os.walk(self.root):
            for name in files:
                try:
                    total += os.stat(os.path.join(directory, name)).st_size
                except FileNotFoundError:
                    pass
        return total

    def stats(self) -> Dict[str, Any]:
        """Store state and access counters of this handle.

        ``entries``/``bytes`` describe the on-disk store as a whole;
        ``hits``/``misses``/``writes``/``bytes_written`` count only the
        accesses made through this handle since it was constructed.
        """
        return {
            "root": str(self.root),
            "entries": len(self.entries()),
            "bytes": self.size_bytes(),
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "bytes_written": self.bytes_written,
        }

    #: Staging dirs look like ``.{first 12 hex chars of the key}-{random}``
    #: (see :meth:`_write_entry`); nothing else in the store starts that
    #: way, so :meth:`gc` can match them safely.
    _STAGING_PATTERN = re.compile(r"^\.[0-9a-f]{12}-")

    def gc(self, min_age_s: float = 0.0) -> int:
        """Prune orphaned staging directories; returns the number removed.

        Atomic writes stage under ``.{key}-*`` and clean up after
        themselves even when the write raises -- but a writer killed
        outright (SIGKILL, OOM, power loss) leaves its staging dir
        behind: invisible to :meth:`entries`, yet holding real bytes.
        ``min_age_s`` protects concurrent *live* writers: only dirs at
        least that many seconds old (by mtime) are pruned, so run e.g.
        ``repro store gc --min-age 3600`` on a store other processes may
        be writing to.
        """
        removed = 0
        if not self.root.is_dir():
            return removed
        now = time.time()
        for child in self.root.iterdir():
            if not child.is_dir() or not self._STAGING_PATTERN.match(child.name):
                continue
            try:
                age = now - child.stat().st_mtime
            except OSError:
                continue
            if age >= min_age_s:
                shutil.rmtree(child, ignore_errors=True)
                removed += 1
        return removed

    def clear(self) -> int:
        """Delete every artifact; returns the number removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for child in self.root.iterdir():
            if child.is_dir():
                shutil.rmtree(child, ignore_errors=True)
                removed += 1
        return removed

    def __repr__(self) -> str:
        return f"ArtifactStore({str(self.root)!r})"
