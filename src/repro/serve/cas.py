"""Content-addressed store (CAS) of JSON results.

One JSON-serialised result per file under
``<root>/<key[:2]>/<key>.json``, where ``key`` is a SHA-256 content
hash of everything that determines the result.  The store is safe for
many concurrent writers — every write goes through a same-directory
temp file plus an atomic ``os.replace`` — and *forgiving* readers: a
corrupt, truncated, or concurrently-vanishing entry is a miss, never an
exception.

Each store also remembers the entries it has read or written, decoded,
up to :data:`MEMORY_BYTES` of their serialised JSON, evicting the least
recently used first.  :meth:`ContentStore.get` answers from memory
before the disk; :meth:`ContentStore.recall` answers from memory only
and never touches the disk, so an event loop can call it directly.  A
result is remembered only after its atomic write succeeded, and
:meth:`ContentStore.gc` forgets what it deletes.  The memory is per
process: a pickled store arrives empty and reads the disk.

:class:`ContentStore` is the base used both by
:class:`repro.bench.cache.RunCache` (which adds simulation-specific
keying and spans) and by the serve subsystem's result store.  Garbage
collection (:meth:`ContentStore.gc`) evicts least-recently-used entries
by file mtime until the store fits a byte budget; ``repro cache gc``
exposes it on the command line.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path

#: The only shape a content key can have: a full SHA-256 hexdigest.
#: Everything else — in particular anything containing ``/`` or ``..``
#: — must be rejected *before* it is joined into a filesystem path.
KEY_RE = re.compile(r"[0-9a-f]{64}")

#: Serialised JSON bytes of the entries one store keeps decoded in
#: memory; the least recently used go first.
MEMORY_BYTES = 64 << 20


def valid_key(key) -> bool:
    """Whether ``key`` is a well-formed content key."""
    return isinstance(key, str) and KEY_RE.fullmatch(key) is not None


def store_key(value) -> str:
    """SHA-256 content key of a JSON-serialisable value.

    The value is canonicalised (sorted keys, compact separators) so two
    structurally-equal requests produce the same key regardless of dict
    insertion order.
    """
    text = json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


class ContentStore:
    """Content-addressed store of JSON dicts with atomic writes and a
    bounded, thread-safe memory of recent entries.

    The dicts :meth:`get` and :meth:`recall` return are the memory's
    own: read them, never change them.

    :param root: store directory (created lazily on first write).
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self._empty_memory()

    def _empty_memory(self) -> None:
        # key -> (dict, serialised bytes), least recently used first.
        self._memory: OrderedDict[str, tuple[dict, int]] = OrderedDict()
        self._memory_bytes = 0
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        """Pickle without the lock or the memory: a copy in another
        process starts empty and reads the disk."""
        state = dict(self.__dict__)
        for name in ("_memory", "_memory_bytes", "_lock"):
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._empty_memory()

    def _forget(self, key: str) -> None:
        """Drop ``key`` from memory.  Call with the lock held."""
        old = self._memory.pop(key, None)
        if old is not None:
            self._memory_bytes -= old[1]

    def _remember(self, key: str, data: dict, size: int) -> None:
        """Keep ``data`` (``size`` serialised bytes) as the most recently
        used entry, evicting the least recently used over the bound.
        Call with the lock held."""
        self._forget(key)
        if size > MEMORY_BYTES:
            return
        self._memory[key] = (data, size)
        self._memory_bytes += size
        while self._memory_bytes > MEMORY_BYTES:
            _, (_, evicted) = self._memory.popitem(last=False)
            self._memory_bytes -= evicted

    def recall(self, key: str) -> dict | None:
        """The remembered dict for ``key``, or ``None``.  Never touches
        the disk, and counts only a hit: a caller that goes on to
        :meth:`get` on a miss counts that probe's miss once."""
        with self._lock:
            entry = self._memory.get(key)
            if entry is None:
                return None
            self._memory.move_to_end(key)
            self.hits += 1
            return entry[0]

    def _path(self, key: str) -> Path:
        """Filesystem location of ``key`` — which must be a validated
        content key: an unvalidated key containing ``/`` or ``..``
        would escape the store root (path traversal)."""
        if not valid_key(key):
            raise ValueError(f"invalid content key {key[:80]!r}")
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The stored dict for ``key``, from memory or else from disk,
        or ``None``.

        Any unreadable entry — missing, truncated, non-JSON, non-dict,
        deleted between stat and read by a concurrent GC, or addressed
        by a malformed key — counts as a miss: readers never crash on
        another process's half-state (or a hostile key).
        """
        data = self.recall(key)
        if data is not None:
            return data
        try:
            raw = self._path(key).read_bytes()
            data = json.loads(raw)
        except (OSError, ValueError):
            data = None
        with self._lock:
            if not isinstance(data, dict):
                self.misses += 1
                return None
            self._remember(key, data, len(raw))
            self.hits += 1
        return data

    def contains(self, key: str) -> bool:
        """Whether an entry exists (without reading or counting it)."""
        return valid_key(key) and self._path(key).is_file()

    def put(self, key: str, data: dict) -> None:
        """Store ``data`` under ``key``, atomically.

        The temp file lives in the destination directory so the final
        ``os.replace`` is a same-filesystem rename: concurrent readers
        see either the old entry or the new one, never a torn write.
        Racing writers of the same key are both writing the same
        content-addressed bytes, so the last rename wins harmlessly.
        ``data`` is remembered only once the rename has succeeded.
        """
        path = self._path(key)
        text = json.dumps(data)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        with self._lock:
            self._remember(key, data, len(text))
            self.stores += 1

    def entries(self) -> list[dict]:
        """All entries as ``{key, path, bytes, mtime}`` rows.

        Entries that vanish mid-scan (a concurrent GC or writer) are
        skipped.  Leftover ``*.tmp`` files from crashed writers are not
        entries — :meth:`gc` sweeps them.
        """
        rows = []
        if not self.root.is_dir():
            return rows
        for path in self.root.glob("??/*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            rows.append({"key": path.stem, "path": path,
                         "bytes": stat.st_size, "mtime": stat.st_mtime})
        return rows

    def total_bytes(self) -> int:
        """Total payload bytes currently stored."""
        return sum(row["bytes"] for row in self.entries())

    def gc(self, max_bytes: int, dry_run: bool = False) -> dict:
        """Evict least-recently-used entries until ≤ ``max_bytes``.

        LRU is by file mtime (a hit does not touch the file, so this
        approximates insertion order unless callers ``os.utime`` on
        use).  Orphaned ``*.tmp`` files older than an hour are removed
        too.  Returns a report dict::

            {"entries": n, "bytes": total, "removed": [keys...],
             "removed_bytes": n, "kept_bytes": n, "dry_run": bool}

        With ``dry_run`` nothing is deleted; the report shows what
        would go.  Missing files during deletion are ignored (another
        process won the race).  A deleted entry is forgotten from memory
        too, so it reads as a miss.
        """
        rows = sorted(self.entries(), key=lambda r: r["mtime"])
        total = sum(r["bytes"] for r in rows)
        report = {"entries": len(rows), "bytes": total, "removed": [],
                  "removed_bytes": 0, "kept_bytes": total,
                  "dry_run": bool(dry_run)}
        excess = total - max(0, int(max_bytes))
        for row in rows:
            if excess <= 0:
                break
            report["removed"].append(row["key"])
            report["removed_bytes"] += row["bytes"]
            excess -= row["bytes"]
            if not dry_run:
                with self._lock:
                    self._forget(row["key"])
                try:
                    os.unlink(row["path"])
                except OSError:
                    pass
        report["kept_bytes"] = total - report["removed_bytes"]
        if not dry_run:
            self._sweep_tmp()
        return report

    def _sweep_tmp(self, min_age_s: float = 3600.0) -> None:
        """Remove stale temp files left by crashed writers."""
        import time
        cutoff = time.time() - min_age_s
        if not self.root.is_dir():
            return
        for tmp in self.root.glob("??/*.tmp"):
            try:
                if tmp.stat().st_mtime < cutoff:
                    os.unlink(tmp)
            except OSError:
                pass
