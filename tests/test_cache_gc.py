"""Tests for the content-addressed store's GC and the ``repro cache
gc`` CLI, its bounded memory of recent entries, plus the
concurrent-writer hardening of the shared disk layer (two-process race
test)."""

from __future__ import annotations

import io
import json
import multiprocessing
import os
import pickle
import sys
import threading
import time

import pytest

from repro.bench.cache import RunCache
from repro.cli import main
from repro.serve import cas
from repro.serve.cas import ContentStore, store_key


def fill(store: ContentStore, n: int, payload_bytes: int = 200):
    """Store n entries with strictly increasing mtimes; returns keys."""
    keys = []
    for i in range(n):
        key = store_key({"entry": i})
        store.put(key, {"i": i, "pad": "x" * payload_bytes})
        mtime = time.time() - (n - i) * 10
        os.utime(store._path(key), (mtime, mtime))
        keys.append(key)
    return keys


class TestStoreKey:
    def test_order_insensitive(self):
        assert store_key({"a": 1, "b": 2}) == store_key({"b": 2, "a": 1})
        assert store_key({"a": 1}) != store_key({"a": 2})


class TestKeyValidation:
    """Only full sha256 hexdigests may ever reach the filesystem —
    anything else (``..``, ``/``, uppercase, wrong length) would be a
    path-traversal vector when keys arrive from a URL."""

    GOOD = store_key({"x": 1})
    BAD = ["", "abc", GOOD[:-1], GOOD + "0", GOOD.upper(),
           "aa/../../../../etc/passwd", "../" + GOOD, GOOD[:-2] + "/x",
           "aa/" + GOOD[3:], GOOD[:-1] + "\x00"]

    def test_valid_key(self):
        from repro.serve.cas import valid_key
        assert valid_key(self.GOOD)
        for key in self.BAD:
            assert not valid_key(key), key

    def test_path_refuses_bad_keys(self, tmp_path):
        store = ContentStore(tmp_path)
        for key in self.BAD:
            with pytest.raises(ValueError):
                store._path(key)
            assert store.get(key) is None      # miss, not a crash
            assert store.contains(key) is False

    def test_traversal_cannot_escape_root(self, tmp_path):
        root = tmp_path / "store"
        sentinel = tmp_path / "sekrit.json"
        sentinel.write_text(json.dumps({"leak": True}))
        store = ContentStore(root)
        # Before validation this resolved to <root>/aa/aa/../../../
        # sekrit.json == tmp_path/sekrit.json.
        assert store.get("aa/../../../sekrit") is None


class TestContentStoreGC:
    def test_evicts_lru_until_budget(self, tmp_path):
        store = ContentStore(tmp_path)
        keys = fill(store, 6)
        total = store.total_bytes()
        per_entry = total // 6
        report = store.gc(max_bytes=per_entry * 3)
        # Oldest first, newest kept.
        assert report["removed"] == keys[:3]
        assert report["kept_bytes"] <= per_entry * 3 + 3
        for key in keys[:3]:
            assert store.get(key) is None
        for key in keys[3:]:
            assert store.get(key) is not None

    def test_dry_run_removes_nothing(self, tmp_path):
        store = ContentStore(tmp_path)
        keys = fill(store, 4)
        report = store.gc(max_bytes=0, dry_run=True)
        assert report["dry_run"] is True
        assert report["removed"] == keys
        for key in keys:
            assert store.contains(key)

    def test_budget_larger_than_store_is_noop(self, tmp_path):
        store = ContentStore(tmp_path)
        fill(store, 3)
        report = store.gc(max_bytes=1 << 30)
        assert report["removed"] == []

    def test_sweeps_stale_tmp_files(self, tmp_path):
        store = ContentStore(tmp_path)
        fill(store, 1)
        shard = next(tmp_path.glob("??"))
        stale = shard / "leftover.tmp"
        stale.write_text("partial")
        os.utime(stale, (time.time() - 7200, time.time() - 7200))
        store.gc(max_bytes=1 << 30)
        assert not stale.exists()


class TestMemory:
    """The store's bounded memory: ``get`` answers from it before the
    disk, ``recall`` from it alone."""

    KEY = store_key({"m": 1})

    def test_answers_after_the_file_is_gone(self, tmp_path):
        store = ContentStore(tmp_path)
        store.put(self.KEY, {"m": 1})
        os.unlink(store._path(self.KEY))
        assert store.recall(self.KEY) == {"m": 1}
        assert store.get(self.KEY) == {"m": 1}
        assert (store.hits, store.misses) == (2, 0)

    def test_recall_never_reads_the_disk(self, tmp_path):
        ContentStore(tmp_path).put(self.KEY, {"m": 1})
        store = ContentStore(tmp_path)
        assert store.recall(self.KEY) is None
        assert (store.hits, store.misses) == (0, 0)  # no miss booked
        assert store.get(self.KEY) == {"m": 1}      # a disk read...
        assert store._memory_bytes == store._path(self.KEY).stat().st_size
        os.unlink(store._path(self.KEY))
        assert store.recall(self.KEY) == {"m": 1}   # ...remembered
        assert store.get(store_key({"absent": 1})) is None
        assert (store.hits, store.misses) == (2, 1)

    def test_bound_evicts_least_recently_used(self, tmp_path,
                                              monkeypatch):
        def entry(i):
            return {"i": i, "pad": "x" * 100}

        size = len(json.dumps(entry(0)))
        monkeypatch.setattr(cas, "MEMORY_BYTES", 3 * size)
        store = ContentStore(tmp_path)
        keys = [store_key({"e": i}) for i in range(4)]
        for i in range(3):
            store.put(keys[i], entry(i))
            assert store._memory_bytes <= cas.MEMORY_BYTES
        assert store.recall(keys[0]) == entry(0)  # 1 is now the oldest
        store.put(keys[3], entry(3))
        assert store._memory_bytes == 3 * size
        assert store.recall(keys[1]) is None
        assert [store.recall(keys[i]) for i in (0, 2, 3)] == \
            [entry(0), entry(2), entry(3)]
        # An entry larger than the bound is stored, never remembered.
        big = store_key({"big": 1})
        store.put(big, {"pad": "x" * (3 * size)})
        assert store.recall(big) is None
        assert store.get(big) is not None
        assert store.recall(big) is None
        assert store._memory_bytes == 3 * size

    def test_failed_write_is_not_remembered(self, tmp_path, monkeypatch):
        store = ContentStore(tmp_path)

        def full_disk(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", full_disk)
        with pytest.raises(OSError):
            store.put(self.KEY, {"m": 1})
        monkeypatch.undo()
        with pytest.raises(TypeError):
            store.put(self.KEY, {"bad": object()})
        assert store.recall(self.KEY) is None
        assert (store.stores, store._memory_bytes) == (0, 0)
        assert list(tmp_path.glob("??/*")) == []

    def test_pickles_with_empty_memory(self, tmp_path):
        store = RunCache(tmp_path)
        store.put(self.KEY, {"m": 1})
        clone = pickle.loads(pickle.dumps(store))
        assert type(clone) is RunCache
        assert (clone.root, clone.stores) == (store.root, 1)
        assert clone.recall(self.KEY) is None
        assert clone.get(self.KEY) == {"m": 1}      # from disk
        os.unlink(store._path(self.KEY))
        assert clone.recall(self.KEY) == {"m": 1}   # its own memory
        assert store.recall(self.KEY) == {"m": 1}   # the original's
        with clone._lock:                            # a working lock
            assert clone._memory_bytes > 0

    def test_threads_share_one_store(self, tmp_path, monkeypatch):
        """Four threads putting, getting and recalling overlapping keys,
        with a bound small enough to evict all the time."""
        monkeypatch.setattr(cas, "MEMORY_BYTES", 1000)
        store = ContentStore(tmp_path)
        keys = [store_key({"t": i}) for i in range(12)]
        errors = []

        def work(seed):
            try:
                for n in range(300):
                    i = (seed * 5 + n) % len(keys)
                    if n % 3 == 0:
                        store.put(keys[i], {"t": i, "pad": "z" * 100})
                        continue
                    data = (store.get if n % 3 == 1 else store.recall)(
                        keys[i])
                    assert data is None or data["t"] == i, (i, data)
            except BaseException as exc:  # pragma: no cover - failure
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(seed,))
                       for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert store.stores == 4 * 100
        assert store._memory_bytes == sum(
            size for _, size in store._memory.values())
        assert store._memory_bytes <= cas.MEMORY_BYTES


class TestCacheGCCLI:
    def test_dry_run_then_real(self, tmp_path):
        store = ContentStore(tmp_path)
        keys = fill(store, 4)
        out = io.StringIO()
        assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                     "--max-bytes", "0", "--dry-run"], out=out) == 0
        assert "would evict 4 entries" in out.getvalue()
        assert all(store.contains(k) for k in keys)
        out = io.StringIO()
        assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                     "--max-bytes", "0"], out=out) == 0
        assert "evicted 4 entries" in out.getvalue()
        assert not any(store.contains(k) for k in keys)

    def test_honours_cache_dir_env(self, tmp_path, monkeypatch):
        store = ContentStore(tmp_path / "envroot")
        fill(store, 2)
        monkeypatch.setenv("REPRO_SIM_CACHE_DIR",
                           str(tmp_path / "envroot"))
        out = io.StringIO()
        assert main(["cache", "gc", "--max-bytes", "0"], out=out) == 0
        assert "evicted 2 entries" in out.getvalue()

    def test_negative_budget_rejected(self, tmp_path):
        assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                     "--max-bytes", "-1"], out=io.StringIO()) == 2


# ---------------------------------------------------------------------------
# Two-process race: concurrent writers + readers + GC share one root.


def _hammer(root: str, worker: int, iterations: int, out):
    """Child process: interleave puts, gets, and GCs on shared keys."""
    try:
        store = RunCache(root)
        for i in range(iterations):
            key = store_key({"slot": i % 5})
            store.put(key, {"worker": worker, "i": i,
                            "pad": "y" * 500})
            # A fresh instance has nothing in memory: it reads the disk.
            data = RunCache(root).get(key)
            # A concurrent GC may have evicted it; what's not allowed
            # is a torn/partial read.
            assert data is None or (isinstance(data, dict)
                                    and "pad" in data), data
            if worker == 0 and i % 7 == 0:
                store.gc(max_bytes=2000)
        out.put((worker, "ok"))
    except BaseException as exc:  # pragma: no cover - failure path
        out.put((worker, f"{type(exc).__name__}: {exc}"))


class TestConcurrentWriters:
    def test_two_process_race(self, tmp_path):
        """Two processes hammering the same root — same-key writes,
        reads, and GC evictions — must never crash or observe a torn
        entry (atomic temp-file + rename, corrupt/missing = miss)."""
        ctx = multiprocessing.get_context("fork")
        out = ctx.Queue()
        procs = [ctx.Process(target=_hammer,
                             args=(str(tmp_path), w, 60, out))
                 for w in range(2)]
        for proc in procs:
            proc.start()
        results = [out.get(timeout=60) for _ in procs]
        for proc in procs:
            proc.join(timeout=60)
        assert all(status == "ok" for _, status in results), results

    def test_truncated_entry_is_miss_not_exception(self, tmp_path):
        store = ContentStore(tmp_path)
        key = store_key({"x": 1})
        store.put(key, {"x": 1})
        # Simulate a torn write from a non-atomic writer.
        path = store._path(key)
        path.write_bytes(path.read_bytes()[:5])
        # The writer remembers what it wrote; a reader with nothing in
        # memory sees the torn file.
        assert ContentStore(tmp_path).get(key) is None

    def test_schema_drifted_row_is_miss_for_runner(self, tmp_path):
        """A cached row whose keys no longer match VariantResult must
        re-simulate, not crash, and be rewritten whole."""
        import dataclasses

        from repro.bench.cache import run_key
        from repro.bench.runner import run_variant
        from repro.envcfg import SimOptions
        from repro.machine import HASWELL
        from repro.workloads import IntegerSort

        def wl():
            return IntegerSort(num_keys=1000, num_buckets=1 << 10)

        key = run_key("plain", 64, None, {}, HASWELL, wl(), True,
                      SimOptions())
        RunCache(tmp_path).put(key, {"not_a_field": 1})
        result = run_variant(wl(), "plain", HASWELL,
                             cache=RunCache(tmp_path))
        assert result.cycles > 0
        assert RunCache(tmp_path).get(key)["row"] \
            == dataclasses.asdict(result)

    def test_crashed_writer_leaves_no_entry(self, tmp_path):
        """An exception mid-put removes the temp file and stores
        nothing."""
        store = ContentStore(tmp_path)
        key = store_key({"boom": True})
        try:
            store.put(key, {"bad": object()})
        except TypeError:
            pass
        assert store.get(key) is None
        assert list(tmp_path.glob("??/*.tmp")) == []
