"""The cache and the stride prefetcher against reference models.

Both engines share one :class:`~repro.machine.cache.Cache` and one
:class:`~repro.machine.hwprefetch.StridePrefetcher`, so engine
equivalence cannot see a change to either: both engines would move
together.  These tests keep straightforward versions of the two as
test-local references — a cache whose lines are ``[fill_time, dirty]``
entries, and the prefetcher's ``observe`` written with plain
``del``/re-insert LRU touches — and drive each pair with seeded
random, strided and interleaved line streams, comparing every returned
value and the whole model state after every step.
"""

from __future__ import annotations

import random

import pytest

from repro.machine import Cache, StridePrefetcher
from repro.machine.cache import CacheStats


class RefCache:
    """Set-associative LRU cache; a line is a ``[fill_time, dirty]``
    list in its set's insertion-ordered dict."""

    def __init__(self, size_bytes: int, ways: int, line_size: int = 64):
        self.ways = ways
        self.num_sets = size_bytes // line_size // ways
        self._sets: list[dict[int, list]] = [
            {} for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def lookup(self, line_addr: int) -> float | None:
        lines = self._sets[line_addr % self.num_sets]
        entry = lines.get(line_addr)
        if entry is None:
            return None
        del lines[line_addr]
        lines[line_addr] = entry
        return entry[0]

    def insert(self, line_addr: int, fill_time: float,
               dirty: bool = False) -> bool:
        lines = self._sets[line_addr % self.num_sets]
        dirty_evicted = False
        if line_addr in lines:
            dirty = dirty or lines[line_addr][1]
            del lines[line_addr]
        elif len(lines) >= self.ways:
            oldest = next(iter(lines))
            dirty_evicted = lines[oldest][1]
            del lines[oldest]
            self.stats.evictions += 1
            if dirty_evicted:
                self.stats.dirty_evictions += 1
        lines[line_addr] = [fill_time, dirty]
        return dirty_evicted

    def mark_dirty(self, line_addr: int) -> None:
        entry = self._sets[line_addr % self.num_sets].get(line_addr)
        if entry is not None:
            entry[1] = True

    def contains(self, line_addr: int) -> bool:
        return line_addr in self._sets[line_addr % self.num_sets]

    def invalidate_all(self) -> None:
        for s in self._sets:
            s.clear()


class RefStridePrefetcher:
    """Per-region stride detector; streams are
    ``[last_line, stride, confidence]`` lists."""

    STREAMS_PER_REGION = 2
    REGION_BITS = 6

    def __init__(self, distance: int = 4, degree: int = 2,
                 train_threshold: int = 2, table_size: int = 32):
        self.distance = distance
        self.degree = degree
        self.train_threshold = train_threshold
        self.table_size = table_size
        self._table: dict[int, list[list]] = {}
        self._last_line: int | None = None

    def observe(self, pc: int, line_addr: int) -> list[int]:
        if line_addr == self._last_line:
            return []
        self._last_line = line_addr
        region = line_addr >> self.REGION_BITS
        table = self._table
        streams = table.get(region)
        if streams is None:
            if len(table) >= self.table_size:
                del table[next(iter(table))]
            table[region] = [[line_addr, 0, 0]]
            return []
        del table[region]
        table[region] = streams
        entry = min(streams, key=lambda s: abs(line_addr - s[0]))
        stride = line_addr - entry[0]
        if stride == 0:
            return []
        if abs(stride) > 8 and len(streams) < self.STREAMS_PER_REGION:
            streams.append([line_addr, 0, 0])
            return []
        if stride == entry[1]:
            entry[2] = min(entry[2] + 1, 8)
        else:
            entry[1] = stride
            entry[2] = 1
        entry[0] = line_addr
        if entry[2] < self.train_threshold:
            return []
        return [line_addr + stride * (self.distance + i)
                for i in range(self.degree)]


def line_stream(kind: str, seed: int, steps: int) -> list[int]:
    """Seeded line addresses: ``random`` lines over a few regions,
    ``strided`` runs of random strides (both signs, some beyond a
    stream's reach), or ``interleaved`` accesses of two to four strided
    streams taking turns, some through the same region."""
    rng = random.Random(seed)
    if kind == "random":
        return [rng.randrange(1 << 10) for _ in range(steps)]
    if kind == "strided":
        lines, line = [], rng.randrange(1 << 12)
        while len(lines) < steps:
            stride = rng.choice((1, 1, 2, 3, -1, -2, 5, 9, 16, -12, 0))
            for _ in range(rng.randrange(1, 40)):
                line = max(0, line + stride)
                lines.append(line)
        return lines[:steps]
    streams = [[rng.randrange(1 << 12), rng.choice((1, 2, 3, -1, 11))]
               for _ in range(rng.randrange(2, 5))]
    if rng.random() < 0.5:
        # A look-ahead stream through the same array (Fig. 2).
        streams[1][0] = streams[0][0] + rng.randrange(1, 20)
        streams[1][1] = streams[0][1]
    lines = []
    for step in range(steps):
        stream = streams[step % len(streams)]
        stream[0] = max(0, stream[0] + stream[1])
        lines.append(stream[0])
    return lines


KINDS = ("random", "strided", "interleaved")


def assert_same_cache(cache: Cache, ref: RefCache) -> None:
    """Per-set LRU order, fill times and dirty lines, and counters."""
    for lines, ref_lines in zip(cache._sets, ref._sets):
        assert list(lines.items()) == [(line, entry[0]) for line, entry
                                       in ref_lines.items()]
    assert cache._dirty == {line for ref_lines in ref._sets
                            for line, entry in ref_lines.items()
                            if entry[1]}
    assert cache.stats == ref.stats


class TestCacheMatchesReference:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_every_step(self, kind, seed):
        """A random mix of inserts (clean and dirty, new and resident
        lines), lookups, dirty marks, residence tests and, rarely, an
        invalidation, on a 4-way cache of 8 sets."""
        rng = random.Random(1000 + seed)
        cache = Cache("L1", 2048, 4, 64, 4)
        ref = RefCache(2048, 4)
        for line in line_stream(kind, seed, 3000):
            op = rng.random()
            if op < 0.45:
                fill = float(rng.randrange(10_000)) + rng.random()
                dirty = rng.random() < 0.3
                assert cache.insert(line, fill, dirty) == \
                    ref.insert(line, fill, dirty)
            elif op < 0.75:
                assert cache.lookup(line) == ref.lookup(line)
            elif op < 0.9:
                cache.mark_dirty(line)
                ref.mark_dirty(line)
            elif op < 0.999:
                assert cache.contains(line) == ref.contains(line)
            else:
                cache.invalidate_all()
                ref.invalidate_all()
            assert_same_cache(cache, ref)
        assert ref.stats.evictions > 0 and ref.stats.dirty_evictions > 0


class TestStridePrefetcherMatchesReference:
    @pytest.mark.parametrize("table_size", (4, 32))
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_every_step(self, kind, seed, table_size):
        """Same fills, same stream table in the same LRU order, same
        last line, after every access."""
        pf = StridePrefetcher(table_size=table_size)
        ref = RefStridePrefetcher(table_size=table_size)
        issued = 0
        for line in line_stream(kind, seed, 3000):
            fills = pf.observe(0, line)
            assert fills == ref.observe(0, line)
            issued += len(fills)
            assert list(pf._table.items()) == list(ref._table.items())
            assert pf._last_line == ref._last_line
        if kind == "strided":
            assert issued > 0

    def test_other_geometry(self):
        """Distance, degree and threshold other than the machines'."""
        pf = StridePrefetcher(distance=2, degree=3, train_threshold=3,
                              table_size=8)
        ref = RefStridePrefetcher(distance=2, degree=3, train_threshold=3,
                                  table_size=8)
        for line in line_stream("interleaved", 7, 3000):
            assert pf.observe(0, line) == ref.observe(0, line)
            assert list(pf._table.items()) == list(ref._table.items())
