"""Set-associative cache model with fill-time tracking.

Each cached line remembers when its fill completes, so a demand access to
a line that is *in flight* (e.g. just software-prefetched) waits only for
the remaining fill latency — the mechanism behind the paper's "offset too
small" behaviour, where a late prefetch hides only part of the miss.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass
class CacheStats:
    """Hit/miss counters for one cache level."""

    hits: int = 0
    misses: int = 0
    prefetch_hits: int = 0
    prefetch_fills: int = 0
    evictions: int = 0
    dirty_evictions: int = 0

    @property
    def accesses(self) -> int:
        """Total demand accesses."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Demand hit rate in [0, 1]."""
        return self.hits / self.accesses if self.accesses else 0.0

    def snapshot(self) -> dict:
        """All counters plus derived rates as a plain dict."""
        snap = dataclasses.asdict(self)
        snap["accesses"] = self.accesses
        snap["hit_rate"] = self.hit_rate
        return snap


class Cache:
    """One level of set-associative, LRU, write-allocate cache.

    :param size_bytes: total capacity.
    :param ways: associativity.
    :param line_size: line size in bytes (64 throughout the paper).
    :param latency: access latency in cycles when the line is resident.
    """

    def __init__(self, name: str, size_bytes: int, ways: int,
                 line_size: int = 64, latency: int = 4):
        lines = size_bytes // line_size
        if lines % ways:
            raise ValueError("capacity must divide evenly into ways")
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_size = line_size
        self.latency = latency
        self.num_sets = lines // ways
        # Per set: {line address: fill_time}; dict preserves insertion
        # order and we re-insert on touch, giving LRU.  A set holds only
        # ints and floats, so the garbage collector never tracks it.
        self._sets: list[dict[int, float]] = [
            {} for _ in range(self.num_sets)]
        #: The resident lines written since their fill (always a subset
        #: of the lines in ``_sets``).
        self._dirty: set[int] = set()
        self.stats = CacheStats()

    def lookup(self, line_addr: int) -> float | None:
        """Return the line's fill time if resident (marking it MRU)."""
        lines = self._sets[line_addr % self.num_sets]
        fill = lines.pop(line_addr, None)
        if fill is not None:
            lines[line_addr] = fill
        return fill

    def insert(self, line_addr: int, fill_time: float,
               dirty: bool = False) -> bool:
        """Install a line (evicting LRU if the set is full).

        :returns: True when a *dirty* line was evicted (the caller
            charges the writeback at the memory-side level).
        """
        lines = self._sets[line_addr % self.num_sets]
        dirty_evicted = False
        if line_addr in lines:
            del lines[line_addr]
        elif len(lines) >= self.ways:
            oldest = next(iter(lines))
            del lines[oldest]
            self.stats.evictions += 1
            if oldest in self._dirty:
                self._dirty.remove(oldest)
                dirty_evicted = True
                self.stats.dirty_evictions += 1
        lines[line_addr] = fill_time
        if dirty:
            self._dirty.add(line_addr)
        return dirty_evicted

    def mark_dirty(self, line_addr: int) -> None:
        """Flag a resident line as modified (no-op when absent)."""
        if line_addr in self._sets[line_addr % self.num_sets]:
            self._dirty.add(line_addr)

    def contains(self, line_addr: int) -> bool:
        """Residence test without LRU side effects."""
        return line_addr in self._sets[line_addr % self.num_sets]

    def invalidate_all(self) -> None:
        """Drop every line (used between benchmark repetitions)."""
        for s in self._sets:
            s.clear()
        self._dirty.clear()

    def snapshot(self) -> dict:
        """Geometry and statistics as a plain dict (JSON-ready)."""
        return {
            "name": self.name,
            "size_bytes": self.size_bytes,
            "ways": self.ways,
            "latency": self.latency,
            "stats": self.stats.snapshot(),
        }

    def __repr__(self) -> str:
        return (f"<Cache {self.name} {self.size_bytes // 1024}KiB "
                f"{self.ways}-way {self.latency}cy>")
