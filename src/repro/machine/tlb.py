"""Two-level TLB and page-walker model.

Three features matter for the paper's results:

* **walk concurrency** — the Cortex-A57 "can only support one page-table
  walk at a time on a TLB miss", serialising the very misses software
  prefetching tries to overlap (§6.1); the model exposes this as
  ``max_walks``;
* **page size** — transparent huge pages shrink the number of TLB misses
  for large working sets (Fig. 10); the model takes ``page_bits`` so a
  run can switch between 4 KiB and 2 MiB pages;
* **the second-level TLB** — software prefetches warm both TLB levels,
  so the later demand access pays only the L2-TLB latency even when the
  small L1 TLB has evicted the page again.

Page-table walks are charged a fixed latency calibrated to PTEs hitting
in the cache hierarchy (page tables for the paper's working sets are tens
of KiB and stay cache-resident).  Software prefetches *do* fill the TLB —
the paper credits part of their benefit to exactly this side effect.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass
class TLBStats:
    """Hit/miss counters for the TLB."""

    hits: int = 0
    l2_hits: int = 0
    misses: int = 0
    walk_cycles: float = 0.0

    @property
    def accesses(self) -> int:
        """Total translations requested."""
        return self.hits + self.l2_hits + self.misses

    def snapshot(self) -> dict:
        """All counters plus the derived total as a plain dict."""
        snap = dataclasses.asdict(self)
        snap["accesses"] = self.accesses
        return snap


class TLB:
    """A two-level LRU TLB with a finite-concurrency page walker.

    :param entries: first-level TLB entries (fully associative, LRU).
    :param page_bits: log2 of the page size (12 = 4KiB, 21 = 2MiB).
    :param walk_latency: cycles for one page-table walk.
    :param max_walks: concurrent walks the walker supports.
    :param l2_entries: second-level TLB entries (0 = no L2 TLB).
    :param l2_latency: added cycles for an L1-miss/L2-hit translation.
    """

    def __init__(self, entries: int, page_bits: int = 12,
                 walk_latency: int = 35, max_walks: int = 2,
                 l2_entries: int = 0, l2_latency: int = 10):
        if entries < 1 or max_walks < 1:
            raise ValueError("TLB needs at least one entry and one walker")
        self.entries = entries
        self.page_bits = page_bits
        self.walk_latency = walk_latency
        self.max_walks = max_walks
        self.l2_entries = l2_entries
        self.l2_latency = l2_latency
        self._pages: dict[int, None] = {}
        self._l2_pages: dict[int, None] = {}
        # Completion times of in-flight walks (bounded list).
        self._walks: list[float] = []
        self.stats = TLBStats()

    @property
    def page_size(self) -> int:
        """Page size in bytes."""
        return 1 << self.page_bits

    def translate(self, addr: int, time: float) -> float:
        """Translate ``addr`` at ``time``; returns translation-ready time.

        L1 hits are free (latency folded into the cache access); L2 hits
        cost ``l2_latency``; misses wait for a free walker, then take
        ``walk_latency`` cycles.
        """
        page = addr >> self.page_bits
        pages = self._pages
        if page in pages:
            del pages[page]
            pages[page] = None
            self.stats.hits += 1
            return time
        return self._miss(page, time)

    def _miss(self, page: int, time: float) -> float:
        """L1-TLB-miss tail of :meth:`translate` (L2 probe, then walk)."""
        if page in self._l2_pages:
            del self._l2_pages[page]
            self._l2_pages[page] = None
            self.stats.l2_hits += 1
            self._insert_l1(page)
            return time + self.l2_latency
        self.stats.misses += 1
        # Acquire a walker: if all are busy, wait for the earliest one.
        start = time
        walks = self._walks
        if len(walks) >= self.max_walks:
            walks.sort()
            while walks and walks[0] <= time:
                walks.pop(0)
            if len(walks) >= self.max_walks:
                start = walks.pop(0)
        done = start + self.walk_latency
        walks.append(done)
        self.stats.walk_cycles += done - time
        self._insert_l1(page)
        self._insert_l2(page)
        return done

    def _insert_l1(self, page: int) -> None:
        if len(self._pages) >= self.entries:
            del self._pages[next(iter(self._pages))]
        self._pages[page] = None

    def _insert_l2(self, page: int) -> None:
        if not self.l2_entries:
            return
        if page in self._l2_pages:
            del self._l2_pages[page]
        elif len(self._l2_pages) >= self.l2_entries:
            del self._l2_pages[next(iter(self._l2_pages))]
        self._l2_pages[page] = None

    def flush(self) -> None:
        """Drop all entries and in-flight walks."""
        self._pages.clear()
        self._l2_pages.clear()
        self._walks.clear()

    def snapshot(self) -> dict:
        """Configuration and statistics as a plain dict (JSON-ready)."""
        return {
            "entries": self.entries,
            "l2_entries": self.l2_entries,
            "page_bits": self.page_bits,
            "max_walks": self.max_walks,
            "stats": self.stats.snapshot(),
        }
