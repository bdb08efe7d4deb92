"""The memory system: cache hierarchy + TLB + DRAM + hardware prefetcher.

:class:`MemorySystem` services every memory operation of a core and
returns data-ready times; it owns the state that software prefetching
manipulates.  Several memory systems may share one
:class:`~repro.machine.dram.DRAMChannel` to model multicore bandwidth
contention (Fig. 9).
"""

from __future__ import annotations

import heapq
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from .cache import Cache
from .configs import MachineConfig
from .dram import DRAMChannel
from .hwprefetch import StridePrefetcher
from .tlb import TLB

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry.collector import TelemetryCollector


@dataclass
class MemoryStats:
    """Aggregate counters across the hierarchy."""

    demand_accesses: int = 0
    demand_misses_to_dram: int = 0
    sw_prefetches: int = 0
    sw_prefetch_dram_fills: int = 0
    hw_prefetch_fills: int = 0

    def snapshot(self) -> dict:
        """All counters as a plain dict (stable keys, JSON-ready)."""
        return asdict(self)


class _MSHRFile:
    """Bounded set of outstanding line fills (miss-status registers)."""

    def __init__(self, entries: int):
        self.entries = entries
        self._completions: list[float] = []

    def acquire(self, time: float) -> float:
        """Reserve an MSHR at ``time``; returns when one is available."""
        heap = self._completions
        while heap and heap[0] <= time:
            heapq.heappop(heap)
        if len(heap) >= self.entries:
            return heapq.heappop(heap)
        return time

    def occupy(self, completion: float) -> None:
        """Mark an MSHR busy until ``completion``."""
        heapq.heappush(self._completions, completion)


class MemorySystem:
    """One core's view of the memory hierarchy.

    :param config: machine description.
    :param dram: optionally a shared channel (multicore); a private one is
        created otherwise.
    :param telemetry: a :class:`~repro.telemetry.TelemetryCollector` to
        observe this hierarchy.  The hooks are pure observation: cycle
        counts are unchanged, only wall-clock speed drops.

    Both engines use this one walk.  The fast engine's only shortcut is
    the L1 hit probe :class:`~repro.machine.fastexec._Emitter` inlines
    into compiled traces when no collector is attached: it reads the
    line's fill time straight from its L1 set (``caches[0]._sets``)
    and, when the fill has completed and the page is in the L1 TLB,
    replays exactly the side effects the walk would have had (LRU
    touches, hit counters, dirty marking in each level's
    ``Cache._dirty``, prefetcher training); otherwise the generated code
    calls :meth:`_demand` or :meth:`prefetch`.  The memory system holds
    no state for the probe.
    """

    def __init__(self, config: MachineConfig,
                 dram: DRAMChannel | None = None,
                 telemetry: "TelemetryCollector | None" = None):
        self.config = config
        self.line_size = config.line_size
        self.caches = [
            Cache(f"L{i + 1}", c.size_bytes, c.ways, config.line_size,
                  c.latency)
            for i, c in enumerate(config.caches)]
        self.tlb = TLB(config.tlb_entries, config.page_bits,
                       config.tlb_walk_latency, config.tlb_max_walks,
                       l2_entries=config.tlb_l2_entries,
                       l2_latency=config.tlb_l2_latency)
        self.dram = dram if dram is not None else DRAMChannel(
            config.dram_latency, config.dram_cycles_per_line,
            config.dram_contention_penalty)
        self.prefetcher = StridePrefetcher(
            distance=config.hw_prefetch_distance,
            degree=config.hw_prefetch_degree)
        self.mshrs = _MSHRFile(config.mshrs)
        self.stats = MemoryStats()
        self.telemetry = telemetry

    # -- public access points ---------------------------------------------

    def load(self, pc: int, addr: int, time: float) -> float:
        """Demand load; returns data-ready time."""
        return self._demand(pc, addr, time, False)

    def store(self, pc: int, addr: int, time: float) -> float:
        """Store (write-allocate); returns line-owned time.  Cores treat
        stores as fire-and-forget through a store buffer; dirty lines
        cost a DRAM writeback when they eventually leave the hierarchy."""
        return self._demand(pc, addr, time, True)

    def prefetch(self, pc: int, addr: int, time: float) -> float:
        """Software prefetch; returns the *issue-accept* time (the core
        never waits for the data).  Fills L1 (prefetcht0 semantics).

        Prefetch-triggered TLB walks happen off the critical path (they
        occupy a walker but do not delay the core); the only backpressure
        is a full MSHR file, which stalls issue until a fill retires —
        this is what throttles software-prefetch memory parallelism.
        """
        line = addr // self.line_size
        tel = self.telemetry
        self.stats.sw_prefetches += 1
        t = self.tlb.translate(addr, time)  # prefetches do fill the TLB
        for level, cache in enumerate(self.caches):
            fill = cache.lookup(line)
            if fill is not None:
                # Promote into the levels above.
                ready = max(t, fill) + cache.latency
                for upper in self.caches[:level]:
                    upper.insert(line, ready)
                    upper.stats.prefetch_fills += 1
                if tel is not None:
                    tel.prefetch_redundant(pc, line, time, cache.name)
                return time
        # Miss everywhere: bring the line from DRAM.
        start = self.mshrs.acquire(t)
        done = self.dram.access(start)
        self.mshrs.occupy(done)
        self.stats.sw_prefetch_dram_fills += 1
        self._fill_all(line, done, start)
        self.caches[0].stats.prefetch_fills += 1
        # The core resumes once the request is accepted (MSHR acquired);
        # translation latency itself is off the critical path.
        accepted = max(time, start - (t - time))
        if tel is not None:
            if start > t:
                tel.prefetch_dropped(pc, line, time)
                tel.account_backpressure(accepted - time)
            else:
                tel.prefetch_issued(pc, line, time, done)
        return accepted

    # -- internals ----------------------------------------------------------

    def _demand(self, pc: int, addr: int, time: float,
                is_write: bool) -> float:
        self.stats.demand_accesses += 1
        line = addr // self.line_size
        # TLB.translate with its L1-TLB hit served here.
        tlb = self.tlb
        page = addr >> tlb.page_bits
        pages = tlb._pages
        if page in pages:
            del pages[page]
            pages[page] = None
            tlb.stats.hits += 1
            t = time
        else:
            t = tlb._miss(page, time)
        if self.telemetry is not None:
            self.telemetry.account_translation(t - time)
        ready = self._hierarchy_access(line, t, is_write)
        fills = self.prefetcher.observe(pc, line)
        if fills:
            self._issue_hw_fills(fills, t)
        return ready

    def _hierarchy_access(self, line: int, t: float,
                          is_write: bool = False) -> float:
        tel = self.telemetry
        caches = self.caches
        for level, cache in enumerate(caches):
            # Cache.lookup, inlined: one read of the set.
            lines = cache._sets[line % cache.num_sets]
            fill = lines.pop(line, None)
            if fill is not None:
                lines[line] = fill
                if fill <= t:
                    cache.stats.hits += 1
                    ready = t + cache.latency
                else:
                    # In-flight fill (e.g. a software prefetch that was
                    # issued too late): wait out the remainder.
                    cache.stats.prefetch_hits += 1
                    ready = fill + cache.latency
                if tel is not None:
                    tel.demand_hit(line, cache.name, t, fill, ready)
                if level:
                    # The upper levels exclude the LLC, so none of these
                    # evictions is charged a writeback.
                    for upper in caches[:level]:
                        upper.insert(line, ready)
                if is_write:
                    for c in caches:
                        c.mark_dirty(line)
                return ready
            cache.stats.misses += 1
        start = self.mshrs.acquire(t)
        done = self.dram.access(start)
        self.mshrs.occupy(done)
        self.stats.demand_misses_to_dram += 1
        if tel is not None:
            tel.demand_miss(line, t, done)
        self._fill_all(line, done, start, dirty=is_write)
        return done

    def _fill_all(self, line: int, fill_time: float, request_time: float,
                  dirty: bool = False) -> None:
        """Install a line at every level, charging LLC dirty evictions.

        Writebacks are charged at the *request* time: scheduling them at
        the future fill time would block later fills for a whole memory
        latency rather than one line's worth of bandwidth.
        """
        llc = self.caches[-1]
        for cache in self.caches:
            if cache.insert(line, fill_time, dirty) and cache is llc:
                self.dram.writeback(request_time)

    def _issue_hw_fills(self, fills: list[int], t: float) -> None:
        # Hardware prefetches fill into the L2 (the L1 of a one-level
        # hierarchy) and consume DRAM bandwidth, but bypass the core's
        # MSHRs (dedicated queue).
        caches = self.caches
        llc = caches[-1]
        for fill_line in fills:
            for c in caches:
                if fill_line in c._sets[fill_line % c.num_sets]:
                    break
            else:
                done = self.dram.access(t)
                for cache in caches[1:] or caches:
                    if cache.insert(fill_line, done) and cache is llc:
                        self.dram.writeback(t)
                self.stats.hw_prefetch_fills += 1

    # -- bookkeeping ---------------------------------------------------------

    def flush(self) -> None:
        """Reset all cached state (between benchmark variants)."""
        for cache in self.caches:
            cache.invalidate_all()
        self.tlb.flush()
        self.prefetcher.reset()

    def mshr_occupancy(self, time: float) -> int:
        """Outstanding line fills still in flight at ``time``.

        A pure read for the timeline sampler: completed-but-unpruned
        heap entries are *not* counted, and the heap itself is left
        untouched (pruning happens only on the acquire paths, so a
        sampler must never pop).
        """
        return sum(1 for done in self.mshrs._completions if done > time)

    def snapshot(self) -> dict:
        """Every statistic of the hierarchy as one nested dict.

        The uniform export point for telemetry, reporting, and tests —
        callers should prefer this over reaching into per-component
        ``stats`` attributes.
        """
        return {
            "memory": self.stats.snapshot(),
            "caches": [cache.snapshot() for cache in self.caches],
            "tlb": self.tlb.snapshot(),
            "dram": self.dram.snapshot(),
        }

    @property
    def l1(self) -> Cache:
        """The first-level cache."""
        return self.caches[0]
