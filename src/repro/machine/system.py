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
from heapq import heappop, heappush
from typing import TYPE_CHECKING

from .cache import Cache
from .configs import MachineConfig
from .dram import DRAMChannel
from .hwprefetch import StridePrefetcher
from .tlb import TLB

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry.collector import TelemetryCollector

#: Hot-line memo entries are dropped wholesale past this size so the
#: memo cannot outgrow the simulated working set it shadows.
_HOT_LIMIT = 1 << 20


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
    :param fastpath: enable the hot-line memo.
    :param telemetry: a :class:`~repro.telemetry.TelemetryCollector` to
        observe this hierarchy.  Attaching one disables the hot-line
        memo so every access takes the instrumented reference walk —
        cycle counts are unchanged (the walks are bit-identical; the
        hooks are pure observation), only wall-clock speed drops.

    The **hot-line memo** is the demand-path fast path: ``_hot`` maps a
    line address to the ``[fill_time, dirty]`` entry list the L1 held
    for it when it was last resolved.  A later access to the same line
    takes the fast path only when (a) the L1 set still holds *that very
    list object* — :meth:`Cache.insert` always installs a fresh list, so
    identity proves the line was neither evicted nor refilled since —
    (b) the fill has completed, and (c) the page is still in the L1 TLB.
    The fast path then replays exactly the side effects the full walk
    would have had (LRU touches, hit counters, dirty marking, prefetcher
    training), keeping cycle counts bit-identical to the slow path.
    """

    def __init__(self, config: MachineConfig,
                 dram: DRAMChannel | None = None,
                 fastpath: bool = True,
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
        self.fastpath = fastpath and telemetry is None
        self._hot: dict[int, list] = {}
        self._l1 = self.caches[0]
        self._page_bits = self.tlb.page_bits
        self._tlb_pages = self.tlb._pages  # cleared in place by flush()

    # -- public access points ---------------------------------------------

    def load(self, pc: int, addr: int, time: float) -> float:
        """Demand load; returns data-ready time."""
        if self.fastpath:
            line = addr // self.line_size
            entry = self._hot.get(line)
            if entry is not None and entry[0] <= time:
                l1 = self._l1
                lines = l1._sets[line % l1.num_sets]
                if lines.get(line) is entry and \
                        (addr >> self._page_bits) in self._tlb_pages:
                    return self._fast_hit(pc, addr, line, time, lines,
                                          entry, False)
            return self._demand_fast(pc, addr, time, False)
        return self._demand(pc, addr, time, is_write=False)

    def store(self, pc: int, addr: int, time: float) -> float:
        """Store (write-allocate); returns line-owned time.  Cores treat
        stores as fire-and-forget through a store buffer; dirty lines
        cost a DRAM writeback when they eventually leave the hierarchy."""
        if self.fastpath:
            line = addr // self.line_size
            entry = self._hot.get(line)
            if entry is not None and entry[0] <= time:
                l1 = self._l1
                lines = l1._sets[line % l1.num_sets]
                if lines.get(line) is entry and \
                        (addr >> self._page_bits) in self._tlb_pages:
                    return self._fast_hit(pc, addr, line, time, lines,
                                          entry, True)
            return self._demand_fast(pc, addr, time, True)
        return self._demand(pc, addr, time, is_write=True)

    def _fast_hit(self, pc: int, addr: int, line: int, time: float,
                  lines: dict, entry: list, is_write: bool) -> float:
        """Replay a guaranteed L1-line + L1-TLB hit without the walk."""
        self.stats.demand_accesses += 1
        tlb = self.tlb
        pages = self._tlb_pages
        page = addr >> self._page_bits
        del pages[page]
        pages[page] = None
        tlb.stats.hits += 1
        del lines[line]
        lines[line] = entry
        l1 = self._l1
        l1.stats.hits += 1
        if is_write:
            entry[1] = True
            for c in self.caches[1:]:
                ce = c._sets[line % c.num_sets].get(line)
                if ce is not None:
                    ce[1] = True
        self._train_hw_prefetcher(pc, line, time)
        return time + l1.latency

    def prefetch(self, pc: int, addr: int, time: float) -> float:
        """Software prefetch; returns the *issue-accept* time (the core
        never waits for the data).  Fills L1 (prefetcht0 semantics).

        Prefetch-triggered TLB walks happen off the critical path (they
        occupy a walker but do not delay the core); the only backpressure
        is a full MSHR file, which stalls issue until a fill retires —
        this is what throttles software-prefetch memory parallelism.
        """
        line = addr // self.line_size
        if self.fastpath:
            # Fast path: the line is provably still in the L1 and the
            # page in the L1 TLB, so the slow path would hit at level 0
            # and return ``time`` untouched (no fill-time check needed:
            # a prefetch hit never waits).  Replay the touches/counters.
            entry = self._hot.get(line)
            if entry is not None:
                l1 = self._l1
                lines = l1._sets[line % l1.num_sets]
                page = addr >> self._page_bits
                if lines.get(line) is entry and page in self._tlb_pages:
                    self.stats.sw_prefetches += 1
                    pages = self._tlb_pages
                    del pages[page]
                    pages[page] = None
                    self.tlb.stats.hits += 1
                    del lines[line]
                    lines[line] = entry
                    return time
            return self._prefetch_miss_fast(pc, addr, line, time)
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
                self._memoize(line)
                if tel is not None:
                    tel.prefetch_redundant(pc, line, time, cache.name)
                return time
        # Miss everywhere: bring the line from DRAM.
        start = self.mshrs.acquire(t)
        done = self.dram.access(start)
        self.mshrs.occupy(done)
        self.stats.sw_prefetch_dram_fills += 1
        self._fill_all(line, done, request_time=start)
        self.caches[0].stats.prefetch_fills += 1
        self._memoize(line)
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

    def _memoize(self, line: int) -> None:
        """Record the L1's current entry list for ``line`` (which every
        demand access and prefetch leaves resident in the L1)."""
        if not self.fastpath:
            return
        hot = self._hot
        if len(hot) > _HOT_LIMIT:
            hot.clear()
        l1 = self._l1
        entry = l1._sets[line % l1.num_sets].get(line)
        if entry is not None:
            hot[line] = entry

    # -- inlined fast-path walks --------------------------------------------
    #
    # ``_demand_fast`` / ``_prefetch_miss_fast`` are hand-inlined copies of
    # ``_demand`` / the ``prefetch`` slow path: they perform *exactly* the
    # same state mutations in the same order (TLB probe, per-level lookup
    # touches and counters, MSHR heap, DRAM channel, per-level fills with
    # eviction/writeback charging, prefetcher training, hot-line memo) but
    # collapse ~a dozen method calls and attribute chases into one frame.
    # Any behavioural change here is a bug; the property tests compare the
    # two engines stat-for-stat.

    def _demand_fast(self, pc: int, addr: int, time: float,
                     is_write: bool) -> float:
        self.stats.demand_accesses += 1
        line = addr // self.line_size
        # TLB.translate, L1 probe inlined.
        page = addr >> self._page_bits
        pages = self._tlb_pages
        if page in pages:
            del pages[page]
            pages[page] = None
            self.tlb.stats.hits += 1
            t = time
        else:
            t = self.tlb._miss(page, time)
        caches = self.caches
        l1_entry = None
        for level, cache in enumerate(caches):
            lines = cache._sets[line % cache.num_sets]
            entry = lines.get(line)
            if entry is not None:
                fill = entry[0]
                del lines[line]
                lines[line] = entry
                cst = cache.stats
                if fill <= t:
                    cst.hits += 1
                    ready = t + cache.latency
                else:
                    cst.prefetch_hits += 1
                    ready = fill + cache.latency
                if level:
                    # Promote into the levels above; the walk just proved
                    # the line absent there, so Cache.insert reduces to
                    # evict-if-full + install (an upper level is never the
                    # LLC, so no writeback charge — same as insert()'s
                    # ignored return on this path).
                    for upper in caches[:level]:
                        cl = upper._sets[line % upper.num_sets]
                        if len(cl) >= upper.ways:
                            oldest = next(iter(cl))
                            de = cl[oldest][1]
                            del cl[oldest]
                            cst = upper.stats
                            cst.evictions += 1
                            if de:
                                cst.dirty_evictions += 1
                        cl[line] = [ready, False]
                else:
                    l1_entry = entry
                if is_write:
                    for c in caches:
                        ce = c._sets[line % c.num_sets].get(line)
                        if ce is not None:
                            ce[1] = True
                break
            cache.stats.misses += 1
        else:
            # Miss everywhere: MSHR acquire + DRAM access + fills, inlined.
            mshrs = self.mshrs
            heap = mshrs._completions
            while heap and heap[0] <= t:
                heappop(heap)
            start = heappop(heap) if len(heap) >= mshrs.entries else t
            d = self.dram
            cpl = d.cycles_per_line
            nf = d._next_free
            s = start if start > nf else nf
            d._next_free = s + cpl
            done = s + d.latency + d.contention_penalty * (d._sharers - 1)
            dst = d.stats
            dst.accesses += 1
            dst.busy_cycles += cpl
            dst.queue_cycles += s - start
            heappush(heap, done)
            self.stats.demand_misses_to_dram += 1
            # _fill_all(line, done, dirty=is_write, request_time=start):
            # the line just missed at every level, so it is absent from
            # each set and insert() reduces to evict-if-full + install.
            llc = caches[-1]
            for cache in caches:
                cl = cache._sets[line % cache.num_sets]
                if len(cl) >= cache.ways:
                    oldest = next(iter(cl))
                    dirty_evicted = cl[oldest][1]
                    del cl[oldest]
                    cst = cache.stats
                    cst.evictions += 1
                    if dirty_evicted:
                        cst.dirty_evictions += 1
                        if cache is llc:
                            nf = d._next_free
                            ws = start if start > nf else nf
                            d._next_free = ws + cpl
                            dst.writebacks += 1
                            dst.busy_cycles += cpl
                new = [done, is_write]
                cl[line] = new
                if l1_entry is None:
                    l1_entry = new
            ready = done
        pf = self.prefetcher
        if line != pf._last_line:
            fills = pf.observe(pc, line)
            if fills:
                self._issue_hw_fills(fills, t)
        hot = self._hot
        if len(hot) > _HOT_LIMIT:
            hot.clear()
        if l1_entry is None:
            l1 = caches[0]
            l1_entry = l1._sets[line % l1.num_sets].get(line)
        hot[line] = l1_entry
        return ready

    def _prefetch_miss_fast(self, pc: int, addr: int, line: int,
                            time: float) -> float:
        self.stats.sw_prefetches += 1
        page = addr >> self._page_bits
        pages = self._tlb_pages
        if page in pages:
            del pages[page]
            pages[page] = None
            self.tlb.stats.hits += 1
            t = time
        else:
            t = self.tlb._miss(page, time)
        caches = self.caches
        hot = self._hot
        for level, cache in enumerate(caches):
            lines = cache._sets[line % cache.num_sets]
            entry = lines.get(line)
            if entry is not None:
                fill = entry[0]
                del lines[line]
                lines[line] = entry
                if level:
                    ready = (t if fill <= t else fill) + cache.latency
                    # Inlined Cache.insert: the walk proved the line
                    # absent above ``level`` (evict-if-full + install).
                    l1 = caches[0]
                    for upper in caches[:level]:
                        cl = upper._sets[line % upper.num_sets]
                        if len(cl) >= upper.ways:
                            oldest = next(iter(cl))
                            de = cl[oldest][1]
                            del cl[oldest]
                            cst = upper.stats
                            cst.evictions += 1
                            if de:
                                cst.dirty_evictions += 1
                        new = [ready, False]
                        cl[line] = new
                        upper.stats.prefetch_fills += 1
                        if upper is l1:
                            entry = new
                if len(hot) > _HOT_LIMIT:
                    hot.clear()
                hot[line] = entry
                return time
        # Miss everywhere (no per-level miss counters on prefetch walks).
        mshrs = self.mshrs
        heap = mshrs._completions
        while heap and heap[0] <= t:
            heappop(heap)
        start = heappop(heap) if len(heap) >= mshrs.entries else t
        d = self.dram
        cpl = d.cycles_per_line
        nf = d._next_free
        s = start if start > nf else nf
        d._next_free = s + cpl
        done = s + d.latency + d.contention_penalty * (d._sharers - 1)
        dst = d.stats
        dst.accesses += 1
        dst.busy_cycles += cpl
        dst.queue_cycles += s - start
        heappush(heap, done)
        self.stats.sw_prefetch_dram_fills += 1
        llc = caches[-1]
        l1_entry = None
        for cache in caches:
            cl = cache._sets[line % cache.num_sets]
            if len(cl) >= cache.ways:
                oldest = next(iter(cl))
                dirty_evicted = cl[oldest][1]
                del cl[oldest]
                cst = cache.stats
                cst.evictions += 1
                if dirty_evicted:
                    cst.dirty_evictions += 1
                    if cache is llc:
                        nf = d._next_free
                        ws = start if start > nf else nf
                        d._next_free = ws + cpl
                        dst.writebacks += 1
                        dst.busy_cycles += cpl
            new = [done, False]
            cl[line] = new
            if l1_entry is None:
                l1_entry = new
        caches[0].stats.prefetch_fills += 1
        if len(hot) > _HOT_LIMIT:
            hot.clear()
        hot[line] = l1_entry
        return max(time, start - (t - time))

    # -- internals ----------------------------------------------------------

    def _demand(self, pc: int, addr: int, time: float,
                is_write: bool = False) -> float:
        self.stats.demand_accesses += 1
        line = addr // self.line_size
        t = self.tlb.translate(addr, time)
        if self.telemetry is not None:
            self.telemetry.account_translation(t - time)
        ready = self._hierarchy_access(line, t, is_write)
        self._train_hw_prefetcher(pc, line, t)
        self._memoize(line)
        return ready

    def _hierarchy_access(self, line: int, t: float,
                          is_write: bool = False) -> float:
        tel = self.telemetry
        llc = self.caches[-1]
        for level, cache in enumerate(self.caches):
            fill = cache.lookup(line)
            if fill is not None:
                if fill <= t:
                    cache.stats.hits += 1
                else:
                    # In-flight fill (e.g. a software prefetch that was
                    # issued too late): wait out the remainder.
                    cache.stats.prefetch_hits += 1
                ready = max(t, fill) + cache.latency
                if tel is not None:
                    tel.demand_hit(line, cache.name, t, fill, ready)
                for upper in self.caches[:level]:
                    if upper.insert(line, ready) and upper is llc:
                        self.dram.writeback(t)
                if is_write:
                    for c in self.caches:
                        c.mark_dirty(line)
                return ready
            cache.stats.misses += 1
        start = self.mshrs.acquire(t)
        done = self.dram.access(start)
        self.mshrs.occupy(done)
        self.stats.demand_misses_to_dram += 1
        if tel is not None:
            tel.demand_miss(line, t, done)
        self._fill_all(line, done, dirty=is_write, request_time=start)
        return done

    def _fill_all(self, line: int, fill_time: float,
                  dirty: bool = False,
                  request_time: float | None = None) -> None:
        """Install a line at every level, charging LLC dirty evictions.

        Writebacks are charged at the *request* time: scheduling them at
        the future fill time would block later fills for a whole memory
        latency rather than one line's worth of bandwidth.
        """
        llc = self.caches[-1]
        wb_time = fill_time if request_time is None else request_time
        for cache in self.caches:
            if cache.insert(line, fill_time, dirty) and cache is llc:
                self.dram.writeback(wb_time)

    def _train_hw_prefetcher(self, pc: int, line: int, t: float) -> None:
        fills = self.prefetcher.observe(pc, line)
        if fills:
            self._issue_hw_fills(fills, t)

    def _issue_hw_fills(self, fills: list[int], t: float) -> None:
        # Hardware prefetches fill into the L2 (not L1) and consume DRAM
        # bandwidth, but bypass the core's MSHRs (dedicated queue).
        caches = self.caches
        llc = caches[-1]
        dram = self.dram
        targets = caches[1:] or caches
        for fill_line in fills:
            for c in caches:
                if fill_line in c._sets[fill_line % c.num_sets]:
                    break
            else:
                done = dram.access(t)
                # Inlined Cache.insert: the residence scan above proved
                # the line absent everywhere (evict-if-full + install).
                for cache in targets:
                    cl = cache._sets[fill_line % cache.num_sets]
                    if len(cl) >= cache.ways:
                        oldest = next(iter(cl))
                        de = cl[oldest][1]
                        del cl[oldest]
                        cst = cache.stats
                        cst.evictions += 1
                        if de:
                            cst.dirty_evictions += 1
                            if cache is llc:
                                dram.writeback(t)
                    cl[fill_line] = [done, False]
                self.stats.hw_prefetch_fills += 1

    # -- bookkeeping ---------------------------------------------------------

    def flush(self) -> None:
        """Reset all cached state (between benchmark variants)."""
        for cache in self.caches:
            cache.invalidate_all()
        self.tlb.flush()
        self.prefetcher.reset()
        self._hot.clear()

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
