"""Unit tests for memory, caches, TLB, DRAM, and the HW prefetcher."""

import gc
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.machine import (Cache, DRAMChannel, Memory, MemoryFault,
                           StridePrefetcher, TLB)


class TestMemory:
    def test_allocation_line_aligned(self):
        mem = Memory()
        a = mem.allocate(8, 10, "a")
        b = mem.allocate(8, 10, "b")
        assert a.base % 64 == 0 and b.base % 64 == 0
        assert b.base >= a.end  # no overlap

    def test_guard_gap_between_allocations(self):
        mem = Memory()
        a = mem.allocate(1, 64, "a")
        b = mem.allocate(1, 1, "b")
        assert b.base - a.end >= 0
        assert (b.base // 64) > ((a.end - 1) // 64)  # distinct lines

    def test_load_store_roundtrip(self):
        mem = Memory()
        a = mem.allocate(8, 4, "a")
        mem.store(a.base + 16, 42)
        assert mem.load(a.base + 16) == 42
        assert a.data[2] == 42

    def test_unmapped_access_faults(self):
        mem = Memory()
        mem.allocate(8, 4, "a")
        with pytest.raises(MemoryFault):
            mem.load(0x10)
        with pytest.raises(MemoryFault):
            mem.load(mem.allocations[0].end + 4096)

    def test_out_of_bounds_past_end_faults(self):
        mem = Memory()
        a = mem.allocate(8, 4, "a")
        with pytest.raises(MemoryFault):
            mem.load(a.base + 4 * 8)  # one past the end

    def test_misaligned_access_faults(self):
        mem = Memory()
        a = mem.allocate(8, 4, "a")
        with pytest.raises(MemoryFault):
            mem.load(a.base + 3)

    def test_fill_and_as_numpy(self):
        mem = Memory()
        a = mem.allocate(8, 4, "a")
        a.fill(np.array([1, 2, 3, 4]))
        assert list(a.as_numpy()) == [1, 2, 3, 4]
        with pytest.raises(ValueError):
            a.fill([1, 2])

    def test_float_allocation(self):
        mem = Memory()
        a = mem.allocate(8, 2, "a", is_float=True)
        mem.store(a.base, 2.5)
        assert mem.load(a.base) == 2.5

    @pytest.mark.parametrize("size", (0, 3, 12))
    def test_element_size_must_be_a_power_of_two(self, size):
        """Compiled traces index an allocation with a mask and a shift,
        which read the wrong element for any other size."""
        with pytest.raises(ValueError, match=f"element size {size} "):
            Memory().allocate(size, 4, "a")

    @pytest.mark.parametrize("size", (1, 2, 4, 8))
    def test_power_of_two_element_sizes_allocate(self, size):
        mem = Memory()
        a = mem.allocate(size, 4, "a")
        mem.store(a.base + 3 * size, 7)
        assert a.data.tolist() == [0, 0, 0, 7]

    def test_fill_rejects_floats_into_an_integer_allocation(self):
        """Stored as they were, a kernel would read floats where it
        expects integers; a plain numpy copy would truncate them."""
        a = Memory().allocate(8, 3, "keys")
        with pytest.raises(ValueError, match="keys: non-integer"):
            a.fill(np.array([1.5, 2.5, 3.5]))
        with pytest.raises(ValueError, match="keys: non-integer"):
            a.fill([1, 2.0, 3])
        assert a.data.tolist() == [0, 0, 0]

    def test_fill_rejects_integers_outside_int64(self):
        a = Memory().allocate(8, 2, "keys")
        for values in ([1 << 70, 2], [-1, 1 << 63],
                       np.array([1 << 63, 0], dtype=np.uint64)):
            with pytest.raises(ValueError, match="keys: .*outside int64"):
                a.fill(values)
        assert a.data.tolist() == [0, 0]

    def test_fill_accepts_integers_into_a_float_allocation(self):
        a = Memory().allocate(8, 3, "x", is_float=True)
        a.fill(np.array([1, 2, 3]))
        assert a.data.tolist() == [1.0, 2.0, 3.0]
        assert all(type(v) is float for v in a.data)

    @pytest.mark.parametrize("is_float", (False, True))
    def test_collector_sees_no_element(self, is_float):
        """A run's data holds no Python object per element, so young
        collections never walk it."""
        a = Memory().allocate(8, 1000, "a", is_float=is_float)
        a.fill(np.arange(1000))
        assert gc.get_referents(a.data) == [type(a.data)]

    def test_as_numpy_is_a_snapshot(self):
        mem = Memory()
        a = mem.allocate(8, 3, "a")
        a.fill([1, 2, 3])
        before = a.as_numpy()
        before[0] = 99
        assert mem.load(a.base) == 1
        mem.store(a.base + 8, 42)
        assert before.tolist() == [99, 2, 3]
        assert a.as_numpy().tolist() == [1, 42, 3]

    @pytest.mark.parametrize("is_float,values", (
        (False, [-(1 << 63), (1 << 63) - 1, 0, -1]),
        (True, [-0.0, math.inf, -math.inf, math.nan])))
    def test_extreme_values_round_trip(self, is_float, values):
        mem = Memory()
        a = mem.allocate(8, len(values), "a", is_float=is_float)
        a.fill(values)
        loaded = [mem.load(a.base + 8 * i) for i in range(len(values))]
        for got in (loaded, a.as_numpy().tolist()):
            assert [type(v) for v in got] == [type(v) for v in values]
            # repr tells -0.0 from 0.0 and matches nan with nan.
            assert [repr(v) for v in got] == [repr(v) for v in values]

    @pytest.mark.parametrize("size", (1, 2, 4, 8))
    def test_fresh_allocation_loads_zero(self, size):
        mem = Memory()
        ints = mem.allocate(size, 4, "i")
        floats = mem.allocate(size, 4, "f", is_float=True)
        for a, zero in ((ints, 0), (floats, 0.0)):
            for i in range(4):
                got = mem.load(a.base + size * i)
                assert got == zero and type(got) is type(zero)


class TestCache:
    def make(self, size=1024, ways=2, latency=4):
        return Cache("L1", size, ways, 64, latency)

    def test_miss_then_hit(self):
        c = self.make()
        assert c.lookup(7) is None
        c.insert(7, fill_time=100.0)
        assert c.lookup(7) == 100.0

    def test_lru_eviction(self):
        c = self.make(size=128, ways=2)  # 2 lines, 1 set
        c.insert(0, 0.0)
        c.insert(1, 0.0)
        c.lookup(0)          # touch 0: now 1 is LRU
        c.insert(2, 0.0)     # evicts 1
        assert c.lookup(1) is None
        assert c.lookup(0) is not None
        assert c.stats.evictions == 1

    def test_set_indexing_no_cross_set_eviction(self):
        c = self.make(size=256, ways=1)  # 4 lines, 4 sets
        c.insert(0, 0.0)
        c.insert(1, 0.0)  # different set
        assert c.lookup(0) is not None

    def test_dirty_eviction_reported(self):
        c = self.make(size=128, ways=1)  # 2 sets
        c.insert(0, 0.0)
        c.mark_dirty(0)
        assert c.insert(2, 0.0) is True  # same set, evicts dirty 0
        assert c.stats.dirty_evictions == 1

    def test_clean_eviction_not_reported(self):
        c = self.make(size=128, ways=1)
        c.insert(0, 0.0)
        assert c.insert(2, 0.0) is False

    def test_reinsert_preserves_dirty(self):
        c = self.make(size=128, ways=1)
        c.insert(0, 0.0)
        c.mark_dirty(0)
        c.insert(0, 5.0)  # refill same line
        assert c.insert(2, 0.0) is True  # dirtiness survived

    def test_invalidate_all(self):
        c = self.make()
        c.insert(3, 0.0)
        c.invalidate_all()
        assert c.lookup(3) is None

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            Cache("bad", 100, 3, 64, 1)

    @given(st.lists(st.integers(0, 63), min_size=1, max_size=200))
    def test_capacity_invariant(self, lines):
        c = self.make(size=512, ways=2)  # 8 lines
        for line in lines:
            c.insert(line, 0.0)
        resident = sum(1 for line in range(64) if c.contains(line))
        assert resident <= 8


class TestTLB:
    def test_hit_is_free(self):
        tlb = TLB(entries=4, walk_latency=50)
        t1 = tlb.translate(0x1000, 0.0)
        assert t1 == 50.0  # first touch walks
        assert tlb.translate(0x1008, 100.0) == 100.0  # same page

    def test_page_size_respected(self):
        tlb = TLB(entries=4, page_bits=21, walk_latency=50)
        tlb.translate(0, 0.0)
        assert tlb.translate((1 << 21) - 8, 10.0) == 10.0  # same 2MiB page
        assert tlb.translate(1 << 21, 10.0) > 10.0  # next page walks

    def test_l1_eviction_falls_to_l2(self):
        tlb = TLB(entries=2, walk_latency=50, l2_entries=64,
                  l2_latency=9)
        for page in range(4):
            tlb.translate(page << 12, 0.0)
        # Page 0 left the small L1 TLB but sits in the L2 TLB.
        t = tlb.translate(0, 1000.0)
        assert t == 1009.0
        assert tlb.stats.l2_hits == 1

    def test_walker_serialisation(self):
        tlb = TLB(entries=64, walk_latency=100, max_walks=1)
        t1 = tlb.translate(0 << 12, 0.0)
        t2 = tlb.translate(1 << 12, 0.0)
        assert t1 == 100.0
        assert t2 == 200.0  # waited for the single walker

    def test_two_walkers_overlap(self):
        tlb = TLB(entries=64, walk_latency=100, max_walks=2)
        assert tlb.translate(0 << 12, 0.0) == 100.0
        assert tlb.translate(1 << 12, 0.0) == 100.0
        assert tlb.translate(2 << 12, 0.0) == 200.0

    def test_flush(self):
        tlb = TLB(entries=4, walk_latency=10)
        tlb.translate(0, 0.0)
        tlb.flush()
        assert tlb.translate(0, 0.0) == 10.0

    def test_huge_pages_reduce_misses(self):
        import random
        rng = random.Random(0)
        addrs = [rng.randrange(0, 1 << 24) & ~7 for _ in range(500)]
        small = TLB(entries=16, page_bits=12, walk_latency=30)
        huge = TLB(entries=16, page_bits=21, walk_latency=30)
        for a in addrs:
            small.translate(a, 0.0)
            huge.translate(a, 0.0)
        assert huge.stats.misses < small.stats.misses


class TestDRAM:
    def test_latency(self):
        d = DRAMChannel(latency=200, cycles_per_line=8)
        assert d.access(0.0) == 200.0

    def test_bandwidth_queueing(self):
        d = DRAMChannel(latency=200, cycles_per_line=8)
        d.access(0.0)
        assert d.access(0.0) == 208.0  # queued behind the first
        assert d.stats.queue_cycles == 8.0

    def test_idle_channel_no_queue(self):
        d = DRAMChannel(latency=200, cycles_per_line=8)
        d.access(0.0)
        assert d.access(1000.0) == 1200.0

    def test_contention_penalty(self):
        d = DRAMChannel(latency=200, cycles_per_line=8,
                        contention_penalty=30)
        d.set_sharers(4)
        assert d.access(0.0) == 200.0 + 3 * 30

    def test_writeback_occupies_channel(self):
        d = DRAMChannel(latency=200, cycles_per_line=8)
        d.writeback(0.0)
        assert d.access(0.0) == 208.0
        assert d.stats.writebacks == 1


class TestStridePrefetcher:
    def test_trains_after_threshold(self):
        p = StridePrefetcher(distance=4, degree=2, train_threshold=2)
        assert p.observe(1, 100) == []
        assert p.observe(1, 101) == []   # stride 1, confidence 1
        fills = p.observe(1, 102)        # confidence 2 -> fire
        assert fills == [106, 107]

    def test_stride_change_resets_confidence(self):
        p = StridePrefetcher(train_threshold=2)
        p.observe(1, 100)
        p.observe(1, 101)
        p.observe(1, 102)
        assert p.observe(1, 110) == []   # new stride: confidence resets
        # The second consistent stride-8 access reaches the threshold.
        assert p.observe(1, 118) != []

    def test_distinct_pcs_tracked_separately(self):
        p = StridePrefetcher(train_threshold=2)
        p.observe(1, 100)
        p.observe(2, 500)
        p.observe(1, 101)
        p.observe(2, 501)
        assert p.observe(1, 102) != []
        assert p.observe(2, 502) != []

    def test_same_line_accesses_ignored(self):
        p = StridePrefetcher(train_threshold=2)
        p.observe(1, 100)
        assert p.observe(1, 100) == []
        assert p.observe(1, 100) == []

    def test_table_capacity_lru(self):
        p = StridePrefetcher(table_size=2, train_threshold=2)
        p.observe(1, 100)
        p.observe(2, 200)
        p.observe(3, 300)  # evicts pc 1
        p.observe(1, 101)  # retrains from scratch
        assert p.observe(1, 102) == []  # only confidence 1 again

    def test_negative_stride(self):
        p = StridePrefetcher(distance=2, degree=1, train_threshold=2)
        p.observe(1, 100)
        p.observe(1, 99)
        fills = p.observe(1, 98)
        assert fills == [96]
