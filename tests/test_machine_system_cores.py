"""Tests for the composed memory system, core models, and interpreter."""

import pytest

from repro.ir import (FLOAT64, INT32, INT64, IRBuilder, Module, VOID,
                      pointer, verify_module)
from repro.machine import (A53, A57, HASWELL, XEON_PHI, DRAMChannel,
                           Interpreter, InOrderCore, Memory, MemoryFault,
                           MemorySystem, OutOfOrderCore, make_core,
                           run_multicore, system_by_name)
from tests.conftest import SIMPLE, SIMPLE_OOO, build_indirect_kernel


class TestMemorySystem:
    def test_cold_miss_goes_to_dram(self):
        ms = MemorySystem(SIMPLE)
        t = ms.load(pc=1, addr=0x10000, time=0.0)
        assert t >= SIMPLE.dram_latency
        assert ms.stats.demand_misses_to_dram == 1

    def test_second_access_hits_l1(self):
        ms = MemorySystem(SIMPLE)
        t1 = ms.load(1, 0x10000, 0.0)
        t2 = ms.load(1, 0x10000, t1)
        assert t2 - t1 == ms.l1.latency
        assert ms.l1.stats.hits == 1

    def test_software_prefetch_fills_before_demand(self):
        ms = MemorySystem(SIMPLE)
        accept = ms.prefetch(1, 0x10000, 0.0)
        assert accept == 0.0  # core does not wait
        # Demand access long after the fill completed: an L1 hit.
        t = ms.load(1, 0x10000, 1000.0)
        assert t == 1000.0 + ms.l1.latency

    def test_late_prefetch_partial_hiding(self):
        ms = MemorySystem(SIMPLE)
        ms.prefetch(1, 0x10000, 0.0)
        # Demand arrives halfway through the fill: waits the remainder,
        # which is less than a full miss.
        t = ms.load(1, 0x10000, 60.0)
        full_fill = SIMPLE.dram_latency + SIMPLE.tlb_walk_latency
        assert t < 60.0 + full_fill
        assert t >= full_fill
        assert ms.l1.stats.prefetch_hits == 1

    def test_mshr_backpressure_on_prefetch(self):
        ms = MemorySystem(SIMPLE)  # 4 MSHRs
        accepts = [ms.prefetch(1, 0x10000 + i * 4096, 0.0)
                   for i in range(6)]
        assert accepts[0] == 0.0
        assert accepts[-1] > 0.0  # had to wait for a free MSHR

    def test_prefetch_fills_tlb(self):
        ms = MemorySystem(SIMPLE)
        ms.prefetch(1, 0x10000, 0.0)
        walks_after_prefetch = ms.tlb.stats.misses
        ms.load(1, 0x10008, 500.0)
        assert ms.tlb.stats.misses == walks_after_prefetch  # no new walk

    def test_hw_prefetcher_covers_stream(self):
        ms = MemorySystem(SIMPLE)
        t = 0.0
        for i in range(32):
            t = ms.load(7, 0x10000 + i * 64, t)
        assert ms.stats.hw_prefetch_fills > 0

    def test_flush_resets_hierarchy(self):
        ms = MemorySystem(SIMPLE)
        ms.load(1, 0x10000, 0.0)
        ms.flush()
        assert ms.l1.lookup(0x10000 // 64) is None


class TestCores:
    def test_factory_picks_model(self):
        assert isinstance(make_core(SIMPLE, MemorySystem(SIMPLE)),
                          InOrderCore)
        assert isinstance(make_core(SIMPLE_OOO, MemorySystem(SIMPLE_OOO)),
                          OutOfOrderCore)
        with pytest.raises(ValueError):
            InOrderCore(SIMPLE_OOO, MemorySystem(SIMPLE_OOO))
        with pytest.raises(ValueError):
            OutOfOrderCore(SIMPLE, MemorySystem(SIMPLE))

    def test_inorder_blocks_on_miss(self):
        core = InOrderCore(SIMPLE, MemorySystem(SIMPLE))
        core.load(1, 0x10000, 0.0)
        # The pipeline stalled until the miss resolved.
        assert core.time >= SIMPLE.dram_latency

    def test_inorder_does_not_block_on_hit(self):
        ms = MemorySystem(SIMPLE)
        core = InOrderCore(SIMPLE, ms)
        core.load(1, 0x10000, 0.0)
        t_after_miss = core.time
        core.load(2, 0x10000, 0.0)  # L1 hit
        assert core.time - t_after_miss < 2.5

    def test_inorder_prefetch_does_not_block(self):
        core = InOrderCore(SIMPLE, MemorySystem(SIMPLE))
        core.prefetch(1, 0x10000, 0.0)
        assert core.time < 5.0

    def test_ooo_overlaps_independent_misses(self):
        ms = MemorySystem(SIMPLE_OOO)
        core = OutOfOrderCore(SIMPLE_OOO, ms)
        done = [core.load(i, 0x10000 + i * 4096, 0.0) for i in range(3)]
        # Three independent misses complete within ~one latency of each
        # other rather than serially.
        assert max(done) - min(done) < SIMPLE_OOO.dram_latency

    def test_inorder_serialises_independent_misses(self):
        ms = MemorySystem(SIMPLE)
        core = InOrderCore(SIMPLE, ms)
        done = [core.load(i, 0x10000 + i * 4096, 0.0) for i in range(3)]
        assert done[2] - done[0] > 1.5 * SIMPLE.dram_latency

    def test_ooo_window_limits_lookahead(self):
        # With a 16-entry window, the 20th op cannot fetch before the
        # first miss (at the window's head) retires.
        ms = MemorySystem(SIMPLE_OOO)
        core = OutOfOrderCore(SIMPLE_OOO, ms)
        core.load(1, 0x10000, 0.0)  # long miss occupies the window head
        for _ in range(SIMPLE_OOO.rob_size - 1):
            core.op(0.0)
        ready = core.op(0.0)  # window-blocked op
        assert ready > SIMPLE_OOO.dram_latency

    def test_dependent_op_waits(self):
        ms = MemorySystem(SIMPLE_OOO)
        core = OutOfOrderCore(SIMPLE_OOO, ms)
        data = core.load(1, 0x10000, 0.0)
        ready = core.op(data)
        assert ready > data

    def test_instruction_counting(self):
        core = InOrderCore(SIMPLE, MemorySystem(SIMPLE))
        core.op(0.0)
        core.branch(0.0)
        core.store(1, 0x10000, 0.0)
        assert core.instructions == 3


class TestInterpreterSemantics:
    def _exec(self, text, func, args, mem_setup=None):
        from repro.ir import parse_module
        module = parse_module(text)
        mem = Memory()
        handles = mem_setup(mem) if mem_setup else []
        interp = Interpreter(module, mem)
        result = interp.run(func, args(handles) if callable(args) else args)
        return result, handles

    def test_arithmetic_wrapping(self):
        text = """
        func @f(%x: i64) -> i64 {
        entry:
          %y = mul i64 %x, %x
          ret i64 %y
        }
        """
        result, _ = self._exec(text, "f", [2**32])
        assert result.value == 0  # 2^64 wraps to 0

    def test_division_semantics(self):
        text = """
        func @f(%a: i64, %b: i64) -> i64 {
        entry:
          %q = sdiv i64 %a, %b
          ret i64 %q
        }
        """
        result, _ = self._exec(text, "f", [-7, 2])
        assert result.value == -3  # trunc toward zero

    def test_lshr_on_negative(self):
        text = """
        func @f(%a: i64) -> i64 {
        entry:
          %s = lshr i64 %a, 60
          ret i64 %s
        }
        """
        result, _ = self._exec(text, "f", [-1])
        assert result.value == 15

    def test_select_and_cmp(self):
        text = """
        func @max(%a: i64, %b: i64) -> i64 {
        entry:
          %c = cmp sgt i64 %a, %b
          %m = select i64 %c, %a, %b
          ret i64 %m
        }
        """
        assert self._exec(text, "max", [3, 9])[0].value == 9
        assert self._exec(text, "max", [9, 3])[0].value == 9

    def test_loop_and_phi(self):
        text = """
        func @sum(%n: i64) -> i64 {
        entry:
          jmp loop
        loop:
          %i = phi i64 [0, entry], [%i.next, loop]
          %acc = phi i64 [0, entry], [%acc.next, loop]
          %acc.next = add i64 %acc, %i
          %i.next = add i64 %i, 1
          %c = cmp slt i64 %i.next, %n
          br %c, loop, exit
        exit:
          ret i64 %acc.next
        }
        """
        assert self._exec(text, "sum", [10])[0].value == 45

    def test_phi_swap_parallel_copy(self):
        # Classic phi cycle: a,b = b,a each iteration.
        text = """
        func @swap(%n: i64) -> i64 {
        entry:
          jmp loop
        loop:
          %i = phi i64 [0, entry], [%i.next, loop]
          %a = phi i64 [1, entry], [%b, loop]
          %b = phi i64 [2, entry], [%a, loop]
          %i.next = add i64 %i, 1
          %c = cmp slt i64 %i.next, %n
          br %c, loop, exit
        exit:
          ret i64 %a
        }
        """
        # After 3 iterations (odd swaps... n=3: 2 back-edges taken):
        assert self._exec(text, "swap", [3])[0].value == 1

    def test_call_and_return(self):
        text = """
        func @double(%x: i64) -> i64 {
        entry:
          %y = mul i64 %x, 2
          ret i64 %y
        }

        func @main(%x: i64) -> i64 {
        entry:
          %a = call @double(i64 %x)
          %b = call @double(i64 %a)
          ret i64 %b
        }
        """
        assert self._exec(text, "main", [5])[0].value == 20

    def test_alloc_in_ir(self):
        text = """
        func @f() -> i64 {
        entry:
          %buf = alloc i64, 4
          %p = gep i64* %buf, 2
          store i64 77, %p
          %v = load i64* %p
          ret i64 %v
        }
        """
        assert self._exec(text, "f", [])[0].value == 77

    def test_fault_on_wild_load(self):
        text = """
        func @f() -> i64 {
        entry:
          %buf = alloc i64, 4
          %p = gep i64* %buf, 100
          %v = load i64* %p
          ret i64 %v
        }
        """
        with pytest.raises(MemoryFault):
            self._exec(text, "f", [])

    def test_prefetch_never_faults(self):
        text = """
        func @f() -> i64 {
        entry:
          %buf = alloc i64, 4
          %p = gep i64* %buf, 123456
          prefetch i64* %p
          ret i64 0
        }
        """
        result, _ = self._exec(text, "f", [])
        assert result.value == 0
        assert result.stats.prefetches == 1

    def test_float_kernel(self):
        text = """
        func @axpy(%x: f64, %y: f64) -> f64 {
        entry:
          %p = fmul f64 %x, 2.0
          %s = fadd f64 %p, %y
          ret f64 %s
        }
        """
        assert self._exec(text, "axpy", [1.5, 1.0])[0].value == 4.0

    def test_argument_count_checked(self):
        text = "func @f(%x: i64) -> i64 {\nentry:\n  ret i64 %x\n}"
        from repro.ir import parse_module
        interp = Interpreter(parse_module(text))
        with pytest.raises(TypeError):
            interp.run("f", [])

    def test_stats_counters(self, indirect_module):
        mem = Memory()
        keys = mem.allocate(8, 10, "keys")
        keys.fill([0] * 10)
        buckets = mem.allocate(8, 16, "buckets")
        interp = Interpreter(indirect_module, mem)
        result = interp.run("kernel", [keys.base, buckets.base, 10])
        assert result.stats.loads == 20
        assert result.stats.stores == 10
        assert result.stats.branches == 11
        assert buckets.data[0] == 10


class TestTimedExecution:
    def test_cycles_positive_and_repeatable(self, indirect_module):
        def run():
            mem = Memory()
            keys = mem.allocate(8, 100, "keys")
            keys.fill(list(range(100)))
            buckets = mem.allocate(8, 128, "buckets")
            interp = Interpreter(indirect_module, mem, machine=HASWELL)
            return interp.run("kernel",
                              [keys.base, buckets.base, 100]).cycles
        c1, c2 = run(), run()
        assert c1 > 0
        assert c1 == c2  # deterministic

    def test_inorder_slower_than_ooo_on_misses(self):
        import numpy as np
        rng = np.random.default_rng(0)

        def run(machine):
            module = build_indirect_kernel(num_buckets=1 << 18)
            mem = Memory()
            keys = mem.allocate(8, 2000, "keys")
            keys.fill(rng.integers(0, 1 << 18, 2000))
            buckets = mem.allocate(8, 1 << 18, "buckets")
            interp = Interpreter(module, mem, machine=machine)
            return interp.run("kernel",
                              [keys.base, buckets.base, 2000]).cycles
        assert run(A53) > run(HASWELL)

    def test_system_lookup(self):
        assert system_by_name("haswell") is HASWELL
        assert system_by_name("A53") is A53
        with pytest.raises(KeyError):
            system_by_name("m1")

    def test_huge_page_config(self):
        hp = A53.with_huge_pages()
        assert hp.page_bits == 21
        assert A53.page_bits == 12  # original untouched
        assert hp.with_small_pages().page_bits == 12


class TestMulticore:
    def test_shared_dram_slows_cores(self):
        import numpy as np
        rng = np.random.default_rng(0)

        def setup(n_cores):
            dram = DRAMChannel(HASWELL.dram_latency,
                               HASWELL.dram_cycles_per_line,
                               HASWELL.dram_contention_penalty)
            dram.set_sharers(n_cores)
            interpreters, args = [], []
            for _ in range(n_cores):
                module = build_indirect_kernel(num_buckets=1 << 16)
                mem = Memory()
                keys = mem.allocate(8, 1500, "keys")
                keys.fill(rng.integers(0, 1 << 16, 1500))
                buckets = mem.allocate(8, 1 << 16, "buckets")
                interpreters.append(Interpreter(module, mem, machine=HASWELL,
                                                dram=dram))
                args.append([keys.base, buckets.base, 1500])
            return interpreters, args

        i1, a1 = setup(1)
        single = run_multicore(i1, "kernel", a1)
        i4, a4 = setup(4)
        quad = run_multicore(i4, "kernel", a4)
        assert len(quad) == 4
        # Four cores sharing a channel take longer per task than one.
        assert (max(r.cycles for r in quad)
                > max(r.cycles for r in single))
