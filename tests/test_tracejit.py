"""Trace JIT: equivalence, deopt guards, reporting.

The fast engine (``fastpath=True``, the default) compiles hot loop
nests to specialized Python and runs every other block on the reference
dispatch loop.  Its contract is the fast path's: *bit-identical*
results — cycles, run stats, and memory-system snapshots — against the
reference engine, under every combination of engine, telemetry, and
yield schedule.  These tests also poke each deoptimization guard
directly.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.ir import INT64, IRBuilder, Module, VOID, pointer, \
    verify_module
from repro.ir.values import Constant
from repro.machine import A53, HASWELL, XEON_PHI, Interpreter
from repro.machine.memory import Memory
from repro.machine.tracejit import DEFAULT_THRESHOLD
from repro.obs.sinks import collecting
from repro.remarks import RemarkEmitter

from .conftest import SIMPLE, SIMPLE_OOO
from .test_fastpath_equivalence import (build_branchy_kernel,
                                        build_random_kernel, run_engine,
                                        snapshot)


def run_jit(module: Module, machine, seed: int, n: int = 512):
    """Like ``run_engine`` on the fast engine, returning the
    interpreter too (for its trace report)."""
    mem = Memory(machine.line_size)
    data = np.random.default_rng(seed).integers(0, 1 << 40, 2 * n)
    a = mem.allocate(8, n, "a")
    a.fill(data[:n])
    barr = mem.allocate(8, n, "b")
    barr.fill(data[n:])
    out = mem.allocate(8, n, "out")
    interp = Interpreter(module, mem, machine=machine, fastpath=True)
    interp.run("kernel", [a.base, barr.base, out.base, n])
    return interp, snapshot(interp), list(out.data)


def build_nested_kernel(n: int = 256) -> Module:
    """Outer loop over ``i`` with a data-dependent single-block inner
    loop (``j`` up to ``i & 7``) — the shape the recorder compiles to a
    nested ``while`` inside one trace."""
    module = Module("nested")
    func = module.create_function(
        "kernel", VOID,
        [("a", pointer(INT64)), ("out", pointer(INT64)), ("n", INT64)])
    a, out, nval = func.args
    for arg in (a, out):
        arg.array_size = Constant(INT64, n)
        arg.noalias = True

    b = IRBuilder()
    entry = func.add_block("entry")
    outer = func.add_block("outer")
    inner = func.add_block("inner")
    latch = func.add_block("latch")
    exit_ = func.add_block("exit")
    mask = Constant(INT64, n - 1)

    b.set_insert_point(entry)
    b.br(b.cmp("sgt", nval, b.const(0), "guard"), outer, exit_)

    b.set_insert_point(outer)
    i = b.phi(INT64, "i")
    limit = b.and_(i, b.const(7), "limit")
    b.jmp(inner)

    b.set_insert_point(inner)
    j = b.phi(INT64, "j")
    s = b.phi(INT64, "s")
    idx = b.and_(b.add(i, j, "ij"), mask, "idx")
    v = b.load(b.gep(a, idx, "ap"), "v")
    s2 = b.add(s, v, "s2")
    j2 = b.add(j, b.const(1), "j2")
    b.br(b.cmp("slt", j2, limit, "more"), inner, latch)
    j.add_incoming(b.const(0), outer)
    j.add_incoming(j2, inner)
    s.add_incoming(b.const(0), outer)
    s.add_incoming(s2, inner)

    b.set_insert_point(latch)
    b.store(s2, b.gep(out, i, "op"))
    i2 = b.add(i, b.const(1), "i2")
    b.br(b.cmp("slt", i2, nval, "cond"), outer, exit_)
    i.add_incoming(b.const(0), entry)
    i.add_incoming(i2, latch)

    b.set_insert_point(exit_)
    b.ret()
    verify_module(module)
    return module


def run_module(module: Module, machine, n: int, *,
               fastpath: bool = True, yield_every: int = 0):
    """Run a (a, out, n)-shaped kernel; returns (interp, snap, out)."""
    mem = Memory(machine.line_size)
    data = np.random.default_rng(7).integers(0, 1 << 40, n)
    a = mem.allocate(8, n, "a")
    a.fill(data)
    out = mem.allocate(8, n, "out")
    interp = Interpreter(module, mem, machine=machine, fastpath=fastpath)
    if yield_every:
        for _ in interp.run_stepped("kernel", [a.base, out.base, n],
                                    yield_every=yield_every):
            pass
    else:
        interp.run("kernel", [a.base, out.base, n])
    return interp, snapshot(interp), list(out.data)


class TestTraceEquivalence:
    @pytest.mark.parametrize("machine", (HASWELL, A53, XEON_PHI, SIMPLE,
                                         SIMPLE_OOO),
                             ids=lambda m: m.name)
    @pytest.mark.parametrize("seed", range(4))
    def test_identical_on_random_kernels(self, machine, seed):
        slow, out_slow = run_engine(build_random_kernel(seed), machine,
                                    False, seed)
        interp, jit, out_jit = run_jit(build_random_kernel(seed),
                                       machine, seed)
        assert jit == slow
        assert out_jit == out_slow
        assert interp.trace_report(), "no trace compiled on a hot loop"

    @pytest.mark.parametrize("machine", (HASWELL, A53),
                             ids=lambda m: m.name)
    def test_tier_matrix_integer_sort(self, machine):
        """engine × telemetry: every combination is bit-identical."""
        from repro.workloads import IntegerSort
        snaps = {}
        for fastpath in (False, True):
            for telemetry in (False, True):
                wl = IntegerSort(num_keys=2000, num_buckets=1 << 14)
                module = wl.build_variant("auto")
                mem = Memory(machine.line_size)
                prepared = wl.prepare(mem)
                interp = Interpreter(module, mem, machine=machine,
                                     fastpath=fastpath,
                                     telemetry=telemetry)
                interp.run(wl.entry, prepared.args)
                prepared.validate()
                snaps[(fastpath, telemetry)] = snapshot(interp)
        base = snaps[(False, False)]
        for combo, snap in snaps.items():
            assert snap == base, f"diverged at {combo}"

    def test_yield_schedule_identical(self):
        """Traces honour the yield budget: a stepped run exits traces
        at the same instruction boundaries and ends bit-identical."""
        module = build_nested_kernel(256)
        _, plain, out_plain = run_module(build_nested_kernel(256),
                                         HASWELL, 256, fastpath=False)
        _, whole, out_whole = run_module(module, HASWELL, 256)
        _, stepped, out_stepped = run_module(
            build_nested_kernel(256), HASWELL, 256, yield_every=300)
        assert whole == plain
        assert stepped == plain
        assert out_whole == out_plain == out_stepped


class TestSelfLoopTraces:
    """A single-block inner loop is the smallest nested loop."""

    def test_nested_while_compiles_and_matches(self):
        _, slow, out_slow = run_module(build_nested_kernel(256),
                                       HASWELL, 256, fastpath=False)
        emitter = RemarkEmitter()
        with collecting(emitter):
            interp, jit, out_jit = run_module(build_nested_kernel(256),
                                              HASWELL, 256)
        assert jit == slow
        assert out_jit == out_slow
        compiled = emitter.by_name("TraceCompiled")
        assert compiled
        assert any(r.arg("nested", 0) >= 1 for r in compiled), \
            "self-loop block was not compiled as a nested while"
        rows = interp.trace_report()
        assert rows and rows[0]["iterations"] > 0


def build_flip_kernel(n: int = 512, call: bool = False) -> Module:
    """A loop whose branch goes to ``small`` for the first half of the
    iterations and to ``big`` for the second half: the direction the
    recorder saw flips halfway through the run.  ``big`` doubles its
    value through a call to ``twice`` when ``call`` is set."""
    module = Module("flip")
    if call:
        twice = module.create_function("twice", INT64, [("x", INT64)])
        b = IRBuilder()
        b.set_insert_point(twice.add_block("entry"))
        b.ret(b.add(twice.args[0], twice.args[0], "xx"))
    func = module.create_function(
        "kernel", VOID,
        [("a", pointer(INT64)), ("out", pointer(INT64)), ("n", INT64)])
    a, out, nval = func.args
    for arg in (a, out):
        arg.array_size = Constant(INT64, n)
        arg.noalias = True
    b = IRBuilder()
    entry = func.add_block("entry")
    loop = func.add_block("loop")
    big = func.add_block("big")
    small = func.add_block("small")
    latch = func.add_block("latch")
    exit_ = func.add_block("exit")
    b.set_insert_point(entry)
    b.br(b.cmp("sgt", nval, b.const(0), "guard"), loop, exit_)
    b.set_insert_point(loop)
    i = b.phi(INT64, "i")
    v = b.load(b.gep(a, i, "ap"), "v")
    b.br(b.cmp("slt", i, b.const(n // 2), "half"), small, big)
    b.set_insert_point(big)
    vb = b.call(twice, [v], "vb") if call else \
        b.add(v, b.const(100), "vb")
    b.jmp(latch)
    b.set_insert_point(small)
    vs = b.add(v, b.const(1), "vs")
    b.jmp(latch)
    b.set_insert_point(latch)
    merged = b.phi(INT64, "m")
    merged.add_incoming(vb, big)
    merged.add_incoming(vs, small)
    b.store(merged, b.gep(out, i, "op"))
    i2 = b.add(i, b.const(1), "i2")
    b.br(b.cmp("slt", i2, nval, "cond"), loop, exit_)
    i.add_incoming(b.const(0), entry)
    i.add_incoming(i2, latch)
    b.set_insert_point(exit_)
    b.ret()
    verify_module(module)
    return module


class TestBranchArms:
    def test_if_then_else_compiles_in_trace(self):
        """Both arms of the flip kernel's if-then-else run in the trace
        it compiled before the flip: one trace carries every iteration
        after recording, bit-identical to the reference engine."""
        n = 512
        _, slow, out_slow = run_module(build_flip_kernel(n), HASWELL, n,
                                       fastpath=False)
        emitter = RemarkEmitter()
        with collecting(emitter):
            interp, jit, out_jit = run_module(build_flip_kernel(n),
                                              HASWELL, n)
        assert jit == slow
        assert out_jit == out_slow
        (row,) = interp.trace_report()
        assert row["header"] == "loop" and row["entries"] == 1
        assert row["iterations"] == n - DEFAULT_THRESHOLD - 2
        (compiled,) = emitter.by_name("TraceCompiled")
        assert compiled.arg("arms") == 1
        assert not emitter.by_name("TraceDeopt")

    @pytest.mark.parametrize("seed", range(6))
    def test_branchy_kernels_compile_arms_and_nests(self, seed):
        """Each branchy kernel (compared with the reference engine in
        ``test_fastpath_equivalence``) compiles some arm in-trace, and
        its outer loop nests the inner loop whenever the recorded
        iteration ran it (every seed but 2 and 3)."""
        emitter = RemarkEmitter()
        with collecting(emitter):
            run_engine(build_branchy_kernel(seed), A53, True, seed)
        compiled = emitter.by_name("TraceCompiled")
        assert any(r.arg("arms") >= 1 for r in compiled)
        outer = [r for r in compiled if r.arg("header") == "loop"]
        if seed in (0, 1, 4, 5):
            assert outer and outer[0].arg("nested") == 1


class TestDeoptGuards:
    def test_side_exit_returns_to_dispatch(self):
        """A branch that flips, after recording, to a block with a call
        side-exits every iteration: the call runs on the dispatch loop,
        the trace is re-entered at the next iteration and the run stays
        bit-identical."""
        n = 512
        _, slow, out_slow = run_module(build_flip_kernel(n, call=True),
                                       HASWELL, n, fastpath=False)
        interp, jit, out_jit = run_module(build_flip_kernel(n, call=True),
                                          HASWELL, n)
        assert jit == slow
        assert out_jit == out_slow
        (row,) = interp.trace_report()
        # The trace stopped iterating at the flip (i = n/2): one entry
        # ran up to it, then each later iteration entered the trace and
        # left through the side exit to `big`.
        assert row["header"] == "loop"
        assert row["iterations"] < n // 2
        assert row["entries"] == n // 2

    def test_cold_line_falls_back_in_trace(self):
        """Loads far beyond the L1 working set keep missing the L1 set
        the inlined probe reads: the trace must take the full-walk
        fallback and stay bit-identical."""
        seed = 99
        machine = A53
        n = 2048  # 16 KiB per array: misses the L1 often
        slow, out_slow = run_engine(build_random_kernel(seed, n=n),
                                    machine, False, seed, n=n)
        interp, jit, out_jit = run_jit(build_random_kernel(seed, n=n),
                                       machine, seed, n=n)
        assert jit == slow
        assert out_jit == out_slow
        assert jit["memory_system"]["dram"]["stats"]["accesses"] > 0

    def test_unfusable_loop_aborts_and_blacklists(self):
        """A call inside the hot loop aborts recording (blacklist +
        ``TraceDeopt`` record-stage remark); execution is unaffected."""
        module = Module("callee")
        helper = module.create_function("twice", INT64,
                                        [("x", INT64)])
        b = IRBuilder()
        hentry = helper.add_block("entry")
        b.set_insert_point(hentry)
        b.ret(b.add(helper.args[0], helper.args[0], "xx"))
        func = module.create_function(
            "kernel", VOID,
            [("a", pointer(INT64)), ("out", pointer(INT64)),
             ("n", INT64)])
        a, out, nval = func.args
        n = 128
        for arg in (a, out):
            arg.array_size = Constant(INT64, n)
            arg.noalias = True
        entry = func.add_block("entry")
        loop = func.add_block("loop")
        exit_ = func.add_block("exit")
        b.set_insert_point(entry)
        b.br(b.cmp("sgt", nval, b.const(0), "guard"), loop, exit_)
        b.set_insert_point(loop)
        i = b.phi(INT64, "i")
        v = b.load(b.gep(a, i, "ap"), "v")
        d = b.call(helper, [v], "d")
        b.store(d, b.gep(out, i, "op"))
        i2 = b.add(i, b.const(1), "i2")
        b.br(b.cmp("slt", i2, nval, "cond"), loop, exit_)
        i.add_incoming(b.const(0), entry)
        i.add_incoming(i2, loop)
        b.set_insert_point(exit_)
        b.ret()
        verify_module(module)

        mem = Memory(HASWELL.line_size)
        a_ = mem.allocate(8, n, "a")
        a_.fill(np.arange(n))
        out_ = mem.allocate(8, n, "out")
        interp = Interpreter(module, mem, machine=HASWELL,
                             fastpath=True)
        emitter = RemarkEmitter()
        with collecting(emitter):
            interp.run("kernel", [a_.base, out_.base, n])
        aborts = [r for r in emitter.by_name("TraceDeopt")
                  if r.arg("stage") == "record"
                  and r.arg("reason") == "unfusable"]
        assert aborts
        # Named like the run-stage remarks: function and block name.
        assert aborts[0].function == "kernel"
        assert aborts[0].arg("header") == "loop"
        assert not interp.trace_report()
        assert list(out_.data) == [2 * x for x in range(n)]
        assert interp._tj.aborts >= 1

    def test_reentered_inner_loop_aborts(self):
        """An inner loop entered a second time from outside it (``B ->
        A``, where ``A`` does not dominate ``B``) cannot nest: recording
        aborts as ``irreducible`` and the run is unaffected."""
        n = 64
        module = Module("reenter")
        func = module.create_function(
            "kernel", VOID,
            [("a", pointer(INT64)), ("out", pointer(INT64)),
             ("n", INT64)])
        _a, out, nval = func.args
        out.array_size = Constant(INT64, n)
        b = IRBuilder()
        entry, head, inner, side, latch, exit_ = (
            func.add_block(name) for name in
            ("entry", "head", "inner", "side", "latch", "exit"))
        b.set_insert_point(entry)
        b.jmp(head)
        b.set_insert_point(head)
        i = b.phi(INT64, "i")
        b.br(b.cmp("slt", i, b.const(0), "never"), side, inner)
        b.set_insert_point(inner)
        j = b.phi(INT64, "j")
        seen = b.phi(INT64, "seen")
        j2 = b.add(j, b.const(1), "j2")
        b.br(b.cmp("slt", j2, b.const(2), "again"), inner, side)
        b.set_insert_point(side)
        came = b.phi(INT64, "came")
        b.br(b.cmp("eq", came, b.const(0), "first"), inner, latch)
        b.set_insert_point(latch)
        b.store(came, b.gep(out, i, "op"))
        i2 = b.add(i, b.const(1), "i2")
        b.br(b.cmp("slt", i2, nval, "cond"), head, exit_)
        b.set_insert_point(exit_)
        b.ret()
        i.add_incoming(b.const(0), entry)
        i.add_incoming(i2, latch)
        for value, pred in ((b.const(0), head), (j2, inner),
                            (b.const(0), side)):
            j.add_incoming(value, pred)
        for value, pred in ((b.const(0), head), (seen, inner),
                            (b.const(1), side)):
            seen.add_incoming(value, pred)
        came.add_incoming(b.const(0), head)
        came.add_incoming(seen, inner)
        verify_module(module)

        snaps = []
        emitter = RemarkEmitter()
        for fastpath in (False, True):
            with collecting(emitter):
                _, snap, data = run_module(module, HASWELL, n,
                                           fastpath=fastpath)
            snaps.append((snap, data))
        assert snaps[1] == snaps[0]
        assert snaps[0][1] == [1] * n
        reasons = {(r.arg("header"), r.arg("reason"))
                   for r in emitter.by_name("TraceDeopt")}
        assert ("head", "irreducible") in reasons

    def test_low_yield_discards_and_blacklists(self):
        interp, _, _ = run_module(build_nested_kernel(64), HASWELL, 64)
        tj = interp._tj
        assert tj.traces
        trace = tj.traces[0]
        state = tj._states[trace.func]
        assert trace.header in state.traces
        tj.deopt(state, trace)
        assert trace.header not in state.traces
        assert trace.header in state.blacklist
        assert tj.deopts >= 1


def build_stream_kernel() -> Module:
    """``out[i] = a[i] + 1`` over ``n`` elements."""
    module = Module("stream")
    func = module.create_function(
        "kernel", VOID,
        [("a", pointer(INT64)), ("out", pointer(INT64)), ("n", INT64)])
    a, out, nval = func.args
    b = IRBuilder()
    entry = func.add_block("entry")
    loop = func.add_block("loop")
    exit_ = func.add_block("exit")
    b.set_insert_point(entry)
    b.br(b.cmp("sgt", nval, b.const(0), "guard"), loop, exit_)
    b.set_insert_point(loop)
    i = b.phi(INT64, "i")
    v = b.load(b.gep(a, i, "ap"), "v")
    b.store(b.add(v, b.const(1), "v1"), b.gep(out, i, "op"))
    i2 = b.add(i, b.const(1), "i2")
    b.br(b.cmp("slt", i2, nval, "cond"), loop, exit_)
    i.add_incoming(b.const(0), entry)
    i.add_incoming(i2, loop)
    b.set_insert_point(exit_)
    b.ret()
    verify_module(module)
    return module


class TestL1Probe:
    @pytest.mark.parametrize("machine", (SIMPLE, SIMPLE_OOO, HASWELL, A53),
                             ids=lambda m: m.name)
    def test_trace_walks_only_what_the_probe_cannot_serve(self, machine):
        """A compiled trace calls the memory walk only for an access
        the inlined probe cannot serve: the line is not in its L1 set,
        its fill is still in flight, or its page is not in the L1 TLB.
        On the one-level machines hardware-prefetch fills land in the
        L1, so a streaming loop hits lines no earlier walk of its own
        brought in."""
        n = 4096
        mem = Memory(machine.line_size)
        a = mem.allocate(8, n, "a")
        a.fill(np.arange(n))
        out = mem.allocate(8, n, "out")
        interp = Interpreter(build_stream_kernel(), mem, machine=machine)
        ms = interp.memory_system
        l1, walk = ms.caches[0], ms._demand
        calls, servable = 0, 0

        def demand(pc, addr, time, is_write):
            nonlocal calls, servable
            if sys._getframe(1).f_code.co_filename == "<compiled-trace>":
                calls += 1
                line = addr // ms.line_size
                fill = l1._sets[line % l1.num_sets].get(line)
                if fill is not None and fill <= time and \
                        addr >> ms.tlb.page_bits in ms.tlb._pages:
                    servable += 1
            return walk(pc, addr, time, is_write)

        ms._demand = demand
        interp.run("kernel", [a.base, out.base, n])
        assert list(out.data) == list(range(1, n + 1))
        assert interp.trace_report()
        assert calls > 0
        assert servable == 0


class TestLoopNestCoverage:
    def test_graph500_bfs_stays_on_traces(self):
        """BFS's edge loop (which branches on ``parent[w] < 0``) nests in
        the work-list loop's trace: nearly every instruction runs on a
        trace and no trace is discarded for side-exiting."""
        from repro.workloads import Graph500
        wl = Graph500(scale=11, edge_factor=10)
        module = wl.build_variant("plain")
        mem = Memory(A53.line_size)
        prepared = wl.prepare(mem)
        interp = Interpreter(module, mem, machine=A53)
        emitter = RemarkEmitter()
        with collecting(emitter):
            interp.run(wl.entry, prepared.args)
        prepared.validate()
        traced = sum(r["instructions"] for r in interp.trace_report())
        assert traced >= 0.95 * interp.stats.instructions
        assert not [r for r in emitter.by_name("TraceDeopt")
                    if r.arg("reason") == "low-yield"]


class TestGates:
    def test_default_engine_traces_hot_loops(self):
        """A default interpreter compiles a trace once a loop header
        reaches the fixed hotness threshold — no switch needed."""
        n = 512
        mem = Memory(HASWELL.line_size)
        a = mem.allocate(8, n, "a")
        a.fill(np.arange(n))
        barr = mem.allocate(8, n, "b")
        barr.fill(np.arange(n))
        out = mem.allocate(8, n, "out")
        interp = Interpreter(build_random_kernel(0), mem, machine=HASWELL)
        emitter = RemarkEmitter()
        with collecting(emitter):
            interp.run("kernel", [a.base, barr.base, out.base, n])
        assert emitter.by_name("TraceCompiled")
        (row,) = interp.trace_report()
        assert row["header"] == "loop"
        # Visits 1..16 dispatch (the 16th is recorded), visit 17 closes
        # the recording and still dispatches, and the last pass leaves
        # through the loop-exit side exit: every other iteration ran in
        # the trace.
        assert row["iterations"] == n - DEFAULT_THRESHOLD - 2

    def test_requires_fastpath(self):
        interp = Interpreter(build_random_kernel(2), Memory(),
                             machine=HASWELL, fastpath=False)
        assert interp._tj is None
