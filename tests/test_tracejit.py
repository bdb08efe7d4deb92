"""Trace JIT: equivalence, deopt guards, reporting.

The fast engine (``fastpath=True``, the default) compiles hot loop
paths to specialized Python on top of the fused segments.  Its contract
is the fast path's: *bit-identical* results — cycles, run stats, and
memory-system snapshots — against the reference engine, under every
combination of engine, telemetry, and yield schedule.  These tests also
poke each deoptimization guard directly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ir import INT64, IRBuilder, Module, VOID, pointer, \
    verify_module
from repro.ir.values import Constant
from repro.machine import A53, HASWELL, XEON_PHI, Interpreter
from repro.machine.memory import Memory
from repro.machine.tracejit import DEFAULT_THRESHOLD
from repro.remarks import RemarkEmitter, collecting

from .test_fastpath_equivalence import (build_random_kernel, run_engine,
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
    @pytest.mark.parametrize("machine", (HASWELL, A53, XEON_PHI),
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


def build_flip_kernel(n: int = 512) -> Module:
    """A loop whose branch goes to ``small`` for the first half of the
    iterations and to ``big`` for the second half: the direction the
    recorder bakes into the trace fails halfway through the run."""
    module = Module("flip")
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
    vb = b.add(v, b.const(100), "vb")
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


class TestDeoptGuards:
    def test_side_exit_returns_to_fused_tier(self):
        """A branch that flips direction after recording side-exits;
        the run must still be bit-identical and the trace re-entered."""
        n = 512
        _, slow, out_slow = run_module(build_flip_kernel(n), HASWELL, n,
                                       fastpath=False)
        interp, jit, out_jit = run_module(build_flip_kernel(n), HASWELL,
                                          n)
        assert jit == slow
        assert out_jit == out_slow
        rows = {r["header"]: r for r in interp.trace_report()}
        # The first trace (recorded through `small`) stopped iterating
        # at the flip: its side exit returned control to the fused
        # dispatcher, which then saw `big` go hot and traced it too —
        # `big` is only ever reached after the recorded direction fails.
        assert rows["loop"]["iterations"] <= n // 2
        assert "big" in rows and rows["big"]["iterations"] > 0

    def test_cold_line_falls_back_in_trace(self):
        """Loads far beyond the L1 working set keep missing the hot-line
        memo: the in-trace fast path must take the full-walk fallback
        and stay bit-identical."""
        seed = 99
        machine = A53
        n = 2048  # 16 KiB per array: misses both the memo and L1 often
        slow, out_slow = run_engine(build_random_kernel(seed, n=n),
                                    machine, False, seed, n=n)
        interp, jit, out_jit = run_jit(build_random_kernel(seed, n=n),
                                       machine, seed, n=n)
        assert jit == slow
        assert out_jit == out_slow
        assert jit["memory_system"]["dram"]["stats"]["accesses"] > 0

    def test_memory_mode_change_deopts_at_entry(self):
        """Flipping the memory system off the fast path (what attaching
        a telemetry collector does) fails the trace's entry guard: the
        trace is discarded with a ``memory-mode-changed`` remark and the
        run completes on the fused tier, still bit-identical."""
        n = 512
        _, slow, out_slow = run_module(build_flip_kernel(n), HASWELL, n,
                                       fastpath=False)
        mem = Memory(HASWELL.line_size)
        data = np.random.default_rng(7).integers(0, 1 << 40, n)
        a = mem.allocate(8, n, "a")
        a.fill(data)
        out = mem.allocate(8, n, "out")
        interp = Interpreter(build_flip_kernel(n), mem, machine=HASWELL,
                             fastpath=True)
        emitter = RemarkEmitter()
        with collecting(emitter):
            stepper = interp.run_stepped(
                "kernel", [a.base, out.base, n], yield_every=1000)
            next(stepper)  # past the threshold: a trace is live
            interp.memory_system.fastpath = False
            for _ in stepper:
                pass
        deopts = [r for r in emitter.by_name("TraceDeopt")
                  if r.arg("reason") == "memory-mode-changed"]
        assert deopts, "entry guard did not fire on the mode change"
        assert snapshot(interp) == slow
        assert list(out.data) == out_slow

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
        assert not interp.trace_report()
        assert list(out_.data) == [2 * x for x in range(n)]
        assert interp._tj.aborts >= 1

    def test_low_yield_discards_and_blacklists(self):
        interp, _, _ = run_module(build_nested_kernel(64), HASWELL, 64)
        tj = interp._tj
        assert tj.traces
        trace = tj.traces[0]
        state = tj._states[trace.func]
        assert trace.header in state.traces
        tj.deopt(state, trace, "low-yield")
        assert trace.header not in state.traces
        assert trace.header in state.blacklist
        assert tj.deopts >= 1


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
