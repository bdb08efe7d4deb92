"""Tests for the loop-building helper and assorted smaller pieces."""

import pytest

from repro.ir import (INT64, IRBuilder, Module, VOID, pointer,
                      verify_module)
from repro.machine import Interpreter, Memory
from repro.workloads.looputil import counted_loop


def build_with_counted_loop(start, end_value):
    m = Module("m")
    f = m.create_function("f", VOID, [("out", pointer(INT64)),
                                      ("n", INT64)])
    b = IRBuilder()
    b.set_insert_point(f.add_block("entry"))

    def body(b, iv):
        b.store(iv, b.gep(f.arg("out"), iv))

    counted_loop(b, f, start, f.arg("n") if end_value is None
                 else b.const(end_value), body, "loop")
    b.ret()
    verify_module(m)
    return m


class TestCountedLoop:
    def _run(self, module, n):
        mem = Memory()
        out = mem.allocate(8, max(n, 1) + 8, "out")
        Interpreter(module, mem).run("f", [out.base, n])
        return out.data

    def test_basic_iteration_space(self):
        m = build_with_counted_loop(0, None)
        data = self._run(m, 5)
        assert data[:5].tolist() == [0, 1, 2, 3, 4]

    def test_zero_trip_guard(self):
        m = build_with_counted_loop(0, None)
        data = self._run(m, 0)
        assert all(v == 0 for v in data)

    def test_nonzero_start(self):
        m = build_with_counted_loop(2, None)
        data = self._run(m, 5)
        assert data[:5].tolist() == [0, 0, 2, 3, 4]

    def test_produces_analyzable_iv(self):
        from repro.analysis import InductionAnalysis
        m = build_with_counted_loop(0, None)
        analysis = InductionAnalysis(m.function("f"))
        (iv,) = analysis.all
        assert iv.is_canonical
        assert iv.bound is not None and not iv.bound.inclusive

    def test_nested_loops_verify(self):
        m = Module("m")
        f = m.create_function("f", VOID, [("out", pointer(INT64))])
        b = IRBuilder()
        b.set_insert_point(f.add_block("entry"))
        counter = [0]

        def outer_body(b, i):
            def inner_body(b, j):
                counter[0] += 1  # construction-time count
            counted_loop(b, f, 0, b.const(3), inner_body, "inner")

        counted_loop(b, f, 0, b.const(2), outer_body, "outer")
        b.ret()
        verify_module(m)
        from repro.analysis import LoopInfo
        info = LoopInfo(m.function("f"))
        assert len(info.loops) == 2


class TestInterpreterStepping:
    def test_run_stepped_yields_progress(self, indirect_module):
        from repro.machine import HASWELL
        mem = Memory()
        keys = mem.allocate(8, 3000, "keys")
        keys.fill([i % 64 for i in range(3000)])
        buckets = mem.allocate(8, 64, "buckets")
        interp = Interpreter(indirect_module, mem, machine=HASWELL)
        times = list(interp.run_stepped(
            "kernel", [keys.base, buckets.base, 3000],
            yield_every=2000))
        assert len(times) >= 2
        assert times == sorted(times)  # core time is monotone

    def test_functional_mode_never_yields(self, indirect_module):
        mem = Memory()
        keys = mem.allocate(8, 100, "keys")
        buckets = mem.allocate(8, 64, "buckets")
        interp = Interpreter(indirect_module, mem)
        times = list(interp.run_stepped(
            "kernel", [keys.base, buckets.base, 100], yield_every=10))
        assert times == []  # no core -> no timestamps


class TestPrefetchReportAccessors:
    def test_module_level_report_aggregates(self, indirect_module):
        from repro.passes import IndirectPrefetchPass
        report = IndirectPrefetchPass().run(indirect_module)
        assert report.num_prefetches == 2
        assert len(report.accepted) == 1
        assert len(report.rejected) == 1
        assert len(report.functions) == 1
