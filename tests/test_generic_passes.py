"""Tests for DCE, constant folding, mem2reg, the pass manager, and the
ICC-like stride-indirect baseline."""

import pytest
from hypothesis import given, strategies as st

from repro.ir import (Constant, INT64, IRBuilder, Load, Module, Prefetch,
                      VOID, parse_module, pointer, print_module,
                      verify_module)
from repro.machine import Interpreter, Memory
from repro.passes import (ConstantFoldingPass, DeadCodeEliminationPass,
                          Mem2RegPass, PassManager,
                          StrideIndirectBaselinePass)
from tests.conftest import build_indirect_kernel


class TestDCE:
    def test_removes_unused_arithmetic(self):
        m = parse_module("""
        func @f(%x: i64) -> i64 {
        entry:
          %dead = add i64 %x, 1
          %dead2 = mul i64 %dead, 2
          ret i64 %x
        }
        """)
        removed = DeadCodeEliminationPass().run(m)
        assert removed == 2
        assert len(m.function("f").entry.instructions) == 1

    def test_keeps_stores_and_prefetches(self):
        m = parse_module("""
        func @f(%p: i64*) -> void {
        entry:
          store i64 1, %p
          prefetch i64* %p
          ret
        }
        """)
        assert DeadCodeEliminationPass().run(m) == 0

    def test_keeps_allocs(self):
        m = parse_module("""
        func @f() -> void {
        entry:
          %buf = alloc i64, 8
          ret
        }
        """)
        assert DeadCodeEliminationPass().run(m) == 0

    def test_removes_dead_load(self):
        m = parse_module("""
        func @f(%p: i64*) -> void {
        entry:
          %v = load i64* %p
          ret
        }
        """)
        assert DeadCodeEliminationPass().run(m) == 1


class TestConstantFolding:
    def _fold(self, body: str) -> Module:
        m = parse_module(f"""
        func @f(%x: i64) -> i64 {{
        entry:
        {body}
        }}
        """)
        ConstantFoldingPass().run(m)
        DeadCodeEliminationPass().run(m)
        verify_module(m)
        return m

    def test_folds_arithmetic(self):
        m = self._fold("""
          %a = add i64 2, 3
          %b = mul i64 %a, 4
          ret i64 %b
        """)
        ret = m.function("f").entry.terminator
        assert isinstance(ret.value, Constant) and ret.value.value == 20

    def test_folds_comparison_and_select(self):
        m = self._fold("""
          %c = cmp slt i64 3, 5
          %s = select i64 %c, 10, 20
          ret i64 %s
        """)
        ret = m.function("f").entry.terminator
        assert ret.value.value == 10

    def test_identity_add_zero(self):
        m = self._fold("""
          %a = add i64 %x, 0
          ret i64 %a
        """)
        ret = m.function("f").entry.terminator
        assert ret.value.name == "x"

    def test_identity_mul_one_and_zero(self):
        m = self._fold("""
          %a = mul i64 %x, 1
          %b = mul i64 %x, 0
          %c = add i64 %a, %b
          ret i64 %c
        """)
        ret = m.function("f").entry.terminator
        # x*1 + x*0 == x + 0 == x
        assert ret.value.name == "x"

    def test_division_by_zero_not_crashing(self):
        """The pass leaves a division by a constant zero in place, for
        the interpreter to raise on as it does without folding."""
        m = self._fold("""
          %a = sdiv i64 5, 0
          ret i64 %a
        """)
        ret = m.function("f").entry.terminator
        assert ret.value.opcode == "sdiv"

    @pytest.mark.parametrize("opcode", ("udiv", "urem"))
    def test_unsigned_division_by_zero_stays_and_raises(self, opcode):
        m = self._fold(f"""
          %a = {opcode} i64 5, 0
          %b = {opcode} i64 7, 2
          %c = add i64 %a, %b
          ret i64 %c
        """)
        ret = m.function("f").entry.terminator
        assert ret.value.lhs.opcode == opcode
        assert isinstance(ret.value.rhs, Constant)  # 7 by 2 still folds
        with pytest.raises(ZeroDivisionError):
            Interpreter(m).run("f", [0])

    @given(st.integers(-2**31, 2**31), st.integers(-2**31, 2**31))
    def test_fold_matches_interpreter(self, a, b):
        # Folded result must equal what the interpreter computes.
        text = f"""
        func @f() -> i64 {{
        entry:
          %r = add i64 {a}, {b}
          %r2 = mul i64 %r, 3
          %r3 = xor i64 %r2, {b}
          ret i64 %r3
        }}
        """
        interpreted = Interpreter(parse_module(text)).run("f", []).value
        folded_module = parse_module(text)
        ConstantFoldingPass().run(folded_module)
        ret = folded_module.function("f").entry.terminator
        assert isinstance(ret.value, Constant)
        assert ret.value.value == interpreted


class TestMem2Reg:
    def test_promotes_simple_counter(self):
        from repro.frontend import compile_source
        # compile_source runs mem2reg; check no allocs remain.
        m = compile_source("""
        long sum(long n) {
            long acc = 0;
            for (long i = 0; i < n; i++) acc += i;
            return acc;
        }
        """)
        f = m.function("sum")
        assert not any(i.opcode == "alloc" for i in f.instructions())
        assert any(i.opcode == "phi" for i in f.instructions())
        assert Interpreter(m).run("sum", [10]).value == 45

    def test_unpromoted_when_address_escapes(self):
        m = parse_module("""
        func @g(%p: i64*) -> void {
        entry:
          store i64 1, %p
          ret
        }

        func @f() -> i64 {
        entry:
          %slot = alloc i64, 1
          call @g(i64* %slot)
          %v = load i64* %slot
          ret i64 %v
        }
        """)
        promoted = Mem2RegPass().run(m)
        assert promoted == 0  # escaped via the call

    def test_multi_element_alloc_not_promoted(self):
        m = parse_module("""
        func @f() -> i64 {
        entry:
          %buf = alloc i64, 2
          store i64 5, %buf
          %v = load i64* %buf
          ret i64 %v
        }
        """)
        assert Mem2RegPass().run(m) == 0

    def test_diamond_gets_phi(self):
        from repro.frontend import compile_source
        m = compile_source("""
        long pick(long x) {
            long r = 0;
            if (x > 0) r = 1; else r = 2;
            return r;
        }
        """)
        assert Interpreter(m).run("pick", [5]).value == 1
        assert Interpreter(m).run("pick", [-5]).value == 2


class TestPassManager:
    def test_runs_in_order_and_collects_reports(self):
        m = build_indirect_kernel()
        pm = PassManager()
        pm.add(ConstantFoldingPass()).add(DeadCodeEliminationPass())
        reports = pm.run(m)
        assert list(reports) == ["constfold", "dce"]

    def test_rejects_non_pass(self):
        with pytest.raises(TypeError):
            PassManager().add(object())

    def test_verifies_between_passes(self):
        class BadPass:
            name = "bad"

            def run(self, module):
                # Corrupt: drop the terminator of the first block.
                func = module.functions[0]
                func.entry._instructions.pop()
        m = build_indirect_kernel()
        from repro.ir import VerificationError
        with pytest.raises(VerificationError):
            PassManager().add(BadPass()).run(m)


class TestStrideIndirectBaseline:
    def test_matches_simple_static_pattern(self):
        m = build_indirect_kernel(num_buckets=1024)
        f = m.function("kernel")
        f.arg("keys").array_size = Constant(INT64, 5000)
        report = StrideIndirectBaselinePass().run(m)
        assert report.num_prefetches == 1
        verify_module(m)
        assert sum(1 for i in f.instructions()
                   if isinstance(i, Prefetch)) == 2

    def test_requires_static_lookahead_size(self):
        # Argument-valued size: the ICC-like pass bails.
        m = build_indirect_kernel()  # keys annotated with %n
        report = StrideIndirectBaselinePass().run(m)
        assert report.num_prefetches == 0
        reasons = [reason for _, reason in report.skipped]
        assert any("statically" in r for r in reasons)

    def test_misses_hash_pattern(self):
        # RA-style hashing between the loads: "pattern too complex".
        from repro.workloads import RandomAccess
        m = RandomAccess(nblocks=1, table_size=1 << 10).build()
        report = StrideIndirectBaselinePass().run(m)
        assert report.num_prefetches == 0

    def test_misses_graph500(self):
        from repro.workloads import Graph500
        m = Graph500(scale=5, edge_factor=4).build()
        report = StrideIndirectBaselinePass().run(m)
        assert report.num_prefetches == 0

    def test_catches_cg(self):
        from repro.workloads import ConjugateGradient
        m = ConjugateGradient(nrows=10, row_nnz=4, x_size=64).build()
        report = StrideIndirectBaselinePass().run(m)
        assert report.num_prefetches == 1  # x[colidx[k]]

    def test_preserves_semantics(self):
        import numpy as np

        def run(module):
            rng = np.random.default_rng(1)
            mem = Memory()
            # The annotation promises 500 elements, so allocate 500 and
            # use the first 300 (C programs rely on exactly this slack).
            keys = mem.allocate(8, 500, "keys")
            keys.fill(np.concatenate(
                [rng.integers(0, 1024, 300),
                 np.zeros(200, dtype=np.int64)]))
            buckets = mem.allocate(8, 1024, "buckets")
            Interpreter(module, mem).run(
                "kernel", [keys.base, buckets.base, 300])
            return list(buckets.data)

        plain = build_indirect_kernel(num_buckets=1024)
        plain.function("kernel").arg("keys").array_size = \
            Constant(INT64, 500)
        transformed = build_indirect_kernel(num_buckets=1024)
        transformed.function("kernel").arg("keys").array_size = \
            Constant(INT64, 500)
        StrideIndirectBaselinePass().run(transformed)
        assert run(plain) == run(transformed)
