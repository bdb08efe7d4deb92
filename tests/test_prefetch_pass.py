"""Tests for the indirect-prefetch pass: DFS, legality, scheduling,
code generation, deduplication, and semantic preservation."""

import pytest
from hypothesis import given, strategies as st

from repro.ir import (Constant, INT64, IRBuilder, Load, Module, Prefetch,
                      VOID, pointer, verify_module)
from repro.machine import Interpreter, Memory
from repro.passes import (FunctionAnalyses, IndirectPrefetchPass,
                          PrefetchOptions, RejectReason)
from repro.passes.prefetch import (chain_loads, check_chain, find_chain,
                                   offset_for, schedule_chain)
from tests.conftest import build_indirect_kernel


def loads_of(func):
    return [i for i in func.instructions() if isinstance(i, Load)]


def prefetches_of(func):
    return [i for i in func.instructions() if isinstance(i, Prefetch)]


class TestDFS:
    def test_finds_chain_for_indirect_load(self, indirect_module):
        func = indirect_module.function("kernel")
        analyses = FunctionAnalyses(func)
        keys_load, bucket_load = loads_of(func)
        chain = find_chain(bucket_load, analyses)
        assert chain is not None
        assert chain.iv.phi.name == "i"
        assert chain_loads(chain) == [keys_load, bucket_load]
        opcodes = [i.opcode for i in chain.instructions]
        assert opcodes == ["gep", "load", "gep", "load"]

    def test_stride_load_has_single_load_chain(self, indirect_module):
        func = indirect_module.function("kernel")
        analyses = FunctionAnalyses(func)
        keys_load, _ = loads_of(func)
        chain = find_chain(keys_load, analyses)
        assert chain is not None
        assert chain_loads(chain) == [keys_load]

    def test_no_chain_outside_loop(self):
        m = Module("m")
        f = m.create_function("f", INT64, [("p", pointer(INT64))])
        b = IRBuilder()
        b.set_insert_point(f.add_block("entry"))
        v = b.load(f.arg("p"))
        b.ret(v)
        assert find_chain(v, FunctionAnalyses(f)) is None

    def test_no_chain_for_loop_invariant_address(self):
        # Loop exists, but the load address never touches the IV.
        m = Module("m")
        f = m.create_function("f", VOID, [("p", pointer(INT64)),
                                          ("n", INT64)])
        b = IRBuilder()
        entry, loop, exit_ = (f.add_block(x) for x in
                              ("entry", "loop", "exit"))
        b.set_insert_point(entry)
        b.jmp(loop)
        b.set_insert_point(loop)
        i = b.phi(INT64, "i")
        v = b.load(f.arg("p"), "v")  # invariant address
        i_next = b.add(i, b.const(1))
        c = b.cmp("slt", i_next, f.arg("n"))
        b.br(c, loop, exit_)
        i.add_incoming(b.const(0), entry)
        i.add_incoming(i_next, loop)
        b.set_insert_point(exit_)
        b.ret()
        assert find_chain(v, FunctionAnalyses(f)) is None

    def test_innermost_iv_chosen_in_nest(self):
        # x[a[j] + i] inside a j-loop nested in an i-loop: the chain
        # must pick j (the innermost IV), per Algorithm 1 line 21.
        m = Module("m")
        f = m.create_function(
            "f", VOID, [("a", pointer(INT64)), ("x", pointer(INT64)),
                        ("n", INT64)])
        for arg in f.args[:2]:
            arg.noalias = True
        b = IRBuilder()
        entry = f.add_block("entry")
        outer = f.add_block("outer")
        inner = f.add_block("inner")
        outer_latch = f.add_block("outer.latch")
        exit_ = f.add_block("exit")
        b.set_insert_point(entry)
        b.jmp(outer)
        b.set_insert_point(outer)
        i = b.phi(INT64, "i")
        b.jmp(inner)
        b.set_insert_point(inner)
        j = b.phi(INT64, "j")
        aj = b.load(b.gep(f.arg("a"), j, "ap"), "aj")
        mixed = b.add(aj, i, "mixed")
        xv = b.load(b.gep(f.arg("x"), mixed, "xp"), "xv")
        j_next = b.add(j, b.const(1), "j.next")
        jc = b.cmp("slt", j_next, f.arg("n"), "jc")
        b.br(jc, inner, outer_latch)
        j.add_incoming(b.const(0), outer)
        j.add_incoming(j_next, inner)
        b.set_insert_point(outer_latch)
        i_next = b.add(i, b.const(1), "i.next")
        ic = b.cmp("slt", i_next, f.arg("n"), "ic")
        b.br(ic, outer, exit_)
        i.add_incoming(b.const(0), entry)
        i.add_incoming(i_next, outer_latch)
        b.set_insert_point(exit_)
        b.ret()
        verify_module(m)

        analyses = FunctionAnalyses(f)
        chain = find_chain(xv, analyses)
        assert chain is not None
        assert chain.iv.phi is j
        assert len(chain.all_ivs) == 2  # both i and j were reachable


class TestLegality:
    def run_pass(self, module, **options):
        return IndirectPrefetchPass(PrefetchOptions(**options)).run(module)

    def reject_reasons(self, report):
        return {r.reason for r in report.rejected}

    def test_stride_only_rejected_as_not_indirect(self, indirect_module):
        report = self.run_pass(indirect_module)
        reasons = {r.load.name: r.reason for f in report.functions
                   for r in f.rejected}
        assert reasons.get("k") is RejectReason.NOT_INDIRECT

    def test_store_clobber_rejected_without_noalias(self):
        module = build_indirect_kernel(noalias=False)
        report = self.run_pass(module)
        assert report.num_prefetches == 0
        assert RejectReason.STORED_TO in self.reject_reasons(report)

    def test_no_bound_rejected(self):
        # No size annotations AND a double-exit loop: no safe clamp.
        module = build_indirect_kernel(annotate_sizes=False)
        func = module.function("kernel")
        # The loop bound fallback applies (single exit, direct index), so
        # this is still accepted -- with clamp source "loop".
        report = self.run_pass(module)
        (acc,) = report.accepted
        assert acc.clamp.source == "loop"

    def test_call_in_chain_rejected_by_default(self):
        module = self._module_with_call(pure=True)
        report = self.run_pass(module)
        assert RejectReason.CONTAINS_CALL in self.reject_reasons(report)

    def test_pure_call_allowed_with_option(self):
        module = self._module_with_call(pure=True)
        report = self.run_pass(module, allow_pure_calls=True)
        assert report.num_prefetches > 0

    def test_impure_call_rejected_even_with_option(self):
        module = self._module_with_call(pure=False)
        report = self.run_pass(module, allow_pure_calls=True)
        assert RejectReason.CONTAINS_CALL in self.reject_reasons(report)

    @staticmethod
    def _module_with_call(pure: bool) -> Module:
        m = Module("m")
        hashfn = m.create_function("h", INT64, [("x", INT64)])
        b = IRBuilder()
        b.set_insert_point(hashfn.add_block("entry"))
        if not pure:
            # A store makes the callee genuinely impure (the side-effect
            # analysis infers purity; it does not trust wishful thinking).
            scratch = b.alloc(INT64, 1, "scratch")
            b.store(hashfn.arg("x"), scratch)
        b.ret(b.mul(hashfn.arg("x"), b.const(2654435761)))

        f = m.create_function(
            "kernel", VOID, [("keys", pointer(INT64)),
                             ("t", pointer(INT64)), ("n", INT64)])
        f.arg("keys").array_size = f.arg("n")
        f.arg("keys").noalias = True
        f.arg("t").array_size = Constant(INT64, 4096)
        f.arg("t").noalias = True
        entry, loop, exit_ = (f.add_block(x) for x in
                              ("entry", "loop", "exit"))
        b.set_insert_point(entry)
        g = b.cmp("sgt", f.arg("n"), b.const(0))
        b.br(g, loop, exit_)
        b.set_insert_point(loop)
        i = b.phi(INT64, "i")
        k = b.load(b.gep(f.arg("keys"), i), "k")
        h = b.call(hashfn, [k], "h")
        masked = b.and_(h, b.const(4095), "masked")
        tv = b.load(b.gep(f.arg("t"), masked), "tv")
        b.store(b.add(tv, b.const(1)), b.gep(f.arg("t"), masked))
        i_next = b.add(i, b.const(1), "i.next")
        c = b.cmp("slt", i_next, f.arg("n"))
        b.br(c, loop, exit_)
        i.add_incoming(b.const(0), entry)
        i.add_incoming(i_next, loop)
        b.set_insert_point(exit_)
        b.ret()
        verify_module(m)
        return m

    def test_conditional_chain_rejected(self):
        # The indirect load sits in a conditionally executed block.
        m = Module("m")
        f = m.create_function(
            "kernel", VOID, [("keys", pointer(INT64)),
                             ("t", pointer(INT64)), ("n", INT64)])
        f.arg("keys").array_size = f.arg("n")
        f.arg("keys").noalias = True
        f.arg("t").array_size = Constant(INT64, 4096)
        f.arg("t").noalias = True
        b = IRBuilder()
        entry, loop, taken, latch, exit_ = (
            f.add_block(x) for x in
            ("entry", "loop", "taken", "latch", "exit"))
        b.set_insert_point(entry)
        g = b.cmp("sgt", f.arg("n"), b.const(0))
        b.br(g, loop, exit_)
        b.set_insert_point(loop)
        i = b.phi(INT64, "i")
        k = b.load(b.gep(f.arg("keys"), i), "k")
        odd = b.cmp("eq", b.and_(k, b.const(1)), b.const(1), "odd")
        b.br(odd, taken, latch)
        b.set_insert_point(taken)
        tv = b.load(b.gep(f.arg("t"), k), "tv")  # conditional indirect
        b.store(b.add(tv, b.const(1)), b.gep(f.arg("t"), k))
        b.jmp(latch)
        b.set_insert_point(latch)
        i_next = b.add(i, b.const(1), "i.next")
        c = b.cmp("slt", i_next, f.arg("n"))
        b.br(c, loop, exit_)
        i.add_incoming(b.const(0), entry)
        i.add_incoming(i_next, latch)
        b.set_insert_point(exit_)
        b.ret()
        verify_module(m)
        report = self.run_pass(m)
        reasons = {r.load.name: r.reason for fr in report.functions
                   for r in fr.rejected}
        assert reasons.get("tv") is RejectReason.VARIANT_CONTROL

    def test_decreasing_iv_loop_bound_rejected(self):
        # Downward loop with unknown sizes: the prototype restriction
        # refuses the loop-bound fallback for decreasing IVs.
        m = Module("m")
        f = m.create_function(
            "kernel", VOID, [("keys", pointer(INT64)),
                             ("t", pointer(INT64)), ("n", INT64)])
        f.arg("keys").noalias = True
        f.arg("t").noalias = True
        b = IRBuilder()
        entry, loop, exit_ = (f.add_block(x) for x in
                              ("entry", "loop", "exit"))
        b.set_insert_point(entry)
        g = b.cmp("sgt", f.arg("n"), b.const(0))
        b.br(g, loop, exit_)
        b.set_insert_point(loop)
        i = b.phi(INT64, "i")
        k = b.load(b.gep(f.arg("keys"), i), "k")
        tv = b.load(b.gep(f.arg("t"), k), "tv")
        b.store(b.add(tv, b.const(1)), b.gep(f.arg("t"), k))
        i_next = b.sub(i, b.const(1), "i.next")
        c = b.cmp("sgt", i_next, b.const(0))
        b.br(c, loop, exit_)
        i.add_incoming(f.arg("n"), entry)
        i.add_incoming(i_next, loop)
        b.set_insert_point(exit_)
        b.ret()
        verify_module(m)
        report = self.run_pass(m)
        assert RejectReason.NO_SAFE_BOUND in self.reject_reasons(report)

    def test_require_canonical_iv_option(self):
        module = build_indirect_kernel()
        report = self.run_pass(module, require_canonical_iv=True)
        assert report.num_prefetches > 0  # kernel IV is canonical


class TestScheduling:
    def test_paper_example_offsets(self):
        # t=2, c=64: stride at 64, indirect at 32 (Fig. 3).
        assert offset_for(0, 2, 64) == 64
        assert offset_for(1, 2, 64) == 32

    def test_four_load_chain(self):
        offsets = [offset_for(l, 4, 16) for l in range(4)]
        assert offsets == [16, 12, 8, 4]

    def test_minimum_offset_is_one(self):
        assert offset_for(3, 4, 2) == 1

    def test_schedule_include_stride(self):
        schedules = schedule_chain(2, 64)
        assert [(s.position, s.offset) for s in schedules] == \
            [(0, 64), (1, 32)]

    def test_schedule_indirect_only(self):
        schedules = schedule_chain(2, 64, include_stride=False)
        assert [(s.position, s.offset) for s in schedules] == [(1, 32)]

    @given(st.integers(1, 8), st.integers(1, 512))
    def test_offsets_monotonically_decrease(self, t, c):
        offsets = [offset_for(l, t, c) for l in range(t)]
        assert all(a >= b for a, b in zip(offsets, offsets[1:]))
        assert all(o >= 1 for o in offsets)

    @given(st.integers(2, 8), st.integers(8, 512))
    def test_spacing_is_roughly_uniform(self, t, c):
        # Consecutive offsets differ by floor-ish c/t.
        offsets = [offset_for(l, t, c) for l in range(t)]
        gaps = [a - b for a, b in zip(offsets, offsets[1:])]
        assert all(abs(g - c // t) <= 1 for g in gaps if
                   offsets[-1] > 1)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            offset_for(2, 2, 64)
        with pytest.raises(ValueError):
            schedule_chain(0, 64)
        with pytest.raises(ValueError):
            schedule_chain(2, 0)


class TestCodegen:
    def test_emitted_structure_matches_fig3(self, indirect_module):
        func = indirect_module.function("kernel")
        IndirectPrefetchPass().run(indirect_module)
        verify_module(indirect_module)
        pf = prefetches_of(func)
        assert len(pf) == 2
        loop = func.block("loop")
        opcodes = [i.opcode for i in loop]
        # Stride prefetch: add, gep, prefetch (no clamp -- prefetches
        # cannot fault).  Indirect prefetch: add, cmp, select, gep,
        # load, gep, prefetch.
        assert opcodes.count("prefetch") == 2
        assert opcodes.count("select") == 1

    def test_clamp_folds_constant_bound(self):
        module = build_indirect_kernel(num_buckets=1024)
        func = module.function("kernel")
        # Rewrite keys annotation to a constant so the clamp bound is
        # statically known.
        func.arg("keys").array_size = Constant(INT64, 5000)
        IndirectPrefetchPass().run(module)
        consts = [i.operand(1).value for i in func.block("loop")
                  if i.opcode == "cmp" and isinstance(i.operand(1),
                                                      Constant)]
        assert 4999 in consts  # 5000 - 1, folded

    def test_prefetch_inserted_before_target_load(self, indirect_module):
        func = indirect_module.function("kernel")
        IndirectPrefetchPass().run(indirect_module)
        loop = func.block("loop").instructions
        target_index = next(i for i, inst in enumerate(loop)
                            if inst.name == "bv")
        prefetch_indices = [i for i, inst in enumerate(loop)
                            if inst.opcode == "prefetch"]
        assert all(i < target_index for i in prefetch_indices)

    def test_emit_stride_prefetch_option(self, indirect_module):
        func = indirect_module.function("kernel")
        IndirectPrefetchPass(
            PrefetchOptions(emit_stride_prefetch=False)).run(
            indirect_module)
        assert len(prefetches_of(func)) == 1

    def test_lookahead_constant_respected(self):
        module = build_indirect_kernel()
        func = module.function("kernel")
        IndirectPrefetchPass(PrefetchOptions(lookahead=128)).run(module)
        adds = [i for i in func.block("loop")
                if i.opcode == "add" and isinstance(i.operand(1),
                                                    Constant)]
        offsets = {i.operand(1).value for i in adds}
        assert {128, 64} <= offsets

    def test_iv_step_scaling(self):
        # IV stepping by 2: look-ahead advance must scale by the step.
        m = Module("m")
        f = m.create_function(
            "kernel", VOID, [("keys", pointer(INT64)),
                             ("t", pointer(INT64)), ("n", INT64)])
        f.arg("keys").array_size = f.arg("n")
        f.arg("keys").noalias = True
        f.arg("t").array_size = Constant(INT64, 4096)
        f.arg("t").noalias = True
        b = IRBuilder()
        entry, loop, exit_ = (f.add_block(x) for x in
                              ("entry", "loop", "exit"))
        b.set_insert_point(entry)
        g = b.cmp("sgt", f.arg("n"), b.const(0))
        b.br(g, loop, exit_)
        b.set_insert_point(loop)
        i = b.phi(INT64, "i")
        k = b.load(b.gep(f.arg("keys"), i), "k")
        tv = b.load(b.gep(f.arg("t"), k), "tv")
        b.store(b.add(tv, b.const(1)), b.gep(f.arg("t"), k))
        i_next = b.add(i, b.const(2), "i.next")
        c = b.cmp("slt", i_next, f.arg("n"))
        b.br(c, loop, exit_)
        i.add_incoming(b.const(0), entry)
        i.add_incoming(i_next, loop)
        b.set_insert_point(exit_)
        b.ret()
        verify_module(m)
        report = IndirectPrefetchPass(
            PrefetchOptions(lookahead=64)).run(m)
        assert report.num_prefetches == 2
        adds = [inst for inst in f.block("loop")
                if inst.opcode == "add" and inst.name.startswith("pf.iv")]
        offsets = sorted(inst.operand(1).value for inst in adds)
        assert offsets == [64, 128]  # 32*2 and 64*2


class TestEndToEndSemantics:
    def _run(self, module, n=500, buckets=1024, seed=0):
        import numpy as np
        rng = np.random.default_rng(seed)
        mem = Memory()
        keys = mem.allocate(8, n, "keys")
        keys.fill(rng.integers(0, buckets, n))
        bucket_alloc = mem.allocate(8, buckets, "buckets")
        interp = Interpreter(module, mem)
        interp.run("kernel", [keys.base, bucket_alloc.base, n])
        return list(bucket_alloc.data)

    def test_prefetch_pass_preserves_semantics(self):
        plain = build_indirect_kernel()
        transformed = build_indirect_kernel()
        report = IndirectPrefetchPass().run(transformed)
        assert report.num_prefetches == 2
        assert self._run(plain) == self._run(transformed)

    @given(st.integers(1, 64), st.integers(2, 300))
    def test_semantics_preserved_for_any_lookahead(self, c, n):
        plain = build_indirect_kernel()
        transformed = build_indirect_kernel()
        IndirectPrefetchPass(PrefetchOptions(lookahead=c)).run(transformed)
        assert self._run(plain, n=n) == self._run(transformed, n=n)

    def test_no_faults_at_loop_edges(self):
        # n == 1 and n == exactly the look-ahead distance: the clamp must
        # keep every duplicated load in bounds.
        for n in (1, 2, 31, 32, 33, 63, 64, 65):
            transformed = build_indirect_kernel()
            IndirectPrefetchPass().run(transformed)
            self._run(transformed, n=n)

    def test_report_summary_readable(self, indirect_module):
        report = IndirectPrefetchPass().run(indirect_module)
        text = report.summary()
        assert "prefetched" in text
        assert "t=2" in text

    def test_subsumed_chains_not_double_prefetched(self):
        # Two indirect loads sharing the same base load: the stride
        # prefetch must be emitted once only.
        m = Module("m")
        f = m.create_function(
            "kernel", VOID, [("keys", pointer(INT64)),
                             ("t", pointer(INT64)),
                             ("u", pointer(INT64)), ("n", INT64)])
        f.arg("keys").array_size = f.arg("n")
        for name in ("keys", "t", "u"):
            f.arg(name).noalias = True
        f.arg("t").array_size = Constant(INT64, 4096)
        f.arg("u").array_size = Constant(INT64, 4096)
        b = IRBuilder()
        entry, loop, exit_ = (f.add_block(x) for x in
                              ("entry", "loop", "exit"))
        b.set_insert_point(entry)
        g = b.cmp("sgt", f.arg("n"), b.const(0))
        b.br(g, loop, exit_)
        b.set_insert_point(loop)
        i = b.phi(INT64, "i")
        k = b.load(b.gep(f.arg("keys"), i), "k")
        tv = b.load(b.gep(f.arg("t"), k), "tv")
        uv = b.load(b.gep(f.arg("u"), k), "uv")
        b.store(b.add(tv, uv), b.gep(f.arg("t"), k))
        i_next = b.add(i, b.const(1), "i.next")
        c = b.cmp("slt", i_next, f.arg("n"))
        b.br(c, loop, exit_)
        i.add_incoming(b.const(0), entry)
        i.add_incoming(i_next, loop)
        b.set_insert_point(exit_)
        b.ret()
        verify_module(m)
        report = IndirectPrefetchPass().run(m)
        pf = prefetches_of(f)
        # Two indirect prefetches (t and u) plus exactly one shared
        # stride prefetch for keys.
        assert len(pf) == 3
