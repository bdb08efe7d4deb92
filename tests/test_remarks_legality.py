"""Every ``RejectReason`` in passes/prefetch/legality.py, with minimal
IR per reason, asserting both the rejection and the emitted
``PrefetchRejected`` remark (satellite of the remarks subsystem)."""

from __future__ import annotations

import pytest

from repro.ir import (Constant, INT64, IRBuilder, Module, VOID, pointer,
                      verify_module)
from repro.obs.sinks import collecting
from repro.passes import (IndirectPrefetchPass, PrefetchOptions,
                          RejectReason)
from repro.remarks import RemarkEmitter
from tests.conftest import build_indirect_kernel


def run_with_remarks(module, **options):
    """Run the prefetch pass collecting remarks; (report, emitter)."""
    emitter = RemarkEmitter()
    with collecting(emitter):
        report = IndirectPrefetchPass(PrefetchOptions(**options)).run(
            module)
    return report, emitter


def rejection_remark(emitter, reason: RejectReason):
    """The first PrefetchRejected remark carrying ``reason``."""
    for remark in emitter.by_name("PrefetchRejected"):
        if remark.arg("reason") == reason.name:
            return remark
    raise AssertionError(
        f"no PrefetchRejected remark with reason={reason.name}; got "
        f"{[r.args for r in emitter.by_name('PrefetchRejected')]}")


def assert_rejected(report, emitter, reason: RejectReason,
                    load_name: str | None = None):
    """The report rejected with ``reason`` AND a matching remark exists."""
    assert reason in {r.reason for r in report.rejected}
    remark = rejection_remark(emitter, reason)
    assert remark.kind == "missed"
    assert remark.pass_name == "indirect-prefetch"
    if load_name is not None:
        assert remark.arg("load") == f"%{load_name}"
    return remark


def new_kernel(module_args):
    """A fresh module + kernel skeleton with the standard arguments."""
    m = Module("m")
    f = m.create_function("kernel", VOID, module_args)
    return m, f


class TestNoInductionVariable:
    def test_loop_invariant_address(self):
        # The DFS finds no IV at all: the load address never touches one.
        m = Module("m")
        f = m.create_function("kernel", VOID,
                              [("p", pointer(INT64)), ("n", INT64)])
        b = IRBuilder()
        entry, loop, exit_ = (f.add_block(x) for x in
                              ("entry", "loop", "exit"))
        b.set_insert_point(entry)
        b.jmp(loop)
        b.set_insert_point(loop)
        i = b.phi(INT64, "i")
        b.load(f.arg("p"), "v")  # invariant address
        i_next = b.add(i, b.const(1), "i.next")
        c = b.cmp("slt", i_next, f.arg("n"))
        b.br(c, loop, exit_)
        i.add_incoming(b.const(0), entry)
        i.add_incoming(i_next, loop)
        b.set_insert_point(exit_)
        b.ret()
        verify_module(m)

        report, emitter = run_with_remarks(m)
        remark = assert_rejected(
            report, emitter, RejectReason.NO_INDUCTION_VARIABLE, "v")
        assert remark.arg("path") == []  # no chain was ever found


class TestNotIndirect:
    def test_pure_stride_load(self, indirect_module):
        report, emitter = run_with_remarks(indirect_module)
        remark = assert_rejected(
            report, emitter, RejectReason.NOT_INDIRECT, "k")
        # The single-load chain WAS walked; its DFS path is reported.
        assert "%k" in remark.arg("path")
        assert remark.arg("detail") == ""


class TestContainsCall:
    @staticmethod
    def _module_with_call() -> Module:
        m = Module("m")
        hashfn = m.create_function("h", INT64, [("x", INT64)])
        b = IRBuilder()
        b.set_insert_point(hashfn.add_block("entry"))
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
        b.load(b.gep(f.arg("t"), masked), "tv")
        i_next = b.add(i, b.const(1), "i.next")
        c = b.cmp("slt", i_next, f.arg("n"))
        b.br(c, loop, exit_)
        i.add_incoming(b.const(0), entry)
        i.add_incoming(i_next, loop)
        b.set_insert_point(exit_)
        b.ret()
        verify_module(m)
        return m

    def test_call_in_chain(self):
        report, emitter = run_with_remarks(self._module_with_call())
        remark = assert_rejected(
            report, emitter, RejectReason.CONTAINS_CALL, "tv")
        assert "call to @h" in remark.arg("detail")
        assert "%h" in remark.arg("path")


class TestNonInductionPhi:
    def test_merged_index_phi(self):
        # The index reaching the target load is a phi merging an in-loop
        # diamond: complex control flow the pass cannot reproduce.
        m = Module("m")
        f = m.create_function(
            "kernel", VOID, [("keys", pointer(INT64)),
                             ("t", pointer(INT64)), ("n", INT64)])
        f.arg("keys").array_size = f.arg("n")
        f.arg("keys").noalias = True
        f.arg("t").array_size = Constant(INT64, 4096)
        f.arg("t").noalias = True
        b = IRBuilder()
        entry, loop, then, merge, exit_ = (
            f.add_block(x) for x in
            ("entry", "loop", "then", "merge", "exit"))
        b.set_insert_point(entry)
        g = b.cmp("sgt", f.arg("n"), b.const(0))
        b.br(g, loop, exit_)
        b.set_insert_point(loop)
        i = b.phi(INT64, "i")
        k = b.load(b.gep(f.arg("keys"), i), "k")
        odd = b.cmp("eq", b.and_(k, b.const(1)), b.const(1), "odd")
        b.br(odd, then, merge)
        b.set_insert_point(then)
        k2 = b.add(k, b.const(1), "k2")
        b.jmp(merge)
        b.set_insert_point(merge)
        j = b.phi(INT64, "j")
        j.add_incoming(k2, then)
        j.add_incoming(k, loop)
        b.load(b.gep(f.arg("t"), j), "tv")
        i_next = b.add(i, b.const(1), "i.next")
        c = b.cmp("slt", i_next, f.arg("n"))
        b.br(c, loop, exit_)
        i.add_incoming(b.const(0), entry)
        i.add_incoming(i_next, merge)
        b.set_insert_point(exit_)
        b.ret()
        verify_module(m)

        report, emitter = run_with_remarks(m)
        remark = assert_rejected(
            report, emitter, RejectReason.NON_INDUCTION_PHI, "tv")
        assert "phi %j" in remark.arg("detail")
        assert "%j" in remark.arg("path")


class TestStoredTo:
    def test_store_may_clobber_lookahead_array(self):
        module = build_indirect_kernel(noalias=False)
        report, emitter = run_with_remarks(module)
        remark = assert_rejected(
            report, emitter, RejectReason.STORED_TO, "bv")
        assert "clobber" in remark.arg("detail")


class TestVariantControl:
    def test_conditional_indirect_load(self):
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
        b.load(b.gep(f.arg("t"), k), "tv")  # conditional indirect
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

        report, emitter = run_with_remarks(m)
        remark = assert_rejected(
            report, emitter, RejectReason.VARIANT_CONTROL, "tv")
        assert "conditional block taken" in remark.arg("detail")


class TestNoSafeBound:
    def test_decreasing_iv_unknown_sizes(self):
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
        b.load(b.gep(f.arg("t"), k), "tv")
        i_next = b.sub(i, b.const(1), "i.next")
        c = b.cmp("sgt", i_next, b.const(0))
        b.br(c, loop, exit_)
        i.add_incoming(f.arg("n"), entry)
        i.add_incoming(i_next, loop)
        b.set_insert_point(exit_)
        b.ret()
        verify_module(m)

        report, emitter = run_with_remarks(m)
        remark = assert_rejected(
            report, emitter, RejectReason.NO_SAFE_BOUND, "tv")
        assert remark.arg("path")  # the chain itself was legal to walk

    def test_non_canonical_iv_with_option(self, indirect_module):
        # require_canonical_iv rejects chains on non-canonical IVs; the
        # conftest kernel's IV is canonical, so retune its step to +2.
        func = indirect_module.function("kernel")
        (update,) = [i for i in func.instructions()
                     if i.name == "i.next"]
        update.set_operand(1, Constant(INT64, 2))
        report, emitter = run_with_remarks(indirect_module,
                                           require_canonical_iv=True)
        remark = assert_rejected(
            report, emitter, RejectReason.NO_SAFE_BOUND, "bv")
        assert "canonical" in remark.arg("detail")


class TestLoopVariantInput:
    def test_chain_reads_excluded_loop_variant_value(self):
        # idx = k + r where r is loaded (in-loop) from an invariant
        # address: the DFS excludes r's sub-path (it reaches no IV), so
        # the chain consumes a loop-variant value from outside itself.
        m = Module("m")
        f = m.create_function(
            "kernel", VOID, [("keys", pointer(INT64)),
                             ("t", pointer(INT64)),
                             ("q", pointer(INT64)), ("n", INT64)])
        f.arg("keys").array_size = f.arg("n")
        for name in ("keys", "t", "q"):
            f.arg(name).noalias = True
        f.arg("t").array_size = Constant(INT64, 4096)
        b = IRBuilder()
        entry, loop, exit_ = (f.add_block(x) for x in
                              ("entry", "loop", "exit"))
        b.set_insert_point(entry)
        g = b.cmp("sgt", f.arg("n"), b.const(0))
        b.br(g, loop, exit_)
        b.set_insert_point(loop)
        i = b.phi(INT64, "i")
        k = b.load(b.gep(f.arg("keys"), i), "k")
        r = b.load(f.arg("q"), "r")
        idx = b.add(k, r, "idx")
        b.load(b.gep(f.arg("t"), idx), "tv")
        i_next = b.add(i, b.const(1), "i.next")
        c = b.cmp("slt", i_next, f.arg("n"))
        b.br(c, loop, exit_)
        i.add_incoming(b.const(0), entry)
        i.add_incoming(i_next, loop)
        b.set_insert_point(exit_)
        b.ret()
        verify_module(m)

        report, emitter = run_with_remarks(m)
        remark = assert_rejected(
            report, emitter, RejectReason.LOOP_VARIANT_INPUT, "tv")
        assert "loop-variant %r" in remark.arg("detail")
        assert "%r" not in remark.arg("path")  # excluded from the chain


class TestEveryReasonCovered:
    def test_enum_is_exhausted_by_this_suite(self):
        # Guard: a new RejectReason must come with a test + remark here.
        covered = {
            RejectReason.NO_INDUCTION_VARIABLE,
            RejectReason.NOT_INDIRECT,
            RejectReason.CONTAINS_CALL,
            RejectReason.NON_INDUCTION_PHI,
            RejectReason.STORED_TO,
            RejectReason.VARIANT_CONTROL,
            RejectReason.NO_SAFE_BOUND,
            RejectReason.LOOP_VARIANT_INPUT,
        }
        assert covered == set(RejectReason)
