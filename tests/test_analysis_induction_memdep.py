"""Tests for induction variables, allocation sizes, aliasing, purity."""

import pytest

from repro.analysis import (InductionAnalysis, LoopInfo,
                            SideEffectAnalysis, known_array_bound,
                            loop_may_clobber, may_alias, static_array_bound,
                            stores_in_loop, underlying_object)
from repro.ir import (Constant, INT64, IRBuilder, Load, Module, VOID,
                      pointer, verify_module)
from tests.conftest import build_indirect_kernel


def build_counted_loop(start=0, step=1, predicate="slt", cmp_on_next=True,
                       step_op="add"):
    """A parametrised counted loop for induction-variable testing."""
    m = Module("m")
    f = m.create_function("f", VOID, [("n", INT64)])
    b = IRBuilder()
    entry = f.add_block("entry")
    loop = f.add_block("loop")
    exit_ = f.add_block("exit")
    b.set_insert_point(entry)
    b.jmp(loop)
    b.set_insert_point(loop)
    i = b.phi(INT64, "i")
    i_next = b.binop(step_op, i, b.const(step), "i.next")
    subject = i_next if cmp_on_next else i
    c = b.cmp(predicate, subject, f.arg("n"), "c")
    b.br(c, loop, exit_)
    i.add_incoming(b.const(start), entry)
    i.add_incoming(i_next, loop)
    b.set_insert_point(exit_)
    b.ret()
    verify_module(m)
    return f, i


class TestInductionDetection:
    def test_canonical_iv(self):
        f, phi = build_counted_loop()
        iv = InductionAnalysis(f).iv_for(phi)
        assert iv is not None
        assert iv.step == 1
        assert iv.is_canonical
        assert iv.is_increasing

    def test_nonzero_start_not_canonical(self):
        f, phi = build_counted_loop(start=5)
        iv = InductionAnalysis(f).iv_for(phi)
        assert iv is not None and not iv.is_canonical

    def test_step_two(self):
        f, phi = build_counted_loop(step=2)
        iv = InductionAnalysis(f).iv_for(phi)
        assert iv.step == 2 and not iv.is_canonical

    def test_decreasing_via_sub(self):
        f, phi = build_counted_loop(start=100, step=1, predicate="sgt",
                                    step_op="sub")
        iv = InductionAnalysis(f).iv_for(phi)
        assert iv is not None
        assert iv.step == -1
        assert not iv.is_increasing

    def test_non_constant_step_rejected(self):
        m = Module("m")
        f = m.create_function("f", VOID, [("n", INT64), ("s", INT64)])
        b = IRBuilder()
        entry, loop, exit_ = (f.add_block(x) for x in
                              ("entry", "loop", "exit"))
        b.set_insert_point(entry)
        b.jmp(loop)
        b.set_insert_point(loop)
        i = b.phi(INT64, "i")
        i_next = b.add(i, f.arg("s"), "i.next")  # variable step
        c = b.cmp("slt", i_next, f.arg("n"), "c")
        b.br(c, loop, exit_)
        i.add_incoming(b.const(0), entry)
        i.add_incoming(i_next, loop)
        b.set_insert_point(exit_)
        b.ret()
        assert InductionAnalysis(f).iv_for(i) is None

    def test_accumulator_phi_not_an_iv(self):
        # i = phi; acc = phi [0], [acc + i] -- acc's step is not constant.
        m = Module("m")
        f = m.create_function("f", INT64, [("n", INT64)])
        b = IRBuilder()
        entry, loop, exit_ = (f.add_block(x) for x in
                              ("entry", "loop", "exit"))
        b.set_insert_point(entry)
        b.jmp(loop)
        b.set_insert_point(loop)
        i = b.phi(INT64, "i")
        acc = b.phi(INT64, "acc")
        acc_next = b.add(acc, i, "acc.next")
        i_next = b.add(i, b.const(1), "i.next")
        c = b.cmp("slt", i_next, f.arg("n"), "c")
        b.br(c, loop, exit_)
        i.add_incoming(b.const(0), entry)
        i.add_incoming(i_next, loop)
        acc.add_incoming(b.const(0), entry)
        acc.add_incoming(acc_next, loop)
        b.set_insert_point(exit_)
        b.ret(acc_next)
        analysis = InductionAnalysis(f)
        assert analysis.iv_for(i) is not None
        assert analysis.iv_for(acc) is None
        assert analysis.is_induction_phi(i)
        assert not analysis.is_induction_phi(acc)


class TestBoundDerivation:
    def test_exclusive_bound_on_update(self):
        f, phi = build_counted_loop(predicate="slt", cmp_on_next=True)
        iv = InductionAnalysis(f).iv_for(phi)
        assert iv.bound is not None
        assert not iv.bound.inclusive
        assert iv.bound.value.name == "n"

    def test_exclusive_bound_on_phi(self):
        f, phi = build_counted_loop(predicate="slt", cmp_on_next=False)
        iv = InductionAnalysis(f).iv_for(phi)
        assert iv.bound is not None and not iv.bound.inclusive

    def test_inclusive_bound(self):
        f, phi = build_counted_loop(predicate="sle")
        iv = InductionAnalysis(f).iv_for(phi)
        assert iv.bound is not None and iv.bound.inclusive

    def test_ne_bound_exclusive(self):
        f, phi = build_counted_loop(predicate="ne")
        iv = InductionAnalysis(f).iv_for(phi)
        assert iv.bound is not None and not iv.bound.inclusive

    def test_decreasing_bound(self):
        f, phi = build_counted_loop(start=100, predicate="sgt",
                                    step_op="sub")
        iv = InductionAnalysis(f).iv_for(phi)
        assert iv.bound is not None and not iv.bound.inclusive

    def test_wrong_direction_predicate_gives_no_bound(self):
        # Increasing IV with a 'sgt' continue-condition is nonsense; the
        # analysis must not derive a bound from it.
        f, phi = build_counted_loop(predicate="sgt")
        iv = InductionAnalysis(f).iv_for(phi)
        assert iv.bound is None

    def test_kernel_iv_bound(self, indirect_module):
        f = indirect_module.function("kernel")
        analysis = InductionAnalysis(f)
        (iv,) = analysis.all
        assert iv.bound is not None
        assert iv.bound.value.name == "n"
        assert not iv.bound.inclusive


class TestUnderlyingObjectAndBounds:
    def test_gep_chain(self, indirect_module):
        f = indirect_module.function("kernel")
        loads = [i for i in f.instructions() if isinstance(i, Load)]
        keys_load, bucket_load = loads
        assert underlying_object(keys_load.ptr) is f.arg("keys")
        assert underlying_object(bucket_load.ptr) is f.arg("buckets")

    def test_alloc_bound(self):
        m = Module("m")
        f = m.create_function("f", VOID)
        b = IRBuilder()
        b.set_insert_point(f.add_block("entry"))
        alloc = b.alloc(INT64, 128, "arr")
        gep = b.gep(alloc, 5)
        b.ret()
        bound = known_array_bound(gep)
        assert bound is not None and bound.source == "alloc"
        assert static_array_bound(gep) == 128

    def test_argument_annotation_bound(self, indirect_module):
        f = indirect_module.function("kernel")
        loads = [i for i in f.instructions() if isinstance(i, Load)]
        bound = known_array_bound(loads[0].ptr)
        assert bound is not None and bound.source == "argument"
        assert bound.count is f.arg("n")

    def test_unannotated_argument_has_no_bound(self):
        m = build_indirect_kernel(annotate_sizes=False)
        f = m.function("kernel")
        loads = [i for i in f.instructions() if isinstance(i, Load)]
        assert known_array_bound(loads[0].ptr) is None

    def test_constant_annotation(self):
        m = build_indirect_kernel(num_buckets=512)
        f = m.function("kernel")
        loads = [i for i in f.instructions() if isinstance(i, Load)]
        assert static_array_bound(loads[1].ptr) == 512


class TestAliasing:
    def test_same_object_aliases(self, indirect_module):
        f = indirect_module.function("kernel")
        keys = f.arg("keys")
        assert may_alias(keys, keys)

    def test_distinct_allocs_do_not_alias(self):
        m = Module("m")
        f = m.create_function("f", VOID)
        b = IRBuilder()
        b.set_insert_point(f.add_block("entry"))
        a1 = b.alloc(INT64, 8)
        a2 = b.alloc(INT64, 8)
        b.ret()
        assert not may_alias(a1, a2)

    def test_plain_arguments_alias(self):
        m = build_indirect_kernel(noalias=False)
        f = m.function("kernel")
        assert may_alias(f.arg("keys"), f.arg("buckets"))

    def test_noalias_arguments_do_not_alias(self, indirect_module):
        f = indirect_module.function("kernel")
        assert not may_alias(f.arg("keys"), f.arg("buckets"))

    def test_clobber_detection(self):
        m = build_indirect_kernel(noalias=False)
        f = m.function("kernel")
        info = LoopInfo(f)
        loop = info.loops[0]
        loads = [i for i in f.instructions() if isinstance(i, Load)]
        assert len(stores_in_loop(loop)) == 1
        # Without noalias the store to buckets may clobber the keys load.
        assert loop_may_clobber(loop, loads[0])

    def test_no_clobber_with_noalias(self, indirect_module):
        f = indirect_module.function("kernel")
        loop = LoopInfo(f).loops[0]
        loads = [i for i in f.instructions() if isinstance(i, Load)]
        assert not loop_may_clobber(loop, loads[0])


class TestSideEffects:
    def test_pure_leaf_function(self):
        m = Module("m")
        f = m.create_function("leaf", INT64, [("x", INT64)])
        b = IRBuilder()
        b.set_insert_point(f.add_block("entry"))
        b.ret(b.add(f.arg("x"), b.const(1)))
        assert SideEffectAnalysis(m).is_pure(f)

    def test_store_makes_impure(self, indirect_module):
        analysis = SideEffectAnalysis(indirect_module)
        assert not analysis.is_pure(indirect_module.function("kernel"))

    def test_impurity_propagates_through_calls(self):
        m = build_indirect_kernel()
        impure = m.function("kernel")
        caller = m.create_function("caller", VOID,
                                   [("p", pointer(INT64)),
                                    ("q", pointer(INT64)), ("n", INT64)])
        b = IRBuilder()
        b.set_insert_point(caller.add_block("entry"))
        b.call(impure, [caller.arg("p"), caller.arg("q"),
                        caller.arg("n")])
        b.ret()
        analysis = SideEffectAnalysis(m)
        assert not analysis.is_pure(caller)

    def test_trusted_pure_annotation(self):
        m = Module("m")
        f = m.create_function("blessed", VOID, pure=True)
        b = IRBuilder()
        b.set_insert_point(f.add_block("entry"))
        b.alloc(INT64, 4)  # would normally be an effect
        b.ret()
        assert SideEffectAnalysis(m).is_pure(f)
