"""Unit tests for values, use lists, and instruction constructors."""

import pytest

from repro.ir import (BinOp, Cmp, Constant, GEP, INT1, INT32, INT64,
                      FLOAT64, IRBuilder, Load, Module, Phi, Prefetch,
                      Select, Store, VOID, clone_instruction, pointer)
from repro.ir.basicblock import erase_instructions
from repro.ir.instructions import Alloc, Branch, Call, Cast, Jump, Ret
from repro.ir.values import Argument, UndefValue, const


def make_func(module=None):
    module = module or Module("t")
    func = module.create_function(
        "f", VOID, [("p", pointer(INT64)), ("n", INT64)])
    return func


class TestConstants:
    def test_default_type_int(self):
        assert const(5).type == INT64

    def test_default_type_float(self):
        assert const(2.5).type == FLOAT64

    def test_wrapping_on_construction(self):
        c = Constant(INT32, 2**31)
        assert c.value == -(2**31)

    def test_equality_by_type_and_value(self):
        assert Constant(INT64, 3) == Constant(INT64, 3)
        assert Constant(INT64, 3) != Constant(INT32, 3)
        assert Constant(INT64, 3) != Constant(INT64, 4)

    def test_hashable(self):
        assert len({Constant(INT64, 1), Constant(INT64, 1)}) == 1


class TestUseLists:
    def test_uses_tracked_on_construction(self):
        a = const(1)
        b = const(2)
        add = BinOp("add", a, b)
        assert (add, 0) in a.uses
        assert (add, 1) in b.uses

    def test_replace_all_uses_with(self):
        func = make_func()
        n = func.arg("n")
        add = BinOp("add", n, const(1))
        mul = BinOp("mul", add, add)
        replacement = const(7)
        add.replace_all_uses_with(replacement)
        assert mul.operand(0) is replacement
        assert mul.operand(1) is replacement
        assert not add.uses

    def test_replace_with_self_is_noop(self):
        n = make_func().arg("n")
        add = BinOp("add", n, const(1))
        add.replace_all_uses_with(add)  # must not loop or corrupt
        assert n.users == [add]

    def test_set_operand_updates_uses(self):
        a, b, c = const(1), const(2), const(3)
        add = BinOp("add", a, b)
        add.set_operand(1, c)
        assert (add, 1) in c.uses
        assert (add, 1) not in b.uses

    def test_erase_requires_no_uses(self):
        n = make_func().arg("n")
        add = BinOp("add", n, const(1))
        BinOp("mul", add, add)
        with pytest.raises(ValueError):
            add.erase()

    def test_uses_listed_oldest_first(self):
        n = make_func().arg("n")
        first = BinOp("add", n, const(1))
        second = BinOp("mul", n, n)
        first.set_operand(0, const(5))
        first.set_operand(0, n)  # removed and added again: now newest
        assert n.uses == [(second, 0), (second, 1), (first, 0)]

    def test_erase_instructions_together(self):
        """Uses among the erased instructions may remain; the block
        keeps its other instructions in order."""
        func = make_func()
        block = func.add_block("entry")
        b = IRBuilder()
        b.set_insert_point(block)
        n = func.arg("n")
        add = b.add(n, b.const(1), "add")
        keep = b.add(n, b.const(2), "keep")
        mul = b.mul(add, add, "mul")
        ret = b.ret()
        erase_instructions([add, mul])
        assert list(block) == [keep, ret]
        assert add.parent is None and mul.parent is None
        assert n.users == [keep]

    def test_erase_instructions_requires_no_outside_uses(self):
        func = make_func()
        b = IRBuilder()
        b.set_insert_point(func.add_block("entry"))
        add = b.add(func.arg("n"), b.const(1), "add")
        b.mul(add, add, "mul")
        with pytest.raises(ValueError, match="still has 2 uses"):
            erase_instructions([add])

    def test_drop_all_references(self):
        n = make_func().arg("n")
        add = BinOp("add", n, const(1))
        add.drop_all_references()
        assert not n.uses


class TestInstructionConstructors:
    def test_binop_type_mismatch(self):
        with pytest.raises(TypeError):
            BinOp("add", const(1), Constant(INT32, 1))

    def test_binop_unknown_opcode(self):
        with pytest.raises(ValueError):
            BinOp("frobnicate", const(1), const(2))

    def test_cmp_produces_i1(self):
        assert Cmp("slt", const(1), const(2)).type == INT1

    def test_cmp_bad_predicate(self):
        with pytest.raises(ValueError):
            Cmp("lt", const(1), const(2))

    def test_select_requires_i1_condition(self):
        with pytest.raises(TypeError):
            Select(const(1), const(2), const(3))

    def test_select_arm_types_must_match(self):
        flag = Cmp("eq", const(1), const(1))
        with pytest.raises(TypeError):
            Select(flag, const(2), const(2.0))

    def test_gep_scales_by_pointee(self):
        func = make_func()
        gep = GEP(func.arg("p"), const(3))
        assert gep.type == pointer(INT64)

    def test_gep_requires_pointer_base(self):
        with pytest.raises(TypeError):
            GEP(const(1), const(0))

    def test_gep_requires_int_index(self):
        func = make_func()
        with pytest.raises(TypeError):
            GEP(func.arg("p"), const(1.5))

    def test_load_type_is_pointee(self):
        func = make_func()
        assert Load(func.arg("p")).type == INT64

    def test_store_type_checks(self):
        func = make_func()
        with pytest.raises(TypeError):
            Store(const(1.0), func.arg("p"))

    def test_store_is_void_with_side_effects(self):
        func = make_func()
        store = Store(const(1), func.arg("p"))
        assert store.HAS_SIDE_EFFECTS
        assert str(store.type) == "void"

    def test_prefetch_requires_pointer(self):
        with pytest.raises(TypeError):
            Prefetch(const(1))

    def test_alloc_static_count(self):
        alloc = Alloc(INT64, const(16))
        assert alloc.static_count == 16
        assert alloc.type == pointer(INT64)

    def test_alloc_dynamic_count(self):
        func = make_func()
        assert Alloc(INT64, func.arg("n")).static_count is None

    def test_phi_incoming_type_check(self):
        phi = Phi(INT64)
        from repro.ir.basicblock import BasicBlock
        with pytest.raises(TypeError):
            phi.add_incoming(const(1.0), BasicBlock("bb"))

    def test_phi_incoming_for_block(self):
        from repro.ir.basicblock import BasicBlock
        phi = Phi(INT64)
        b1, b2 = BasicBlock("b1"), BasicBlock("b2")
        phi.add_incoming(const(1), b1)
        phi.add_incoming(const(2), b2)
        assert phi.incoming_for_block(b2).value == 2
        with pytest.raises(KeyError):
            phi.incoming_for_block(BasicBlock("b3"))

    def test_branch_condition_must_be_i1(self):
        from repro.ir.basicblock import BasicBlock
        with pytest.raises(TypeError):
            Branch(const(1), BasicBlock("a"), BasicBlock("b"))

    def test_call_arity_and_types(self):
        module = Module("m")
        callee = module.create_function("g", INT64, [("x", INT64)])
        with pytest.raises(TypeError):
            Call(callee, [])
        with pytest.raises(TypeError):
            Call(callee, [const(1.0)])
        call = Call(callee, [const(1)])
        assert call.type == INT64

    def test_terminator_flags(self):
        from repro.ir.basicblock import BasicBlock
        assert Jump(BasicBlock("x")).IS_TERMINATOR
        assert Ret().IS_TERMINATOR
        assert not BinOp("add", const(1), const(2)).IS_TERMINATOR


class TestClone:
    def test_clone_remaps_operands(self):
        func = make_func()
        n = func.arg("n")
        add = BinOp("add", n, const(1), "a")
        replacement = const(42)
        value_map = {n: replacement}
        copy = clone_instruction(add, value_map)
        assert copy.operand(0) is replacement
        assert copy is not add
        assert value_map[add] is copy  # chained clones see the copy

    def test_clone_chain(self):
        func = make_func()
        gep = GEP(func.arg("p"), const(2), "g")
        load = Load(gep, "l")
        value_map = {}
        gep_copy = clone_instruction(gep, value_map)
        load_copy = clone_instruction(load, value_map)
        assert load_copy.ptr is gep_copy

    def test_clone_preserves_cmp_predicate(self):
        cmp = Cmp("sle", const(1), const(2))
        copy = clone_instruction(cmp, {})
        assert copy.predicate == "sle"

    def test_clone_rejects_phi(self):
        with pytest.raises(TypeError):
            clone_instruction(Phi(INT64), {})

    def test_clone_name_suffix(self):
        add = BinOp("add", const(1), const(2), "x")
        assert clone_instruction(add, {}).name == "x.pf"
