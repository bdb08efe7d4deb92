"""Tests for blocks, functions, modules, builder, verifier, and the
textual printer/parser round trip."""

import re
import sys

import pytest

from repro.frontend import compile_source
from repro.ir import (Constant, INT64, IRBuilder, Module, VOID,
                      VerificationError, parse_function, parse_module,
                      pointer, print_function, print_module,
                      verify_function, verify_module)
from repro.ir.instructions import BinOp
from repro.ir.values import Value
from tests.conftest import build_diamond_function, build_indirect_kernel


def _diamond():
    """The diamond function and its named parts."""
    f = build_diamond_function().function("f")
    parts = {inst.name: inst for inst in f.instructions() if inst.name}
    return f, parts


def _no_blocks():
    return Module("m").create_function("f", VOID)


def _duplicate_block_name():
    f, _ = _diamond()
    f.block("other").name = "then"
    return f


def _block_of_another_function():
    f, _ = _diamond()
    f.block("other").parent = None
    return f


def _instruction_with_wrong_parent():
    f, parts = _diamond()
    parts["negated"].parent = f.block("then")
    return f


def _successor_outside_function():
    m = Module("m")
    g = m.create_function("g", VOID)
    b = IRBuilder()
    b.set_insert_point(g.add_block("away"))
    b.ret()
    f = m.create_function("f", VOID)
    b.set_insert_point(f.add_block("entry"))
    b.jmp(g.block("away"))
    return f


def _duplicate_phi_incoming_block():
    f, parts = _diamond()
    parts["result"].add_incoming(parts["doubled"], f.block("then"))
    return f


def _operand_not_placed():
    f, parts = _diamond()
    floating = BinOp("add", f.arg("x"), Constant(INT64, 1), "floating")
    parts["negated"].set_operand(1, floating)
    return f


def _operand_not_an_instruction():
    f, parts = _diamond()
    parts["negated"].set_operand(1, Value(INT64, "bare"))
    return f


def _phi_incoming_does_not_dominate_predecessor():
    f, parts = _diamond()
    # ``doubled`` is defined in ``then``, not on the path through
    # ``other`` that this incoming value arrives by.
    parts["result"].set_operand(1, parts["doubled"])
    return f


#: ``id: (build, message)``: IR with exactly one violation, and the whole
#: message the verifier raises for it.
SINGLE_VIOLATIONS = {
    "no-blocks": (_no_blocks, "f: function has no blocks"),
    "duplicate-block-name": (_duplicate_block_name,
                             "f: duplicate block name then"),
    "block-of-another-function": (_block_of_another_function,
                                  "f/other: wrong parent function"),
    "instruction-wrong-parent": (
        _instruction_with_wrong_parent,
        "f/other: instruction sub has wrong parent"),
    "successor-outside-function": (
        _successor_outside_function,
        "f/entry: successor away not in function"),
    "duplicate-phi-incoming": (
        _duplicate_phi_incoming_block,
        "f/merge: phi result has duplicate incoming blocks"),
    "operand-not-placed": (
        _operand_not_placed,
        "f: operand floating of sub is not placed in the function"),
    "operand-not-an-instruction": (
        _operand_not_an_instruction,
        "f: operand <Value bare: i64> of sub is not an instruction, "
        "constant, or argument"),
    "phi-incoming-does-not-dominate": (
        _phi_incoming_does_not_dominate_predecessor,
        "f: definition of doubled in then does not dominate use in "
        "other"),
}


def _sequential_ifs(n: int) -> str:
    return ("long f(long a) {\n    long x = 0;\n"
            + "    if (a > 1) x = x + a;\n" * n + "    return x;\n}\n")


class TestBlocksAndFunctions:
    def test_entry_is_first_block(self):
        m = Module("m")
        f = m.create_function("f", VOID)
        a = f.add_block("a")
        f.add_block("b")
        assert f.entry is a

    def test_duplicate_block_names_rejected(self):
        f = Module("m").create_function("f", VOID)
        f.add_block("x")
        with pytest.raises(ValueError):
            f.add_block("x")

    def test_generated_block_names_unique(self):
        f = Module("m").create_function("f", VOID)
        names = {f.add_block().name for _ in range(5)}
        assert len(names) == 5

    def test_append_after_terminator_rejected(self):
        f = Module("m").create_function("f", VOID)
        b = IRBuilder()
        b.set_insert_point(f.add_block("entry"))
        b.ret()
        with pytest.raises(ValueError):
            b.add(b.const(1), b.const(2))

    def test_insert_before_and_after(self):
        f = Module("m").create_function("f", VOID)
        block = f.add_block("entry")
        b = IRBuilder()
        b.set_insert_point(block)
        first = b.add(b.const(1), b.const(2), "first")
        third = b.add(b.const(3), b.const(4), "third")
        from repro.ir.instructions import BinOp
        second = BinOp("add", b.const(5), b.const(6), "second")
        block.insert_after(first, second)
        names = [i.name for i in block]
        assert names == ["first", "second", "third"]

    def test_successors_and_predecessors(self):
        m = build_diamond_function()
        f = m.function("f")
        entry = f.block("entry")
        merge = f.block("merge")
        assert set(s.name for s in entry.successors) == {"then", "other"}
        assert set(p.name for p in merge.predecessors) == {"then", "other"}

    def test_phis_and_first_non_phi(self):
        f = build_diamond_function().function("f")
        merge = f.block("merge")
        assert len(merge.phis) == 1
        assert merge.first_non_phi.opcode == "ret"

    def test_duplicate_function_name_rejected(self):
        m = Module("m")
        m.create_function("f", VOID)
        with pytest.raises(ValueError):
            m.create_function("f", VOID)

    def test_module_lookup(self):
        m = Module("m")
        f = m.create_function("f", VOID)
        assert m.function("f") is f
        assert "f" in m
        with pytest.raises(KeyError):
            m.function("g")

    def test_arg_lookup(self):
        f = Module("m").create_function("f", VOID, [("x", INT64)])
        assert f.arg("x").type == INT64
        with pytest.raises(KeyError):
            f.arg("y")


class TestBuilderInsertionPoint:
    def test_builder_without_block_raises(self):
        with pytest.raises(ValueError):
            _ = IRBuilder().block

    def test_insert_before_position(self):
        f = Module("m").create_function("f", VOID)
        block = f.add_block("entry")
        b = IRBuilder()
        b.set_insert_point(block)
        last = b.add(b.const(1), b.const(1), "last")
        b.set_insert_point(block, before=last)
        b.add(b.const(2), b.const(2), "first")
        assert [i.name for i in block] == ["first", "last"]

    def test_smin_emits_cmp_select(self):
        f = Module("m").create_function("f", VOID, [("n", INT64)])
        b = IRBuilder()
        b.set_insert_point(f.add_block("entry"))
        b.smin(f.arg("n"), b.const(10))
        opcodes = [i.opcode for i in f.entry]
        assert opcodes == ["cmp", "select"]


class TestVerifier:
    def test_valid_module_passes(self, indirect_module):
        verify_module(indirect_module)

    def test_missing_terminator(self):
        f = Module("m").create_function("f", VOID)
        f.add_block("entry")
        with pytest.raises(VerificationError, match="terminator"):
            verify_function(f)

    def test_use_before_def_in_block(self):
        from repro.ir.instructions import BinOp
        f = Module("m").create_function("f", VOID, [("n", INT64)])
        block = f.add_block("entry")
        b = IRBuilder()
        b.set_insert_point(block)
        first = b.add(f.arg("n"), b.const(1), "first")
        b.ret()
        late = BinOp("add", f.arg("n"), b.const(2), "late")
        block.insert_after(first, late)
        first.set_operand(1, late)  # first now uses a later def
        with pytest.raises(VerificationError, match="before definition"):
            verify_function(f)

    def test_def_does_not_dominate_use(self):
        m = build_diamond_function()
        f = m.function("f")
        then_value = next(i for i in f.block("then") if i.name == "doubled")
        other = f.block("other")
        negated = next(i for i in other if i.name == "negated")
        # Make 'other' use a value defined only in 'then'.
        negated.set_operand(1, then_value)
        with pytest.raises(VerificationError, match="dominate"):
            verify_function(f)

    def test_phi_missing_predecessor(self):
        m = build_diamond_function()
        f = m.function("f")
        phi = f.block("merge").phis[0]
        phi.incoming_blocks[1] = f.block("entry")  # corrupt the edge
        with pytest.raises(VerificationError, match="incoming"):
            verify_function(f)

    def test_phi_after_non_phi(self):
        from repro.ir.instructions import Phi
        f = Module("m").create_function("f", VOID)
        block = f.add_block("entry")
        b = IRBuilder()
        b.set_insert_point(block)
        add = b.add(b.const(1), b.const(1))
        b.ret()
        block.insert_after(add, Phi(INT64))
        with pytest.raises(VerificationError, match="phi after non-phi"):
            verify_function(f)

    def test_terminator_mid_block(self):
        from repro.ir.instructions import Jump, Ret
        f = Module("m").create_function("f", VOID)
        block = f.add_block("entry")
        ret = Ret()
        block.append(ret)
        # Force a second instruction after the terminator.
        block._instructions.append(Jump(block))
        block._instructions[-1].parent = block
        with pytest.raises(VerificationError):
            verify_function(f)


    @pytest.mark.parametrize("name", SINGLE_VIOLATIONS)
    def test_single_violation_message(self, name):
        build, message = SINGLE_VIOLATIONS[name]
        with pytest.raises(VerificationError,
                           match=f"^{re.escape(message)}$"):
            verify_function(build())

    def test_cost_grows_linearly_with_function_size(self):
        """Doubling a function at most about doubles the calls one
        verification makes: no predecessor scan per block, no walk up
        the dominator tree per operand.  Unoptimized, every local is an
        ``alloc`` in the entry block that every ``if`` block loads."""
        def calls(n: int) -> int:
            func = compile_source(_sequential_ifs(n),
                                  optimize=False).function("f")
            count = 0

            def profile(frame, event, arg):
                nonlocal count
                if event in ("call", "c_call"):
                    count += 1

            sys.setprofile(profile)
            try:
                verify_function(func)
            finally:
                sys.setprofile(None)
            return count

        small, large = calls(250), calls(500)
        assert large <= 2.3 * small, (small, large)


class TestPrinterParserRoundTrip:
    def test_indirect_kernel_roundtrip(self, indirect_module):
        text = print_module(indirect_module)
        reparsed = parse_module(text)
        verify_module(reparsed)
        assert print_module(reparsed) == text

    def test_diamond_roundtrip(self, diamond_module):
        text = print_module(diamond_module)
        assert print_module(parse_module(text)) == text

    def test_prefetched_kernel_roundtrip(self, indirect_module):
        from repro.passes import IndirectPrefetchPass
        IndirectPrefetchPass().run(indirect_module)
        text = print_module(indirect_module)
        reparsed = parse_module(text)
        verify_module(reparsed)
        assert print_module(reparsed) == text

    def test_forward_reference_in_phi(self):
        text = """
        func @f(%n: i64) -> i64 {
        entry:
          jmp loop
        loop:
          %i = phi i64 [0, entry], [%i.next, loop]
          %i.next = add i64 %i, 1
          %c = cmp slt i64 %i.next, %n
          br %c, loop, exit
        exit:
          ret i64 %i.next
        }
        """
        f = parse_function(text)
        verify_function(f)
        assert len(f.blocks) == 3

    def test_pure_attribute_roundtrip(self):
        text = "func pure @g(%x: i64) -> i64 {\nentry:\n  ret i64 %x\n}"
        f = parse_function(text)
        assert f.pure
        assert "func pure @g" in print_function(f)

    def test_float_constant_roundtrip(self):
        text = """
        func @f() -> f64 {
        entry:
          %x = fadd f64 1.5, 2.25
          ret f64 %x
        }
        """
        f = parse_function(text)
        assert print_function(f).count("1.5") == 1

    def test_call_roundtrip(self):
        text = """
        func @callee(%x: i64) -> i64 {
        entry:
          ret i64 %x
        }

        func @caller() -> i64 {
        entry:
          %r = call @callee(i64 7)
          ret i64 %r
        }
        """
        m = parse_module(text)
        verify_module(m)
        assert print_module(parse_module(print_module(m))) == \
            print_module(m)

    def test_parse_errors(self):
        from repro.ir import ParseError
        with pytest.raises(ParseError):
            parse_module("func @f() -> i64 {\nentry:\n  ret i64 %undefined\n}")
        with pytest.raises(ParseError):
            parse_module("not a function")
        with pytest.raises(ParseError):
            parse_module("func @f() -> void {\nentry:\n  ret")
