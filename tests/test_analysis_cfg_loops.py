"""Tests for CFG analyses (dominators, frontiers) and loop detection."""

import pytest

from repro.analysis import (LoopInfo, dominance_frontiers, dominates,
                            dominators, predecessor_map, reverse_postorder)
from repro.ir import INT64, IRBuilder, Module, VOID
from tests.conftest import build_diamond_function, build_indirect_kernel


def build_nested_loops() -> Module:
    """for i in 0..n: for j in 0..m: body — two nested counted loops."""
    m = Module("nest")
    f = m.create_function("f", VOID, [("n", INT64), ("m", INT64)])
    b = IRBuilder()
    entry = f.add_block("entry")
    outer = f.add_block("outer")
    inner = f.add_block("inner")
    outer_latch = f.add_block("outer.latch")
    exit_ = f.add_block("exit")
    b.set_insert_point(entry)
    g = b.cmp("sgt", f.arg("n"), b.const(0), "g")
    b.br(g, outer, exit_)
    b.set_insert_point(outer)
    i = b.phi(INT64, "i")
    g2 = b.cmp("sgt", f.arg("m"), b.const(0), "g2")
    b.br(g2, inner, outer_latch)
    b.set_insert_point(inner)
    j = b.phi(INT64, "j")
    j_next = b.add(j, b.const(1), "j.next")
    jc = b.cmp("slt", j_next, f.arg("m"), "jc")
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
    from repro.ir import verify_module
    verify_module(m)
    return m


class TestOrderings:
    def test_rpo_starts_at_entry(self, diamond_module):
        f = diamond_module.function("f")
        rpo = reverse_postorder(f)
        assert rpo[0] is f.entry
        assert rpo[-1].name == "merge"

    def test_rpo_covers_only_reachable(self):
        m = Module("m")
        f = m.create_function("f", VOID)
        b = IRBuilder()
        b.set_insert_point(f.add_block("entry"))
        b.ret()
        dead = f.add_block("dead")
        b.set_insert_point(dead)
        b.ret()
        assert dead not in reverse_postorder(f)

    def test_predecessor_map(self, diamond_module):
        f = diamond_module.function("f")
        preds = predecessor_map(f)
        assert preds[f.block("entry")] == []
        assert len(preds[f.block("merge")]) == 2


class TestDominators:
    def test_entry_has_no_idom(self, diamond_module):
        f = diamond_module.function("f")
        assert dominators(f)[f.entry] is None

    def test_diamond_idoms(self, diamond_module):
        f = diamond_module.function("f")
        idom = dominators(f)
        assert idom[f.block("then")] is f.block("entry")
        assert idom[f.block("other")] is f.block("entry")
        assert idom[f.block("merge")] is f.block("entry")

    def test_loop_idoms(self, indirect_module):
        f = indirect_module.function("kernel")
        idom = dominators(f)
        assert idom[f.block("loop")] is f.block("entry")
        assert idom[f.block("exit")] is f.block("entry")

    def test_dominates_reflexive_and_entry(self, diamond_module):
        f = diamond_module.function("f")
        idom = dominators(f)
        merge = f.block("merge")
        assert dominates(merge, merge, idom)
        assert dominates(f.entry, merge, idom)
        assert not dominates(f.block("then"), merge, idom)

    def test_nested_loop_dominators(self):
        f = build_nested_loops().function("f")
        idom = dominators(f)
        assert idom[f.block("inner")] is f.block("outer")
        assert dominates(f.block("outer"), f.block("outer.latch"), idom)


class TestDominanceFrontiers:
    def test_diamond_frontier(self, diamond_module):
        f = diamond_module.function("f")
        frontiers = dominance_frontiers(f)
        merge = f.block("merge")
        assert frontiers[f.block("then")] == {merge}
        assert frontiers[f.block("other")] == {merge}
        assert frontiers[merge] == set()

    def test_loop_header_in_own_frontier(self, indirect_module):
        f = indirect_module.function("kernel")
        frontiers = dominance_frontiers(f)
        loop = f.block("loop")
        assert loop in frontiers[loop]


class TestLoopInfo:
    def test_single_loop(self, indirect_module):
        f = indirect_module.function("kernel")
        info = LoopInfo(f)
        assert len(info.loops) == 1
        loop = info.loops[0]
        assert loop.header.name == "loop"
        assert loop.depth == 1
        assert loop.latches == [f.block("loop")]

    def test_preheader_and_exits(self, indirect_module):
        f = indirect_module.function("kernel")
        loop = LoopInfo(f).loops[0]
        assert loop.preheader.name == "entry"
        assert [b.name for b in loop.exit_blocks] == ["exit"]
        assert loop.single_exit_condition is not None

    def test_nested_loops_forest(self):
        f = build_nested_loops().function("f")
        info = LoopInfo(f)
        assert len(info.loops) == 2
        outer = next(l for l in info.loops if l.header.name == "outer")
        inner = next(l for l in info.loops if l.header.name == "inner")
        assert inner.parent is outer
        assert inner.depth == 2
        assert outer.children == [inner]
        assert inner.blocks < outer.blocks

    def test_loop_of_block_is_innermost(self):
        f = build_nested_loops().function("f")
        info = LoopInfo(f)
        assert info.loop_of_block(f.block("inner")).header.name == "inner"
        assert info.loop_of_block(f.block("outer")).header.name == "outer"
        assert info.loop_of_block(f.block("entry")) is None

    def test_loop_of_instruction(self):
        f = build_nested_loops().function("f")
        info = LoopInfo(f)
        j_phi = f.block("inner").phis[0]
        assert info.loop_of(j_phi).header.name == "inner"
        assert info.in_any_loop(j_phi)

    def test_no_loops_in_diamond(self, diamond_module):
        info = LoopInfo(diamond_module.function("f"))
        assert info.loops == []

    def test_multi_block_loop_body(self):
        # Loop whose body spans two blocks (condition in one, latch in
        # another).
        m = Module("m")
        f = m.create_function("f", VOID, [("n", INT64)])
        b = IRBuilder()
        entry = f.add_block("entry")
        header = f.add_block("header")
        body = f.add_block("body")
        exit_ = f.add_block("exit")
        b.set_insert_point(entry)
        b.jmp(header)
        b.set_insert_point(header)
        i = b.phi(INT64, "i")
        c = b.cmp("slt", i, f.arg("n"), "c")
        b.br(c, body, exit_)
        b.set_insert_point(body)
        i_next = b.add(i, b.const(1), "i.next")
        b.jmp(header)
        i.add_incoming(b.const(0), entry)
        i.add_incoming(i_next, body)
        b.set_insert_point(exit_)
        b.ret()
        info = LoopInfo(f)
        assert len(info.loops) == 1
        loop = info.loops[0]
        assert {blk.name for blk in loop.blocks} == {"header", "body"}
        assert loop.exiting_blocks == [header]
