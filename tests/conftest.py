"""Shared test fixtures: small hand-built kernels used across suites."""

from __future__ import annotations

import pytest

from repro.ir import (INT64, IRBuilder, Module, VOID, pointer,
                      verify_module)
from repro.ir.values import Constant
from repro.machine.configs import CacheConfig, MachineConfig

#: Toy machines whose one 1 KiB cache is both L1 and LLC (no L2 TLB):
#: L1 dirty evictions charge DRAM writebacks and hardware-prefetch
#: fills land in the L1.
SIMPLE = MachineConfig(
    name="simple", freq_ghz=1.0, in_order=True, issue_width=1,
    rob_size=0, mshrs=4,
    caches=(CacheConfig(1024, 2, 4),),
    dram_latency=100, dram_cycles_per_line=4.0,
    tlb_entries=16, tlb_walk_latency=20, tlb_max_walks=2,
    tlb_l2_entries=0, page_bits=12)

SIMPLE_OOO = MachineConfig(
    name="simple-ooo", freq_ghz=1.0, in_order=False, issue_width=2,
    rob_size=16, mshrs=4,
    caches=(CacheConfig(1024, 2, 4),),
    dram_latency=100, dram_cycles_per_line=4.0,
    tlb_entries=16, tlb_walk_latency=20, tlb_max_walks=2,
    tlb_l2_entries=0, page_bits=12)


def build_indirect_kernel(num_buckets: int | None = 1024,
                          annotate_sizes: bool = True,
                          noalias: bool = True) -> Module:
    """The canonical stride-indirect kernel ``buckets[keys[i]]++``.

    :param num_buckets: when given, arguments carry Constant array-size
        annotations (NAS-style static arrays); otherwise sizes are
        unknown and the pass must use the loop bound.
    """
    module = Module("indirect")
    func = module.create_function(
        "kernel", VOID,
        [("keys", pointer(INT64)), ("buckets", pointer(INT64)),
         ("n", INT64)])
    keys, buckets, n = func.args
    if annotate_sizes and num_buckets is not None:
        keys.array_size = func.arg("n")
        buckets.array_size = Constant(INT64, num_buckets)
    keys.noalias = noalias
    buckets.noalias = noalias

    b = IRBuilder()
    entry = func.add_block("entry")
    loop = func.add_block("loop")
    exit_ = func.add_block("exit")
    b.set_insert_point(entry)
    guard = b.cmp("sgt", n, b.const(0), "guard")
    b.br(guard, loop, exit_)
    b.set_insert_point(loop)
    i = b.phi(INT64, "i")
    p = b.gep(keys, i, "p")
    k = b.load(p, "k")
    bp = b.gep(buckets, k, "bp")
    bv = b.load(bp, "bv")
    inc = b.add(bv, b.const(1), "inc")
    b.store(inc, bp)
    i_next = b.add(i, b.const(1), "i.next")
    cond = b.cmp("slt", i_next, n, "cond")
    b.br(cond, loop, exit_)
    i.add_incoming(b.const(0), entry)
    i.add_incoming(i_next, loop)
    b.set_insert_point(exit_)
    b.ret()
    verify_module(module)
    return module


def build_diamond_function() -> Module:
    """A function with an if/else diamond (no loops)."""
    module = Module("diamond")
    func = module.create_function("f", INT64, [("x", INT64)])
    b = IRBuilder()
    entry = func.add_block("entry")
    then = func.add_block("then")
    other = func.add_block("other")
    merge = func.add_block("merge")
    b.set_insert_point(entry)
    cond = b.cmp("sgt", func.arg("x"), b.const(0), "c")
    b.br(cond, then, other)
    b.set_insert_point(then)
    doubled = b.mul(func.arg("x"), b.const(2), "doubled")
    b.jmp(merge)
    b.set_insert_point(other)
    negated = b.sub(b.const(0), func.arg("x"), "negated")
    b.jmp(merge)
    b.set_insert_point(merge)
    result = b.phi(INT64, "result")
    result.add_incoming(doubled, then)
    result.add_incoming(negated, other)
    b.ret(result)
    verify_module(module)
    return module


@pytest.fixture
def indirect_module() -> Module:
    """Fresh stride-indirect kernel with annotated sizes."""
    return build_indirect_kernel()


@pytest.fixture
def diamond_module() -> Module:
    """Fresh diamond-CFG function."""
    return build_diamond_function()


@pytest.fixture
def broken_prefetch_pass(monkeypatch):
    """Make ``IndirectPrefetchPass.run`` raise: a stand-in for any
    compiler bug (an exception that is not a frontend error)."""
    from repro.passes import IndirectPrefetchPass

    def boom(self, module):
        raise RuntimeError("injected pass failure")
    monkeypatch.setattr(IndirectPrefetchPass, "run", boom)
