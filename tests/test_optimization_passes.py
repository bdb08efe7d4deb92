"""Tests for LICM, CSE, and CFG simplification — including their
interaction with the prefetch pass's emitted code."""

import numpy as np
import pytest

from repro.frontend import compile_source
from repro.ir import (INT64, Load, Module, Prefetch, parse_module,
                      print_module, verify_module)
from repro.machine import Interpreter, Memory
from repro.passes import (CommonSubexpressionEliminationPass,
                          DeadCodeEliminationPass, IndirectPrefetchPass,
                          LoopInvariantCodeMotionPass, PassManager,
                          SimplifyCFGPass)
from tests.conftest import build_indirect_kernel


def run_histogram(module, n=300, buckets=512):
    rng = np.random.default_rng(5)
    mem = Memory()
    keys = mem.allocate(8, n, "keys")
    keys.fill(rng.integers(0, buckets, n))
    out = mem.allocate(8, buckets, "buckets")
    Interpreter(module, mem).run("kernel", [keys.base, out.base, n])
    return list(out.data)


class TestLICM:
    def test_hoists_invariant_arithmetic(self):
        m = parse_module("""
        func @f(%n: i64, %a: i64) -> i64 {
        entry:
          jmp loop
        loop:
          %i = phi i64 [0, entry], [%i.next, loop]
          %inv = mul i64 %a, 3
          %use = add i64 %i, %inv
          %i.next = add i64 %i, 1
          %c = cmp slt i64 %i.next, %n
          br %c, loop, exit
        exit:
          ret i64 %use
        }
        """)
        hoisted = LoopInvariantCodeMotionPass().run(m)
        verify_module(m)
        assert hoisted == 1
        f = m.function("f")
        assert any(i.opcode == "mul" for i in f.block("entry"))
        assert not any(i.opcode == "mul" for i in f.block("loop"))

    def test_does_not_hoist_loads_or_divisions(self):
        m = parse_module("""
        func @f(%p: i64*, %n: i64, %d: i64) -> i64 {
        entry:
          jmp loop
        loop:
          %i = phi i64 [0, entry], [%i.next, loop]
          %v = load i64* %p
          %q = sdiv i64 %n, %d
          %i.next = add i64 %i, 1
          %c = cmp slt i64 %i.next, %n
          br %c, loop, exit
        exit:
          ret i64 %q
        }
        """)
        assert LoopInvariantCodeMotionPass().run(m) == 0

    def test_hoists_prefetch_bound_computation(self):
        # The pass emits "n - 1" clamp bounds in-loop when the bound is
        # an argument; LICM should lift them to the preheader.
        module = build_indirect_kernel()  # keys annotated with %n
        IndirectPrefetchPass().run(module)
        func = module.function("kernel")
        in_loop_before = len(func.block("loop").instructions)
        hoisted = LoopInvariantCodeMotionPass().run(module)
        verify_module(module)
        assert hoisted >= 1
        assert len(func.block("loop").instructions) < in_loop_before

    def test_semantics_preserved(self):
        plain = build_indirect_kernel(num_buckets=512)
        opt = build_indirect_kernel(num_buckets=512)
        IndirectPrefetchPass().run(opt)
        LoopInvariantCodeMotionPass().run(opt)
        verify_module(opt)
        assert run_histogram(plain) == run_histogram(opt)

    def test_nested_invariant_bubbles_out(self):
        m = compile_source("""
        long f(long n, long a) {
            long acc = 0;
            for (long i = 0; i < n; i++)
                for (long j = 0; j < n; j++)
                    acc += a * 7;
            return acc;
        }
        """)
        hoisted = LoopInvariantCodeMotionPass().run(m)
        assert hoisted >= 1
        assert Interpreter(m).run("f", [3, 2]).value == 9 * 14

    def test_output_independent_of_heap_layout(self, tmp_path):
        """One invariant per arm of an if/else: the order they land in
        the preheader must not depend on where the blocks sit in
        memory.  Each process pads its heap differently and compiles
        the kernel several times; every printed IR must be identical."""
        import os
        import subprocess
        import sys
        source = tmp_path / "k.c"
        source.write_text("""
        void kernel(long* restrict out, long* restrict a,
                    long* restrict idx, long s, long t, long n) {
            for (long i = 0; i < n; i++) {
                long v = a[idx[i]];
                if (v > 0) {
                    out[i] = v + (s * 3 + t);
                } else {
                    out[i] = v - (t * 5 - s);
                }
            }
        }
        """)
        script = (
            "import io, sys\n"
            "from repro.cli import main\n"
            "keep = []\n"
            "for k in range(4):\n"
            "    keep.append([object() for _ in range(int(sys.argv[1])"
            " + 7 * k)])\n"
            "    out = io.StringIO()\n"
            "    main(['compile', '--prefetch', '-O', sys.argv[2]], out)\n"
            "    print(out.getvalue(), end='\\0')\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")]))
        texts = []
        for pad in (0, 3, 11, 29):
            proc = subprocess.run(
                [sys.executable, "-c", script, str(pad), str(source)],
                capture_output=True, text=True, env=env, check=True)
            texts.extend(proc.stdout.split("\0")[:-1])
        assert len(texts) == 16
        assert "prefetch" in texts[0]
        assert len(set(texts)) == 1


class TestCSE:
    def test_removes_duplicate_expression(self):
        m = parse_module("""
        func @f(%a: i64, %b: i64) -> i64 {
        entry:
          %x = add i64 %a, %b
          %y = add i64 %a, %b
          %z = add i64 %x, %y
          ret i64 %z
        }
        """)
        removed = CommonSubexpressionEliminationPass().run(m)
        verify_module(m)
        assert removed == 1

    def test_commutative_matching(self):
        m = parse_module("""
        func @f(%a: i64, %b: i64) -> i64 {
        entry:
          %x = add i64 %a, %b
          %y = add i64 %b, %a
          %z = sub i64 %x, %y
          ret i64 %z
        }
        """)
        assert CommonSubexpressionEliminationPass().run(m) == 1

    def test_non_commutative_not_swapped(self):
        m = parse_module("""
        func @f(%a: i64, %b: i64) -> i64 {
        entry:
          %x = sub i64 %a, %b
          %y = sub i64 %b, %a
          %z = add i64 %x, %y
          ret i64 %z
        }
        """)
        assert CommonSubexpressionEliminationPass().run(m) == 0

    def test_dominance_scoped(self):
        # The same expression in two sibling branches must NOT be merged
        # (neither dominates the other).
        m = parse_module("""
        func @f(%a: i64, %p: i1) -> i64 {
        entry:
          br %p, left, right
        left:
          %x = mul i64 %a, 5
          jmp merge
        right:
          %y = mul i64 %a, 5
          jmp merge
        merge:
          %r = phi i64 [%x, left], [%y, right]
          ret i64 %r
        }
        """)
        assert CommonSubexpressionEliminationPass().run(m) == 0

    def test_dominating_def_reused_in_loop(self):
        m = parse_module("""
        func @f(%a: i64, %n: i64) -> i64 {
        entry:
          %x = mul i64 %a, 3
          jmp loop
        loop:
          %i = phi i64 [0, entry], [%i.next, loop]
          %y = mul i64 %a, 3
          %i.next = add i64 %i, %y
          %c = cmp slt i64 %i.next, %n
          br %c, loop, exit
        exit:
          ret i64 %x
        }
        """)
        assert CommonSubexpressionEliminationPass().run(m) == 1

    def test_loads_never_merged(self):
        m = parse_module("""
        func @f(%p: i64*) -> i64 {
        entry:
          %a = load i64* %p
          store i64 99, %p
          %b = load i64* %p
          %c = sub i64 %b, %a
          ret i64 %c
        }
        """)
        assert CommonSubexpressionEliminationPass().run(m) == 0

    def test_cleans_prefetch_duplication(self):
        # HJ-2's three bucket chains duplicate the hash computation; CSE
        # collapses the copies without changing results.
        from repro.workloads import hj2
        wl = hj2(num_probes=400, num_buckets=1 << 8)
        module = wl.build()
        IndirectPrefetchPass().run(module)
        before = sum(1 for _ in module.function("kernel").instructions())
        removed = CommonSubexpressionEliminationPass().run(module)
        verify_module(module)
        assert removed > 0
        mem = Memory()
        prepared = wl.prepare(mem)
        Interpreter(module, mem).run("kernel", prepared.args)
        prepared.validate()


class TestSimplifyCFG:
    def test_merges_linear_chain(self):
        m = compile_source("long f(long x) { return x + 1; }",
                           optimize=True)
        f = m.function("f")
        before = len(f.blocks)
        removed = SimplifyCFGPass().run(m)
        verify_module(m)
        assert removed >= 1
        assert len(f.blocks) < before
        assert Interpreter(m).run("f", [4]).value == 5

    def test_removes_unreachable_block(self):
        m = parse_module("""
        func @f() -> i64 {
        entry:
          ret i64 1
        dead:
          %x = add i64 2, 3
          ret i64 %x
        }
        """)
        removed = SimplifyCFGPass().run(m)
        verify_module(m)
        assert removed == 1
        assert len(m.function("f").blocks) == 1

    def test_forwarding_block_bypassed(self):
        m = parse_module("""
        func @f(%p: i1) -> i64 {
        entry:
          br %p, fwd, other
        fwd:
          jmp join
        other:
          jmp join
        join:
          %r = phi i64 [1, fwd], [2, other]
          ret i64 %r
        }
        """)
        SimplifyCFGPass().run(m)
        verify_module(m)
        f = m.function("f")
        names = {b.name for b in f.blocks}
        assert "fwd" not in names
        # Behaviour unchanged.
        assert Interpreter(m).run("f", [1]).value == 1
        assert Interpreter(m).run("f", [0]).value == 2

    def test_loop_structure_survives(self):
        plain = build_indirect_kernel(num_buckets=512)
        opt = build_indirect_kernel(num_buckets=512)
        SimplifyCFGPass().run(opt)
        verify_module(opt)
        assert run_histogram(plain) == run_histogram(opt)

    def test_frontend_loops_still_prefetchable_after_simplify(self):
        src = """
        void kernel(long* restrict keys, long* restrict buckets, long n) {
            for (long i = 0; i < n; i++)
                buckets[keys[i]] += 1;
        }
        """
        m = compile_source(src)
        SimplifyCFGPass().run(m)
        verify_module(m)
        report = IndirectPrefetchPass().run(m)
        assert report.num_prefetches == 2
        assert run_histogram(m) == run_histogram(compile_source(src))


class TestFullPipeline:
    def test_o2_style_pipeline(self):
        """mem2reg -> simplifycfg -> prefetch -> licm -> cse -> dce,
        verified between every pass, semantics intact."""
        src = """
        void kernel(long* restrict keys, long* restrict buckets, long n) {
            for (long i = 0; i < n; i++) {
                long k = keys[i];
                long h = k * 40503;
                buckets[h & 511] += 1;
            }
        }
        """
        reference = compile_source(src)
        module = compile_source(src)
        pm = PassManager()
        pm.add(SimplifyCFGPass())
        pm.add(IndirectPrefetchPass())
        pm.add(LoopInvariantCodeMotionPass())
        pm.add(CommonSubexpressionEliminationPass())
        pm.add(DeadCodeEliminationPass())
        reports = pm.run(module)
        assert reports["indirect-prefetch"].num_prefetches == 2
        assert run_histogram(module) == run_histogram(reference)
