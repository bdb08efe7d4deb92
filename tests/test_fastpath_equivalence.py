"""Fast-path vs slow-path engine equivalence.

The fast engine — fused segments, the memory-system hot-line memo and
the trace JIT (``REPRO_SIM_FASTPATH=1``, the default) — must be
*bit-identical* to the
reference per-instruction engine: same cycles, same instruction
counters, same cache/TLB/DRAM statistics, same memory contents.  These
tests drive randomized IR kernels and real workloads through both
engines on all four machine configurations and compare everything.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro.ir import INT64, IRBuilder, Module, VOID, pointer,\
    verify_module
from repro.ir.values import Constant
from repro.machine import A53, A57, HASWELL, XEON_PHI, Interpreter
from repro.machine.fastexec import fastpath_enabled
from repro.machine.memory import Memory

ALL_MACHINES = (HASWELL, A57, A53, XEON_PHI)

#: Binary ops drawn by the random kernel generator (all inline-fused).
_BINOPS = ("add", "sub", "mul", "and_", "or_", "xor", "shl", "ashr",
           "lshr", "smin")
_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ugt")


def build_random_kernel(seed: int, n: int = 512) -> Module:
    """A random loop kernel mixing ALU ops, loads, stores, prefetches.

    The loop walks ``i in [0, n)`` maintaining a pool of live values;
    each iteration applies a random chain of fusable operations with
    random indirect loads of ``a``/``b`` (indices masked into range),
    stores the final value to ``out[i]``, and occasionally prefetches a
    random future address.
    """
    rng = random.Random(seed)
    module = Module(f"random{seed}")
    func = module.create_function(
        "kernel", VOID,
        [("a", pointer(INT64)), ("b", pointer(INT64)),
         ("out", pointer(INT64)), ("n", INT64)])
    a, bptr, out, nval = func.args
    for arg in (a, bptr, out):
        arg.array_size = Constant(INT64, n)
        arg.noalias = True

    b = IRBuilder()
    entry = func.add_block("entry")
    loop = func.add_block("loop")
    exit_ = func.add_block("exit")
    b.set_insert_point(entry)
    b.br(b.cmp("sgt", nval, b.const(0), "guard"), loop, exit_)
    b.set_insert_point(loop)
    i = b.phi(INT64, "i")

    mask = b.const(n - 1)
    pool = [i, b.const(rng.randrange(1, 100))]

    def pick():
        return rng.choice(pool)

    acc = b.load(b.gep(a, b.and_(pick(), mask, "ix"), "ap"), "av")
    pool.append(acc)
    for step in range(rng.randrange(6, 14)):
        kind = rng.random()
        if kind < 0.5:
            op = rng.choice(_BINOPS)
            rhs = b.const(rng.randrange(1, 8)) if op in ("shl", "ashr",
                                                         "lshr") \
                else pick()
            acc = getattr(b, op)(pick(), rhs, f"v{step}")
        elif kind < 0.65:
            cond = b.cmp(rng.choice(_PREDICATES), pick(), pick(),
                         f"c{step}")
            acc = b.select(cond, pick(), pick(), f"s{step}")
        elif kind < 0.85:
            src = rng.choice((a, bptr))
            idx = b.and_(pick(), mask, f"m{step}")
            acc = b.load(b.gep(src, idx, f"p{step}"), f"l{step}")
        else:
            idx = b.and_(b.add(pick(), b.const(rng.randrange(1, 64)),
                               f"f{step}"), mask, f"fm{step}")
            b.prefetch(b.gep(bptr, idx, f"fp{step}"))
            continue
        pool.append(acc)
    b.store(acc, b.gep(out, i, "op"))
    i_next = b.add(i, b.const(1), "i.next")
    b.br(b.cmp("slt", i_next, nval, "cond"), loop, exit_)
    i.add_incoming(b.const(0), entry)
    i.add_incoming(i_next, loop)
    b.set_insert_point(exit_)
    b.ret()
    verify_module(module)
    return module


def run_engine(module: Module, machine, fastpath: bool, seed: int,
               n: int = 512):
    """Run a random kernel under one engine; returns (snapshot, out)."""
    mem = Memory(machine.line_size)
    data = np.random.default_rng(seed).integers(0, 1 << 40, 2 * n)
    a = mem.allocate(8, n, "a")
    a.fill(data[:n])
    barr = mem.allocate(8, n, "b")
    barr_vals = data[n:]
    barr.fill(barr_vals)
    out = mem.allocate(8, n, "out")
    interp = Interpreter(module, mem, machine=machine,
                         fastpath=fastpath)
    interp.run("kernel", [a.base, barr.base, out.base, n])
    return snapshot(interp), list(out.data)


def snapshot(interp: Interpreter) -> dict:
    """Every observable counter of a finished run."""
    return {
        "cycles": interp.core.cycles,
        "core_instructions": interp.core.instructions,
        "run_stats": dataclasses.asdict(interp.stats),
        "memory_system": interp.memory_system.snapshot(),
    }


class TestRandomKernelEquivalence:
    @pytest.mark.parametrize("machine", ALL_MACHINES,
                             ids=lambda m: m.name)
    @pytest.mark.parametrize("seed", range(6))
    def test_identical_on_random_kernels(self, machine, seed):
        module_slow = build_random_kernel(seed)
        module_fast = build_random_kernel(seed)
        slow, out_slow = run_engine(module_slow, machine, False, seed)
        fast, out_fast = run_engine(module_fast, machine, True, seed)
        assert fast == slow
        assert out_fast == out_slow


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("machine", ALL_MACHINES,
                             ids=lambda m: m.name)
    @pytest.mark.parametrize("variant", ("plain", "auto"))
    def test_integer_sort(self, machine, variant):
        from repro.workloads import IntegerSort
        snaps = []
        for fastpath in (False, True):
            wl = IntegerSort(num_keys=2500, num_buckets=1 << 14)
            module = wl.build_variant(variant)
            mem = Memory(machine.line_size)
            prepared = wl.prepare(mem)
            interp = Interpreter(module, mem, machine=machine,
                                 fastpath=fastpath)
            interp.run(wl.entry, prepared.args)
            prepared.validate()
            snaps.append(snapshot(interp))
        assert snaps[0] == snaps[1]

    @pytest.mark.parametrize("machine", (HASWELL, A53),
                             ids=lambda m: m.name)
    def test_hash_join_manual(self, machine):
        from repro.workloads import hj2
        snaps = []
        for fastpath in (False, True):
            wl = hj2(num_probes=2000, num_buckets=1 << 12)
            module = wl.build_variant("manual")
            mem = Memory(machine.line_size)
            prepared = wl.prepare(mem)
            interp = Interpreter(module, mem, machine=machine,
                                 fastpath=fastpath)
            interp.run(wl.entry, prepared.args)
            prepared.validate()
            snaps.append(snapshot(interp))
        assert snaps[0] == snaps[1]


class TestTelemetryEquivalence:
    """Telemetry is observational: attaching a collector must leave
    every timing and architectural counter bit-identical under both
    engines (reference, and fused segments plus the trace JIT), and
    both engines must produce the same telemetry snapshot."""

    @pytest.mark.parametrize("machine", (HASWELL, A53),
                             ids=lambda m: m.name)
    @pytest.mark.parametrize("variant", ("plain", "auto"))
    def test_tier_telemetry_matrix(self, machine, variant):
        from repro.workloads import IntegerSort
        snaps = {}
        tels = {}
        for fastpath in (False, True):
            for telemetry in (False, True):
                wl = IntegerSort(num_keys=2000, num_buckets=1 << 14)
                module = wl.build_variant(variant)
                mem = Memory(machine.line_size)
                prepared = wl.prepare(mem)
                interp = Interpreter(module, mem, machine=machine,
                                     fastpath=fastpath,
                                     telemetry=telemetry)
                result = interp.run(wl.entry, prepared.args)
                prepared.validate()
                if telemetry:
                    assert result.telemetry is not None
                    tels[fastpath] = result.telemetry
                else:
                    assert result.telemetry is None
                snaps[(fastpath, telemetry)] = snapshot(interp)
        base = snaps[(False, False)]
        for combo, snap in snaps.items():
            assert snap == base, f"diverged at {combo}"
        assert tels[True] == tels[False]

    @pytest.mark.parametrize("machine", (HASWELL, XEON_PHI),
                             ids=lambda m: m.name)
    def test_manual_deep_chain_matrix(self, machine):
        from repro.workloads import hj8
        snaps = {}
        tels = {}
        for fastpath in (False, True):
            for telemetry in (False, True):
                wl = hj8(num_probes=1200, num_buckets=1 << 11)
                module = wl.build_variant("manual")
                mem = Memory(machine.line_size)
                prepared = wl.prepare(mem)
                interp = Interpreter(module, mem, machine=machine,
                                     fastpath=fastpath,
                                     telemetry=telemetry)
                result = interp.run(wl.entry, prepared.args)
                prepared.validate()
                if telemetry:
                    tels[fastpath] = result.telemetry
                snaps[(fastpath, telemetry)] = snapshot(interp)
        base = snaps[(False, False)]
        for combo, snap in snaps.items():
            assert snap == base, f"diverged at {combo}"
        assert tels[True] == tels[False]


class TestFastpathFlag:
    def test_env_flag_forces_slow_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_FASTPATH", "0")
        assert fastpath_enabled(None) is False
        interp = Interpreter(build_random_kernel(0), Memory(),
                             machine=HASWELL)
        assert interp.fastpath is False
        assert interp.memory_system.fastpath is False

    def test_env_flag_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_FASTPATH", raising=False)
        assert fastpath_enabled(None) is True

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_FASTPATH", "0")
        assert fastpath_enabled(True) is True
        interp = Interpreter(build_random_kernel(1), Memory(),
                             machine=HASWELL, fastpath=True)
        assert interp.fastpath is True
