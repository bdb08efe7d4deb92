"""Fast-path vs slow-path engine equivalence.

The fast engine — fused segments, the memory-system hot-line memo and
the trace JIT (``SimOptions(fastpath=True)``, the default) — must be
*bit-identical* to the reference per-instruction engine: same cycles,
same instruction counters, same cache/TLB/DRAM statistics, same memory
contents, and with a telemetry collector attached the same telemetry.
These tests drive randomized IR kernels and real workloads through both
engines on all four machine configurations, with telemetry off and on,
and compare everything.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro.ir import INT64, IRBuilder, Module, VOID, pointer,\
    verify_module
from repro.ir.values import Constant
from repro.bench.runner import collecting_traces, run_defaults, run_variant
from repro.envcfg import SimOptions
from repro.machine import A53, A57, HASWELL, XEON_PHI, Interpreter
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
               n: int = 512, telemetry: bool = False):
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
                         fastpath=fastpath, telemetry=telemetry)
    result = interp.run("kernel", [a.base, barr.base, out.base, n])
    return snapshot(interp, result), list(out.data)


def snapshot(interp: Interpreter, result=None) -> dict:
    """Every observable counter of a finished run (and its telemetry,
    given the run's result)."""
    return {
        "cycles": interp.core.cycles,
        "core_instructions": interp.core.instructions,
        "run_stats": dataclasses.asdict(interp.stats),
        "memory_system": interp.memory_system.snapshot(),
        "telemetry": result.telemetry if result else None,
    }


def engine_snapshots(make_workload, variant: str, machine,
                     telemetry: bool) -> list[dict]:
    """A workload variant's snapshot under each engine, reference
    first."""
    snaps = []
    for fastpath in (False, True):
        wl = make_workload()
        module = wl.build_variant(variant)
        mem = Memory(machine.line_size)
        prepared = wl.prepare(mem)
        interp = Interpreter(module, mem, machine=machine,
                             fastpath=fastpath, telemetry=telemetry)
        result = interp.run(wl.entry, prepared.args)
        prepared.validate()
        snaps.append(snapshot(interp, result))
    return snaps


def random_kernel_engines_agree(machine, seed: int,
                                telemetry: bool) -> None:
    slow, out_slow = run_engine(build_random_kernel(seed), machine,
                                False, seed, telemetry=telemetry)
    fast, out_fast = run_engine(build_random_kernel(seed), machine,
                                True, seed, telemetry=telemetry)
    assert fast == slow
    assert out_fast == out_slow


def integer_sort():
    from repro.workloads import IntegerSort
    return IntegerSort(num_keys=2500, num_buckets=1 << 14)


def hash_join():
    from repro.workloads import hj2
    return hj2(num_probes=2000, num_buckets=1 << 12)


# Telemetry on and off are sibling tests, not one more parametrize
# axis, so the telemetry-off test ids stay stable.

class TestRandomKernelEquivalence:
    @pytest.mark.parametrize("machine", ALL_MACHINES,
                             ids=lambda m: m.name)
    @pytest.mark.parametrize("seed", range(6))
    def test_identical_on_random_kernels(self, machine, seed):
        random_kernel_engines_agree(machine, seed, telemetry=False)

    @pytest.mark.parametrize("machine", ALL_MACHINES,
                             ids=lambda m: m.name)
    @pytest.mark.parametrize("seed", range(6))
    def test_identical_with_telemetry(self, machine, seed):
        random_kernel_engines_agree(machine, seed, telemetry=True)


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("machine", ALL_MACHINES,
                             ids=lambda m: m.name)
    @pytest.mark.parametrize("variant", ("plain", "auto"))
    def test_integer_sort(self, machine, variant):
        slow, fast = engine_snapshots(integer_sort, variant, machine,
                                      telemetry=False)
        assert fast == slow

    @pytest.mark.parametrize("machine", ALL_MACHINES,
                             ids=lambda m: m.name)
    @pytest.mark.parametrize("variant", ("plain", "auto"))
    def test_integer_sort_with_telemetry(self, machine, variant):
        slow, fast = engine_snapshots(integer_sort, variant, machine,
                                      telemetry=True)
        assert fast == slow

    @pytest.mark.parametrize("machine", (HASWELL, A53),
                             ids=lambda m: m.name)
    def test_hash_join_manual(self, machine):
        slow, fast = engine_snapshots(hash_join, "manual", machine,
                                      telemetry=False)
        assert fast == slow

    @pytest.mark.parametrize("machine", (HASWELL, A53),
                             ids=lambda m: m.name)
    def test_hash_join_manual_with_telemetry(self, machine):
        slow, fast = engine_snapshots(hash_join, "manual", machine,
                                      telemetry=True)
        assert fast == slow


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


def traced_rows(**kwargs) -> list:
    """Compiled-trace rows of one small run; the reference engine
    compiles none."""
    from repro.workloads import IntegerSort
    with collecting_traces() as rows:
        run_variant(IntegerSort(num_keys=2000, num_buckets=1 << 14),
                    "auto", HASWELL, cache=False, **kwargs)
    return rows


class TestFastpathFlag:
    def test_env_flag_forces_slow_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_FASTPATH", "0")
        sim = SimOptions.from_env()
        assert sim == SimOptions(fastpath=False)
        with run_defaults(sim):
            assert traced_rows() == []
        interp = Interpreter(build_random_kernel(0), Memory(),
                             machine=HASWELL, fastpath=sim.fastpath)
        assert interp.memory_system.fastpath is False

    def test_env_flag_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_FASTPATH", raising=False)
        assert SimOptions.from_env().fastpath is True
        interp = Interpreter(build_random_kernel(1), Memory(),
                             machine=HASWELL)
        assert interp.fastpath is True
        assert traced_rows()

    def test_explicit_argument_wins(self):
        """A run's own ``sim`` beats the scoped default."""
        with run_defaults(SimOptions(fastpath=False)):
            assert traced_rows(sim=SimOptions())
