"""Fast-path vs slow-path engine equivalence.

The fast engine — the reference dispatch loop plus the trace JIT,
whose traces serve L1 hits with an inlined probe of the L1 set
(``SimOptions(fastpath=True)``, the default) — must be *bit-identical*
to the reference per-instruction engine: same cycles, same instruction
counters, same cache/TLB/DRAM statistics, same memory contents, and
with a telemetry collector attached the same telemetry.
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
from repro.bench.runner import TraceRows, run_defaults, run_variant
from repro.envcfg import SimOptions
from repro.machine import A53, A57, HASWELL, XEON_PHI, Interpreter
from repro.machine.memory import Memory, MemoryFault
from repro.obs.sinks import collecting
from tests.conftest import SIMPLE, SIMPLE_OOO, build_indirect_kernel

ALL_MACHINES = (HASWELL, A57, A53, XEON_PHI)
#: The four paper machines plus two one-level hierarchies.
EQUIVALENCE_MACHINES = ALL_MACHINES + (SIMPLE, SIMPLE_OOO)

#: Binary ops drawn by the random kernel generator (all inlined in
#: traces).
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
    acc = b.load(b.gep(a, b.and_(rng.choice(pool), mask, "ix"), "ap"),
                 "av")
    pool.append(acc)
    acc = random_ops(b, rng, pool, (a, bptr), mask,
                     rng.randrange(6, 14), acc)
    b.store(acc, b.gep(out, i, "op"))
    i_next = b.add(i, b.const(1), "i.next")
    b.br(b.cmp("slt", i_next, nval, "cond"), loop, exit_)
    i.add_incoming(b.const(0), entry)
    i.add_incoming(i_next, loop)
    b.set_insert_point(exit_)
    b.ret()
    verify_module(module)
    return module


def random_ops(b: IRBuilder, rng: random.Random, pool: list,
               arrays: tuple, mask, steps: int, acc, tag: str = ""):
    """Append ``steps`` random fusable ops at the builder's insert
    point — ALU chains, selects, loads of ``arrays`` (indices masked
    into range), prefetches of a future address — drawing operands from
    ``pool`` and adding each result to it; returns the last result
    (``acc`` if every step was a prefetch)."""
    a, bptr = arrays

    def pick():
        return rng.choice(pool)

    for step in range(steps):
        kind = rng.random()
        if kind < 0.5:
            op = rng.choice(_BINOPS)
            rhs = b.const(rng.randrange(1, 8)) if op in ("shl", "ashr",
                                                         "lshr") \
                else pick()
            acc = getattr(b, op)(pick(), rhs, f"{tag}v{step}")
        elif kind < 0.65:
            cond = b.cmp(rng.choice(_PREDICATES), pick(), pick(),
                         f"{tag}c{step}")
            acc = b.select(cond, pick(), pick(), f"{tag}s{step}")
        elif kind < 0.85:
            src = rng.choice((a, bptr))
            idx = b.and_(pick(), mask, f"{tag}m{step}")
            acc = b.load(b.gep(src, idx, f"{tag}p{step}"), f"{tag}l{step}")
        else:
            idx = b.and_(b.add(pick(), b.const(rng.randrange(1, 64)),
                               f"{tag}f{step}"), mask, f"{tag}fm{step}")
            b.prefetch(b.gep(bptr, idx, f"{tag}fp{step}"))
            continue
        pool.append(acc)
    return acc


def build_branchy_kernel(seed: int, n: int = 512) -> Module:
    """A random loop kernel whose body branches on loaded data.

    Each iteration of ``i in [0, n)`` runs random op chains (see
    :func:`random_ops`) in every block of: an if-then arm, an
    if-then-else, a multi-block inner loop of ``0..3`` or ``0..7``
    trips (taken from the data) with an if-then arm of its own, a rare
    data-dependent early exit from the loop, and a data-dependent
    ``continue`` (a second back edge) that skips the store of one value
    to ``out[i]``.  The seed also picks which edge of each branch is
    the "then" edge.
    """
    rng = random.Random(seed)
    module = Module(f"branchy{seed}")
    func = module.create_function(
        "kernel", VOID,
        [("a", pointer(INT64)), ("b", pointer(INT64)),
         ("out", pointer(INT64)), ("n", INT64)])
    a, bptr, out, nval = func.args
    for arg in (a, bptr, out):
        arg.array_size = Constant(INT64, n)
        arg.noalias = True
    arrays = (a, bptr)

    b = IRBuilder()
    blocks = {name: func.add_block(name) for name in (
        "entry", "loop", "then1", "join1", "then2", "else2", "join2",
        "inner", "iarm", "ilatch", "after", "skip", "latch", "exit")}

    def at(name):
        b.set_insert_point(blocks[name])

    def branch(cond, first, second):
        """``br cond`` with the seed choosing which edge is "then"."""
        if rng.random() < 0.5:
            first, second = second, first
        b.br(cond, blocks[first], blocks[second])

    def test(pool, tag):
        return b.cmp(rng.choice(_PREDICATES), rng.choice(pool),
                     rng.choice(pool), tag)

    def chain(pool, acc, tag):
        return random_ops(b, rng, pool, arrays, mask, rng.randrange(2, 6),
                          acc, tag)

    at("entry")
    b.br(b.cmp("sgt", nval, b.const(0), "guard"), blocks["loop"],
         blocks["exit"])

    at("loop")
    i = b.phi(INT64, "i")
    mask = b.const(n - 1)
    head = b.load(b.gep(a, b.and_(i, mask, "ix"), "ap"), "av")
    pool = [i, b.const(rng.randrange(1, 100)), head]
    head = chain(pool, head, "h.")
    branch(test(pool, "c1"), "then1", "join1")

    at("then1")
    x1 = chain(list(pool), head, "t1.")
    b.jmp(blocks["join1"])

    at("join1")
    m1 = b.phi(INT64, "m1")
    m1.add_incoming(head, blocks["loop"])
    m1.add_incoming(x1, blocks["then1"])
    pool.append(m1)
    branch(test(pool, "c2"), "then2", "else2")

    at("then2")
    x2 = chain(list(pool), m1, "t2.")
    b.jmp(blocks["join2"])

    at("else2")
    y2 = chain(list(pool), m1, "e2.")
    b.jmp(blocks["join2"])

    at("join2")
    m2 = b.phi(INT64, "m2")
    m2.add_incoming(x2, blocks["then2"])
    m2.add_incoming(y2, blocks["else2"])
    pool.append(m2)
    trips = b.and_(m2, b.const(rng.choice((3, 7))), "trips")
    b.br(b.cmp("sgt", trips, b.const(0), "enter"), blocks["inner"],
         blocks["after"])

    at("inner")
    j = b.phi(INT64, "j")
    s = b.phi(INT64, "s")
    ipool = pool + [j, s]
    w = b.load(b.gep(bptr, b.and_(b.add(s, j, "sj"), mask, "jx"), "bp"),
               "w")
    ipool.append(w)
    w = chain(ipool, w, "in.")
    branch(test(ipool, "c3"), "iarm", "ilatch")

    at("iarm")
    xa = chain(list(ipool), w, "ia.")
    b.jmp(blocks["ilatch"])

    at("ilatch")
    s2 = b.phi(INT64, "s2")
    s2.add_incoming(w, blocks["inner"])
    s2.add_incoming(xa, blocks["iarm"])
    j2 = b.add(j, b.const(1), "j2")
    b.br(b.cmp("slt", j2, trips, "more"), blocks["inner"], blocks["after"])
    j.add_incoming(b.const(0), blocks["join2"])
    j.add_incoming(j2, blocks["ilatch"])
    s.add_incoming(m2, blocks["join2"])
    s.add_incoming(s2, blocks["ilatch"])

    at("after")
    r = b.phi(INT64, "r")
    r.add_incoming(m2, blocks["join2"])
    r.add_incoming(s2, blocks["ilatch"])
    pool.append(r)
    r2 = chain(pool, r, "af.")
    emask = rng.choice((255, 1023))
    early = b.cmp("eq", b.and_(r2, b.const(emask), "em"),
                  b.const(rng.randrange(emask + 1)), "early")
    b.br(early, blocks["exit"], blocks["skip"])

    at("skip")
    i_skip = b.add(i, b.const(1), "i.skip")
    cmask = rng.choice((1, 3))
    room = b.cmp("slt", i_skip, nval, "room")
    key = b.cmp("eq", b.and_(r2, b.const(cmask), "cm"),
                b.const(rng.randrange(cmask + 1)), "key")
    skip = b.select(room, key, room, "skip")
    b.br(skip, blocks["loop"], blocks["latch"])

    at("latch")
    b.store(r2, b.gep(out, i, "op"))
    i_next = b.add(i, b.const(1), "i.next")
    b.br(b.cmp("slt", i_next, nval, "cond"), blocks["loop"],
         blocks["exit"])
    i.add_incoming(b.const(0), blocks["entry"])
    i.add_incoming(i_skip, blocks["skip"])
    i.add_incoming(i_next, blocks["latch"])

    at("exit")
    b.ret()
    verify_module(module)
    return module


def build_offset_kernel(store: bool) -> Module:
    """``data`` addressed at a byte offset: iteration ``i`` loads the
    element at ``data + offsets[i]`` and stores it back plus one, or
    with ``store`` only stores ``i`` there (so a bad offset faults on
    the store)."""
    module = Module("offsets")
    func = module.create_function(
        "kernel", VOID,
        [("offsets", pointer(INT64)), ("data", pointer(INT64)),
         ("n", INT64)])
    offsets, data, nval = func.args
    b = IRBuilder()
    entry = func.add_block("entry")
    loop = func.add_block("loop")
    exit_ = func.add_block("exit")
    b.set_insert_point(entry)
    base = b.cast("ptrtoint", data, INT64, "base")
    b.br(b.cmp("sgt", nval, b.const(0), "guard"), loop, exit_)
    b.set_insert_point(loop)
    i = b.phi(INT64, "i")
    offset = b.load(b.gep(offsets, i, "op"), "offset")
    ptr = b.cast("inttoptr", b.add(base, offset, "addr"), pointer(INT64),
                 "ptr")
    if store:
        b.store(i, ptr)
    else:
        b.store(b.add(b.load(ptr, "v"), b.const(1), "v1"), ptr)
    i_next = b.add(i, b.const(1), "i.next")
    b.br(b.cmp("slt", i_next, nval, "cond"), loop, exit_)
    i.add_incoming(b.const(0), entry)
    i.add_incoming(i_next, loop)
    b.set_insert_point(exit_)
    b.ret()
    verify_module(module)
    return module


def run_engine(module: Module, machine, fastpath: bool, seed: int,
               n: int = 512, telemetry: bool = False,
               yield_every: int = 0):
    """Run a random kernel under one engine; returns (snapshot, out).
    With ``yield_every`` the run is stepped, and the snapshot also holds
    the core times it yielded."""
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
    args = [a.base, barr.base, out.base, n]
    if yield_every:
        times = list(interp.run_stepped("kernel", args,
                                        yield_every=yield_every))
        return dict(snapshot(interp), yields=times), list(out.data)
    result = interp.run("kernel", args)
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


def graph500():
    from repro.workloads import Graph500
    return Graph500(scale=8, edge_factor=6)


# Telemetry on and off are sibling tests, not one more parametrize
# axis, so the telemetry-off test ids stay stable.

class TestRandomKernelEquivalence:
    @pytest.mark.parametrize("machine", EQUIVALENCE_MACHINES,
                             ids=lambda m: m.name)
    @pytest.mark.parametrize("seed", range(6))
    def test_identical_on_random_kernels(self, machine, seed):
        random_kernel_engines_agree(machine, seed, telemetry=False)

    @pytest.mark.parametrize("machine", EQUIVALENCE_MACHINES,
                             ids=lambda m: m.name)
    @pytest.mark.parametrize("seed", range(6))
    def test_identical_with_telemetry(self, machine, seed):
        random_kernel_engines_agree(machine, seed, telemetry=True)


class TestBranchyKernelEquivalence:
    """Loop bodies with data-dependent arms, a data-dependent inner
    loop and an early exit: the shapes the trace JIT compiles to
    in-trace ``if``/``else`` and nested ``while`` statements."""

    @pytest.mark.parametrize("machine", EQUIVALENCE_MACHINES,
                             ids=lambda m: m.name)
    @pytest.mark.parametrize("seed", range(6))
    def test_identical_on_branchy_kernels(self, machine, seed):
        slow, out_slow = run_engine(build_branchy_kernel(seed), machine,
                                    False, seed)
        fast, out_fast = run_engine(build_branchy_kernel(seed), machine,
                                    True, seed)
        assert fast == slow
        assert out_fast == out_slow

    @pytest.mark.parametrize("machine", (HASWELL, A53, SIMPLE_OOO),
                             ids=lambda m: m.name)
    @pytest.mark.parametrize("yield_every", (7, 61))
    @pytest.mark.parametrize("seed", range(4))
    def test_stepped_runs_identical(self, machine, yield_every, seed):
        """A small yield budget runs out inside arms and nested loops;
        each budget exit must land on the reference yield boundary."""
        slow = run_engine(build_branchy_kernel(seed), machine, False,
                          seed, yield_every=yield_every)
        fast = run_engine(build_branchy_kernel(seed), machine, True,
                          seed, yield_every=yield_every)
        assert fast == slow


class TestFaultEquivalence:
    @pytest.mark.parametrize("machine", (HASWELL, A53),
                             ids=lambda m: m.name)
    def test_fault_outside_trace_leaves_same_state(self, machine):
        """``keys[3]`` indexes far past ``buckets``: the fourth
        iteration raises ``MemoryFault``, before the loop header is hot
        enough to trace, so both engines fault on the dispatch loop and
        leave the same counters, core clock and memory-system stats."""
        n = 40
        snaps = []
        for fastpath in (False, True):
            mem = Memory(machine.line_size)
            keys = mem.allocate(8, n, "keys")
            keys.fill([(7 * i) % 64 for i in range(n)])
            keys.data[3] = 1 << 40
            buckets = mem.allocate(8, 64, "buckets")
            interp = Interpreter(build_indirect_kernel(num_buckets=64),
                                 mem, machine=machine, fastpath=fastpath)
            with pytest.raises(MemoryFault):
                interp.run("kernel", [keys.base, buckets.base, n])
            assert interp.trace_report() == []
            snaps.append(snapshot(interp))
        assert snaps[1] == snaps[0]
        assert snaps[0]["run_stats"]["loads"] == 7

    #: Byte offset ``offsets[FAULT_AT]`` is set to, per fault.
    BAD_OFFSET = {"misaligned-load": 8 * 5 + 3,
                  "misaligned-store": 8 * 5 + 3,
                  "unmapped": 1 << 40}
    FAULT_AT = 40

    @pytest.mark.parametrize("fault", sorted(BAD_OFFSET))
    @pytest.mark.parametrize("machine", (HASWELL, A53),
                             ids=lambda m: m.name)
    def test_fault_inside_trace_raises_same_error(self, machine, fault):
        """Iteration 40 addresses ``data`` at a byte offset that is not
        a multiple of its element size, or past every allocation: by
        then the loop runs on a compiled trace, which must raise the
        ``MemoryFault`` the dispatch loop raises, with the same message
        (the counters it batches are lost: see ``fastexec``)."""
        n = 64
        messages = []
        for fastpath in (False, True):
            mem = Memory(machine.line_size)
            offsets = mem.allocate(8, n, "offsets")
            offsets.fill([8 * (i % 16) for i in range(n)])
            offsets.data[self.FAULT_AT] = self.BAD_OFFSET[fault]
            data = mem.allocate(8, 16, "data")
            interp = Interpreter(
                build_offset_kernel(store=fault == "misaligned-store"),
                mem, machine=machine, fastpath=fastpath)
            with pytest.raises(MemoryFault) as caught:
                interp.run("kernel", [offsets.base, data.base, n])
            messages.append(str(caught.value))
            frames = {entry.frame.code.raw.co_filename
                      for entry in caught.traceback}
            assert ("<compiled-trace>" in frames) == fastpath
            assert bool(interp.trace_report()) == fastpath
        assert messages[1] == messages[0]
        bad = data.base + self.BAD_OFFSET[fault]
        want = {"misaligned-load": f"misaligned load at {bad:#x}",
                "misaligned-store": f"misaligned store at {bad:#x}",
                "unmapped": f"access to unmapped address {bad:#x}"}
        assert messages[0] == want[fault]


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("machine", EQUIVALENCE_MACHINES,
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

    @pytest.mark.parametrize("machine", EQUIVALENCE_MACHINES,
                             ids=lambda m: m.name)
    @pytest.mark.parametrize("variant", ("plain", "auto", "manual"))
    def test_graph500(self, machine, variant):
        """BFS branches on ``parent[w] < 0`` in its edge loop, inside a
        work-list loop: an arm in a nested loop."""
        slow, fast = engine_snapshots(graph500, variant, machine,
                                      telemetry=False)
        assert fast == slow

    @pytest.mark.parametrize("machine", (HASWELL, A53),
                             ids=lambda m: m.name)
    @pytest.mark.parametrize("variant", ("plain", "auto", "manual"))
    def test_graph500_with_telemetry(self, machine, variant):
        slow, fast = engine_snapshots(graph500, variant, machine,
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
    engines (reference, and the fast engine with its trace JIT), and
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
    with collecting(TraceRows()) as rows:
        run_variant(IntegerSort(num_keys=2000, num_buckets=1 << 14),
                    "auto", HASWELL, cache=False, **kwargs)
    return rows.records


class TestFastpathFlag:
    def test_env_flag_forces_slow_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_FASTPATH", "0")
        sim = SimOptions.from_env()
        assert sim == SimOptions(fastpath=False)
        with run_defaults(sim):
            assert traced_rows() == []

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


class TestCodeCache:
    def test_bounded_and_recompiles_after_eviction(self):
        """Generated code is cached by source text, up to a fixed
        bound: past it the oldest entries go, and an evicted source
        compiles again on its next use."""
        from repro.machine import fastexec

        def build(i: int):
            return fastexec.compile_source(
                f"def _f():\n    return {i}\n", {}, "_f", "<test>")

        bound = fastexec._CODE_CACHE_SIZE
        try:
            for i in range(bound + 16):
                assert build(i)() == i
            assert fastexec._compile_cached.cache_info().currsize <= bound
            assert build(0)() == 0
        finally:
            fastexec._compile_cached.cache_clear()
