"""Execution-driven IR interpreter with optional timing.

Functions are compiled once into a compact slot-machine form (register
slots, pre-resolved operands, per-edge phi moves) and then executed:

* **functional mode** (no machine config) — fast architectural execution,
  used for correctness tests and result validation;
* **timed mode** — every instruction is charged to a core model
  (:mod:`repro.machine.core`) and every memory operation walks the cache/
  TLB/DRAM models, producing a cycle count.

``run_stepped`` exposes a generator that yields the core's current time
every ``yield_every`` instructions so a multicore scheduler can interleave
several interpreters around a shared DRAM channel (Fig. 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.function import Function
from ..ir.instructions import (Alloc, BinOp, Branch, Call, Cast, Cmp, GEP,
                               Instruction, Jump, Load, Phi, Prefetch, Ret,
                               Select, Store)
from ..ir.module import Module
from ..ir.types import FloatType, IntType, PointerType, VoidType
from ..ir.values import Argument, Constant, UndefValue, Value
from ..telemetry.collector import TelemetryCollector, resolve_collector
from ..telemetry.timeline import TimelineRecorder, resolve_timeline
from .configs import MachineConfig
from .core import make_core
from .dram import DRAMChannel
from .fastexec import (_ALLOC, _BIN, _CALL, _CAST, _CMP, _GEP, _LOAD,
                       _PREFETCH, _SEG, _SELECT, _STORE,
                       fuse_function)
from .memory import Allocation, Memory, MemoryFault
from .system import MemorySystem
from .tracejit import NO_BUDGET, TraceJIT

_M64 = (1 << 64) - 1


def _int_wrap(bits: int):
    if bits >= 64:
        half = 1 << 63

        def wrap64(x: int) -> int:
            x &= _M64
            return x - (1 << 64) if x >= half else x
        return wrap64
    span = 1 << bits
    half = span >> 1

    def wrap(x: int) -> int:
        x &= span - 1
        return x - span if x >= half else x
    return wrap


def _binop_fn(opcode: str, bits: int):
    w = _int_wrap(bits)
    mask = (1 << bits) - 1
    if opcode == "add":
        return lambda a, b: w(a + b)
    if opcode == "sub":
        return lambda a, b: w(a - b)
    if opcode == "mul":
        return lambda a, b: w(a * b)
    if opcode == "and":
        return lambda a, b: w(a & b)
    if opcode == "or":
        return lambda a, b: w(a | b)
    if opcode == "xor":
        return lambda a, b: w(a ^ b)
    if opcode == "shl":
        return lambda a, b: w(a << (b & 63))
    if opcode == "lshr":
        return lambda a, b: w((a & mask) >> (b & 63))
    if opcode == "ashr":
        return lambda a, b: w(a >> (b & 63))
    if opcode == "sdiv":
        def sdiv(a, b):
            if b == 0:
                raise ZeroDivisionError("sdiv by zero")
            q = abs(a) // abs(b)
            return w(-q if (a < 0) != (b < 0) else q)
        return sdiv
    if opcode == "srem":
        def srem(a, b):
            if b == 0:
                raise ZeroDivisionError("srem by zero")
            q = abs(a) // abs(b)
            q = -q if (a < 0) != (b < 0) else q
            return w(a - q * b)
        return srem
    if opcode == "udiv":
        return lambda a, b: w((a & mask) // (b & mask))
    if opcode == "urem":
        return lambda a, b: w((a & mask) % (b & mask))
    if opcode == "fadd":
        return lambda a, b: a + b
    if opcode == "fsub":
        return lambda a, b: a - b
    if opcode == "fmul":
        return lambda a, b: a * b
    if opcode == "fdiv":
        return lambda a, b: a / b
    raise ValueError(f"no interpreter for binop {opcode}")


def _cmp_fn(predicate: str):
    if predicate in ("eq", "oeq"):
        return lambda a, b: 1 if a == b else 0
    if predicate in ("ne", "one"):
        return lambda a, b: 1 if a != b else 0
    if predicate in ("slt", "olt"):
        return lambda a, b: 1 if a < b else 0
    if predicate in ("sle", "ole"):
        return lambda a, b: 1 if a <= b else 0
    if predicate in ("sgt", "ogt"):
        return lambda a, b: 1 if a > b else 0
    if predicate in ("sge", "oge"):
        return lambda a, b: 1 if a >= b else 0
    if predicate == "ult":
        return lambda a, b: 1 if (a & _M64) < (b & _M64) else 0
    if predicate == "ule":
        return lambda a, b: 1 if (a & _M64) <= (b & _M64) else 0
    if predicate == "ugt":
        return lambda a, b: 1 if (a & _M64) > (b & _M64) else 0
    if predicate == "uge":
        return lambda a, b: 1 if (a & _M64) >= (b & _M64) else 0
    raise ValueError(f"no interpreter for predicate {predicate}")


def _cast_fn(opcode: str, from_type, to_type):
    if opcode in ("bitcast", "ptrtoint", "inttoptr"):
        return lambda v: v
    if opcode == "sext":
        return lambda v: v  # values already carry their sign
    if opcode == "zext":
        bits = from_type.bits
        mask = (1 << bits) - 1
        return lambda v: v & mask
    if opcode == "trunc":
        w = _int_wrap(to_type.bits)
        return lambda v: w(v)
    if opcode == "sitofp":
        return float
    if opcode == "fptosi":
        w = _int_wrap(to_type.bits)
        return lambda v: w(int(v))
    raise ValueError(f"no interpreter for cast {opcode}")


class _CompiledFunction:
    """Slot-machine form of one function."""

    __slots__ = ("function", "num_slots", "arg_slots", "blocks",
                 "block_names", "prefetch_pcs", "raw_blocks")

    def __init__(self, func: Function, pc_base: int):
        self.function = func
        #: pre-fusion blocks, stashed by ``fuse_function`` so the
        #: trace-JIT can recompile hot paths from the raw instruction
        #: tuples (``None`` until the function is fused).
        self.raw_blocks = None
        #: remark_id -> pc for prefetches carrying a stable id (set by
        #: the prefetch passes); the join layer maps compile-time
        #: remarks to runtime per-PC telemetry bins through this.
        self.prefetch_pcs: dict[str, int] = {}
        slots: dict[int, int] = {}

        def slot(value: Value) -> int:
            s = slots.get(id(value))
            if s is None:
                s = len(slots)
                slots[id(value)] = s
            return s

        self.arg_slots = [slot(a) for a in func.args]
        # Pre-assign slots for all value-producing instructions.
        for inst in func.instructions():
            if not isinstance(inst.type, VoidType):
                slot(inst)

        def spec(value: Value):
            """(is_const, payload) operand encoding."""
            if isinstance(value, Constant):
                return (True, value.value)
            if isinstance(value, UndefValue):
                return (True, 0)
            return (False, slots[id(value)])

        block_index = {id(b): i for i, b in enumerate(func.blocks)}
        self.block_names = [b.name for b in func.blocks]
        # Per block: (compiled items, terminator, instruction charge).
        # The charge is fixed at compile time (pre-fusion) so fused
        # execution books the same `stats.instructions` per block visit.
        self.blocks: list[tuple[list, tuple, int]] = []
        pc = pc_base
        for block in func.blocks:
            compiled: list = []
            terminator: tuple | None = None
            for inst in block:
                pc += 1
                if isinstance(inst, Phi):
                    continue  # handled by edge moves
                if isinstance(inst, BinOp):
                    bits = inst.type.bits if isinstance(inst.type, IntType) \
                        else 64
                    compiled.append((
                        _BIN, slots[id(inst)],
                        _binop_fn(inst.opcode, bits),
                        *spec(inst.lhs), *spec(inst.rhs), inst.opcode,
                        bits))
                elif isinstance(inst, Cmp):
                    compiled.append((
                        _CMP, slots[id(inst)], _cmp_fn(inst.predicate),
                        *spec(inst.lhs), *spec(inst.rhs),
                        inst.predicate))
                elif isinstance(inst, Select):
                    compiled.append((
                        _SELECT, slots[id(inst)], *spec(inst.condition),
                        *spec(inst.true_value), *spec(inst.false_value)))
                elif isinstance(inst, Cast):
                    compiled.append((
                        _CAST, slots[id(inst)],
                        _cast_fn(inst.opcode, inst.value.type, inst.type),
                        *spec(inst.value), inst.opcode,
                        getattr(inst.value.type, "bits", 0),
                        getattr(inst.type, "bits", 0)))
                elif isinstance(inst, GEP):
                    elem = inst.type.pointee.size
                    compiled.append((
                        _GEP, slots[id(inst)], elem, *spec(inst.base),
                        *spec(inst.index)))
                elif isinstance(inst, Load):
                    compiled.append((
                        _LOAD, slots[id(inst)], pc, *spec(inst.ptr),
                        [None]))
                elif isinstance(inst, Store):
                    compiled.append((
                        _STORE, pc, *spec(inst.value), *spec(inst.ptr),
                        [None]))
                elif isinstance(inst, Prefetch):
                    compiled.append((_PREFETCH, pc, *spec(inst.ptr)))
                    if inst.remark_id is not None:
                        self.prefetch_pcs[inst.remark_id] = pc
                elif isinstance(inst, Call):
                    compiled.append((
                        _CALL,
                        slots[id(inst)]
                        if not isinstance(inst.type, VoidType) else -1,
                        inst.callee.name,
                        tuple(spec(a) for a in inst.args)))
                elif isinstance(inst, Alloc):
                    is_float = isinstance(inst.element_type, FloatType)
                    compiled.append((
                        _ALLOC, slots[id(inst)], inst.element_type.size,
                        is_float, *spec(inst.count),
                        inst.name or "ir-alloc"))
                elif isinstance(inst, (Branch, Jump, Ret)):
                    terminator = self._compile_terminator(
                        inst, block, block_index, slots, spec)
                else:
                    raise TypeError(
                        f"cannot compile {inst.opcode} instructions")
            if terminator is None:
                raise ValueError(
                    f"block {block.name} of @{func.name} lacks a "
                    f"terminator")
            self.blocks.append((compiled, terminator, len(compiled) + 1))
        self.num_slots = len(slots)

    @staticmethod
    def _moves(pred, succ, slots, spec) -> tuple:
        moves = []
        for phi in succ.phis:
            incoming = phi.incoming_for_block(pred)
            moves.append((slots[id(phi)], *spec(incoming)))
        return tuple(moves)

    def _compile_terminator(self, inst, block, block_index, slots, spec):
        if isinstance(inst, Jump):
            t = block_index[id(inst.target)]
            return ("jmp", t, self._moves(block, inst.target, slots, spec))
        if isinstance(inst, Branch):
            t = block_index[id(inst.then_block)]
            e = block_index[id(inst.else_block)]
            return ("br", *spec(inst.condition),
                    t, self._moves(block, inst.then_block, slots, spec),
                    e, self._moves(block, inst.else_block, slots, spec))
        if isinstance(inst, Ret):
            if inst.value is not None:
                return ("ret", *spec(inst.value))
            return ("ret", True, 0)
        raise TypeError(f"unknown terminator {inst.opcode}")


@dataclass
class RunStats:
    """Counters from one interpreter run."""

    instructions: int = 0
    loads: int = 0
    stores: int = 0
    prefetches: int = 0
    branches: int = 0


@dataclass
class RunResult:
    """Outcome of one interpreter run.

    :ivar value: the entry function's return value (or ``None``).
    :ivar cycles: simulated core cycles (0.0 in functional mode).
    :ivar stats: dynamic instruction counters.
    :ivar memory_system: the timed memory hierarchy (``None`` in
        functional mode) for cache/TLB/DRAM statistics.
    :ivar telemetry: the finalised telemetry snapshot dict, when a
        collector was attached (``None`` otherwise).
    :ivar timeline: the windowed timeline snapshot dict
        (``repro-timeline-v1``), when a recorder was attached
        (``None`` otherwise).
    """

    value: object
    cycles: float
    stats: RunStats
    memory_system: MemorySystem | None = None
    telemetry: dict | None = None
    timeline: dict | None = None


class Interpreter:
    """Executes a module, optionally against a machine model.

    :param module: the IR module to execute.
    :param memory: the address space (created fresh if omitted).
    :param machine: a :class:`MachineConfig` for timed execution, or
        ``None`` for functional execution.
    :param dram: optionally a shared DRAM channel (multicore runs).
    :param fastpath: ``True`` selects the fast engine: fused-block
        execution, the memory-system hot-line memo and, in timed mode,
        the trace JIT, which compiles a loop once its header has been
        visited :data:`~repro.machine.tracejit.DEFAULT_THRESHOLD`
        times.  ``False`` selects the reference engine; the two are
        bit-identical.
    :param telemetry: a :class:`~repro.telemetry.TelemetryCollector`,
        or ``True``/``False`` for a fresh one or none.  Telemetry needs
        a machine model (it observes the memory hierarchy); a collector
        forces the memory system onto its instrumented reference walks,
        which are cycle-for-cycle identical to the fast path.
    :param timeline: a :class:`~repro.telemetry.TimelineRecorder`, or
        ``True``/``False`` for a fresh one (default window) or none.
        Needs a machine model.  Sampling reads counters only at the
        reference yield boundaries, so cycles are bit-identical with
        sampling on or off under both engines.
    """

    def __init__(self, module: Module, memory: Memory | None = None,
                 machine: MachineConfig | None = None,
                 dram: DRAMChannel | None = None,
                 fastpath: bool = True,
                 telemetry: "TelemetryCollector | bool | None" = None,
                 timeline: "TimelineRecorder | bool | None" = None):
        self.module = module
        self.memory = memory if memory is not None else Memory()
        self.machine = machine
        self.fastpath = fastpath
        self.telemetry = (resolve_collector(telemetry)
                          if machine is not None else None)
        self.timeline = (resolve_timeline(timeline)
                         if machine is not None else None)
        self.memory_system = (
            MemorySystem(machine, dram, fastpath=self.fastpath,
                         telemetry=self.telemetry)
            if machine is not None else None)
        self.core = (make_core(machine, self.memory_system)
                     if machine is not None else None)
        self._compiled: dict[str, _CompiledFunction] = {}
        self._pc_base = 0
        self.stats = RunStats()
        self.max_steps: int | None = None
        self._tj = TraceJIT(
            mode="inorder" if machine.in_order else "ooo",
            bind={"memory": self.memory, "stats": self.stats,
                  "core": self.core, "ms": self.memory_system}
        ) if self.fastpath and machine is not None else None

    def _compile(self, func: Function) -> _CompiledFunction:
        compiled = self._compiled.get(func.name)
        if compiled is None:
            compiled = _CompiledFunction(func, self._pc_base)
            self._pc_base += sum(len(b) for b in func.blocks) + 16
            if self.fastpath:
                if self.machine is None:
                    mode = "func"
                else:
                    mode = "inorder" if self.machine.in_order else "ooo"
                fuse_function(compiled, mode, {
                    "memory": self.memory, "stats": self.stats,
                    "core": self.core, "ms": self.memory_system})
            self._compiled[func.name] = compiled
        return compiled

    # -- public API -----------------------------------------------------

    def prefetch_pc_map(self) -> dict[str, int]:
        """remark_id -> runtime PC for every prefetch compiled so far.

        Only functions that have actually been compiled (the entry, and
        callees reached during execution) contribute entries.  For the
        same mapping without running, see :func:`static_prefetch_pcs`.
        """
        pcs: dict[str, int] = {}
        for compiled in self._compiled.values():
            pcs.update(compiled.prefetch_pcs)
        return pcs

    def trace_report(self) -> list[dict]:
        """Per-trace statistics from the trace JIT, hottest first
        (empty on the reference engine).  Row keys: ``function``,
        ``header``, ``blocks``, ``ops``, ``entries``, ``iterations``,
        ``instructions``."""
        return self._tj.report() if self._tj is not None else []

    def run(self, func_name: str, args: list | None = None) -> RunResult:
        """Execute ``func_name`` to completion and return the result.

        With a timeline recorder attached, the run is driven at the
        recorder's sampling interval — the same reference yield
        boundaries ``run_stepped`` exposes, so the cycle count is
        unchanged (yields never advance time; compiled traces exit at
        exactly these boundaries).
        """
        yield_every = (self.timeline.sample_every
                       if self.timeline is not None else 0)
        for _ in self.run_stepped(func_name, args,
                                  yield_every=yield_every):
            pass
        return self._result

    def run_stepped(self, func_name: str, args: list | None = None,
                    yield_every: int = 10_000):
        """Generator form of :meth:`run`: yields the core's current time
        every ``yield_every`` dynamic instructions (0 = never).  An
        attached timeline recorder samples at each yield boundary."""
        func = self.module.function(func_name)
        args = args or []
        if len(args) != len(func.args):
            raise TypeError(
                f"@{func_name} expects {len(func.args)} args, "
                f"got {len(args)}")
        ready = [0.0] * len(args)
        gen = self._exec(self._compile(func), list(args), ready,
                         yield_every)
        value = None
        cycles_before = self.core.cycles if self.core else 0.0
        timeline = self.timeline
        while True:
            try:
                t = next(gen)
            except StopIteration as stop:
                value = stop.value
                break
            if timeline is not None:
                timeline.sample(self.core, self.memory_system,
                                self.telemetry)
            yield t
        cycles = (self.core.cycles - cycles_before) if self.core else 0.0
        telemetry = None
        if self.telemetry is not None:
            self.telemetry.finalize(self.memory_system, self.core)
            telemetry = self.telemetry.snapshot()
        timeline_snap = None
        if timeline is not None:
            timeline.finalize(self.core, self.memory_system,
                              self.telemetry)
            timeline_snap = timeline.snapshot()
        self._result = RunResult(
            value=value[0] if value else None,
            cycles=cycles, stats=self.stats,
            memory_system=self.memory_system,
            telemetry=telemetry, timeline=timeline_snap)

    # -- the execution engine ------------------------------------------------

    def _exec(self, compiled: _CompiledFunction, arg_values: list,
              arg_ready: list, yield_every: int):
        memory = self.memory
        core = self.core
        stats = self.stats
        regs = [0] * compiled.num_slots
        for slot_index, value in zip(compiled.arg_slots, arg_values):
            regs[slot_index] = value
        if core is not None:
            ready = [0.0] * compiled.num_slots
            for slot_index, t in zip(compiled.arg_slots, arg_ready):
                ready[slot_index] = t
        else:
            ready = None
        blocks = compiled.blocks
        block = 0
        steps = 0
        max_steps = self.max_steps
        # Trace JIT: needs timing and clashes with max_steps (a
        # trace books its instructions only at exit, after the check).
        tj = self._tj if (core is not None and max_steps is None) \
            else None
        if tj is not None:
            tj_state = tj.state_for(compiled)
            traces = tj_state.traces
            counts = tj_state.counts
            ms = self.memory_system
        rec_path = None
        rec_header = -1
        rec_self = None
        while True:
            if tj is not None:
                if rec_path is None:
                    tr = traces.get(block)
                    if tr is not None:
                        if tr.fp == ms.fastpath:
                            budget = (yield_every - steps) \
                                if yield_every else NO_BUDGET
                            block, used = tr.fn(regs, ready, budget)
                            steps += used
                            if tr.entries >= 256 and \
                                    tr.iters < (tr.entries >> 1):
                                tj.deopt(tj_state, tr, "low-yield")
                            if yield_every and steps >= yield_every:
                                steps = 0
                                yield core.time
                            continue
                        # e.g. a telemetry collector attached mid-run:
                        # fall back to the fused tier for this block.
                        tj.deopt(tj_state, tr, "memory-mode-changed")
                    else:
                        c = counts.get(block, 0) + 1
                        counts[block] = c
                        if c == tj.threshold and \
                                block not in tj_state.blacklist:
                            rec_header = block
                            rec_path = [block]
                            rec_self = set()
                elif block == rec_header:
                    tj.finish(compiled, tj_state, rec_path, rec_self)
                    rec_path = None
                elif block == rec_path[-1]:
                    # Immediate self-revisit: a single-block inner loop,
                    # compiled as a nested while inside the trace.
                    rec_self.add(block)
                elif block in rec_path or len(rec_path) >= tj.max_blocks:
                    tj.abort(tj_state, rec_header,
                             "inner-loop" if block in rec_path
                             else "too-long")
                    rec_path = None
                else:
                    rec_path.append(block)
            insts, term, charge = blocks[block]
            for inst in insts:
                kind = inst[0]
                if kind == _SEG:
                    inst[1](regs, ready)
                elif kind == _BIN:
                    _, dst, fn, ac, a, bc, b, opcode, _bits = inst
                    av = a if ac else regs[a]
                    bv = b if bc else regs[b]
                    regs[dst] = fn(av, bv)
                    if core is not None:
                        dep = 0.0
                        if not ac and ready[a] > dep:
                            dep = ready[a]
                        if not bc and ready[b] > dep:
                            dep = ready[b]
                        ready[dst] = core.op(dep, opcode)
                elif kind == _GEP:
                    _, dst, elem, bc, b, ic, i = inst
                    base = b if bc else regs[b]
                    index = i if ic else regs[i]
                    regs[dst] = base + index * elem
                    if core is not None:
                        dep = 0.0
                        if not bc and ready[b] > dep:
                            dep = ready[b]
                        if not ic and ready[i] > dep:
                            dep = ready[i]
                        ready[dst] = core.op(dep)
                elif kind == _LOAD:
                    _, dst, pc, pc_const, p, cache = inst
                    addr = p if pc_const else regs[p]
                    alloc = cache[0]
                    if alloc is None or not (
                            alloc.base <= addr < alloc.end):
                        alloc = memory.allocation_at(addr)
                        cache[0] = alloc
                    offset = addr - alloc.base
                    index, rem = divmod(offset, alloc.element_size)
                    if rem:
                        raise MemoryFault(
                            f"misaligned load at {addr:#x}")
                    regs[dst] = alloc.data[index]
                    stats.loads += 1
                    if core is not None:
                        dep = ready[p] if not pc_const else 0.0
                        ready[dst] = core.load(pc, addr, dep)
                elif kind == _STORE:
                    _, pc, vc, v, pc_const, p, cache = inst
                    addr = p if pc_const else regs[p]
                    value = v if vc else regs[v]
                    alloc = cache[0]
                    if alloc is None or not (
                            alloc.base <= addr < alloc.end):
                        alloc = memory.allocation_at(addr)
                        cache[0] = alloc
                    offset = addr - alloc.base
                    index, rem = divmod(offset, alloc.element_size)
                    if rem:
                        raise MemoryFault(
                            f"misaligned store at {addr:#x}")
                    alloc.data[index] = value
                    stats.stores += 1
                    if core is not None:
                        dep = 0.0
                        if not vc and ready[v] > dep:
                            dep = ready[v]
                        if not pc_const and ready[p] > dep:
                            dep = ready[p]
                        core.store(pc, addr, dep)
                elif kind == _CMP:
                    _, dst, fn, ac, a, bc, b, _pred = inst
                    av = a if ac else regs[a]
                    bv = b if bc else regs[b]
                    regs[dst] = fn(av, bv)
                    if core is not None:
                        dep = 0.0
                        if not ac and ready[a] > dep:
                            dep = ready[a]
                        if not bc and ready[b] > dep:
                            dep = ready[b]
                        ready[dst] = core.op(dep)
                elif kind == _SELECT:
                    _, dst, cc, c, tc, t, fc, f = inst
                    cond = c if cc else regs[c]
                    regs[dst] = (t if tc else regs[t]) if cond else \
                        (f if fc else regs[f])
                    if core is not None:
                        dep = 0.0
                        if not cc and ready[c] > dep:
                            dep = ready[c]
                        if not tc and ready[t] > dep:
                            dep = ready[t]
                        if not fc and ready[f] > dep:
                            dep = ready[f]
                        ready[dst] = core.op(dep)
                elif kind == _CAST:
                    _, dst, fn, vc, v, _op, _fb, _tb = inst
                    regs[dst] = fn(v if vc else regs[v])
                    if core is not None:
                        ready[dst] = core.op(
                            ready[v] if not vc else 0.0)
                elif kind == _PREFETCH:
                    _, pc, pc_const, p = inst
                    addr = p if pc_const else regs[p]
                    stats.prefetches += 1
                    if core is not None:
                        core.prefetch(pc, addr,
                                      ready[p] if not pc_const else 0.0)
                elif kind == _ALLOC:
                    _, dst, elem, is_float, cc, c, name = inst
                    count = c if cc else regs[c]
                    alloc = memory.allocate(elem, count, name, is_float)
                    regs[dst] = alloc.base
                    if core is not None:
                        ready[dst] = core.op(
                            ready[c] if not cc else 0.0)
                elif kind == _CALL:
                    _, dst, callee_name, arg_specs = inst
                    call_args = [v if c else regs[v]
                                 for c, v in arg_specs]
                    if core is not None:
                        call_ready = [ready[v] if not c else 0.0
                                      for c, v in arg_specs]
                        core.op(max(call_ready, default=0.0))
                    else:
                        call_ready = [0.0] * len(call_args)
                    callee = self._compile(
                        self.module.function(callee_name))
                    sub = self._exec(callee, call_args, call_ready, 0)
                    try:
                        while True:
                            next(sub)
                    except StopIteration as stop:
                        retval = stop.value
                    if dst >= 0:
                        regs[dst] = retval[0]
                        if core is not None:
                            ready[dst] = retval[1]
                else:  # pragma: no cover - defensive
                    raise RuntimeError(f"bad compiled opcode {kind}")
            stats.instructions += charge
            steps += charge
            if max_steps is not None and stats.instructions > max_steps:
                raise RuntimeError(
                    f"exceeded max_steps={max_steps} "
                    f"(possible infinite loop)")
            # Terminator.
            op = term[0]
            if op == "jmp":
                _, target, moves = term
                if core is not None:
                    core.branch(0.0)
                stats.branches += 1
                self._apply_moves(moves, regs, ready)
                block = target
            elif op == "br":
                _, cc, c, t, tmoves, e, emoves = term
                cond = c if cc else regs[c]
                if core is not None:
                    core.branch(ready[c] if not cc else 0.0)
                stats.branches += 1
                if cond:
                    self._apply_moves(tmoves, regs, ready)
                    block = t
                else:
                    self._apply_moves(emoves, regs, ready)
                    block = e
            else:  # ret
                _, vc, v = term
                if core is not None:
                    core.branch(0.0)
                value = v if vc else regs[v]
                rtime = (ready[v] if (core is not None and not vc)
                         else (core.time if core is not None else 0.0))
                return (value, rtime)
            if yield_every and steps >= yield_every and core is not None:
                steps = 0
                yield core.time

    @staticmethod
    def _apply_moves(moves, regs, ready) -> None:
        if not moves:
            return
        # Parallel-copy semantics: read all sources before writing.
        values = [v if c else regs[v] for _, c, v in moves]
        if ready is not None:
            times = [0.0 if c else ready[v] for _, c, v in moves]
            for (dst, _, _), value, t in zip(moves, values, times):
                regs[dst] = value
                ready[dst] = t
        else:
            for (dst, _, _), value in zip(moves, values):
                regs[dst] = value


def static_prefetch_pcs(module: Module, entry: str = "kernel"
                        ) -> dict[str, int]:
    """Predict remark_id -> PC without executing ``module``.

    The interpreter compiles functions lazily — the entry up front,
    then each callee at its first dynamic call — and assigns each
    function a contiguous PC span in compile order.  This emulates that
    order statically: the entry first, then callees in first-static-
    call-site pre-order, which matches the dynamic order whenever calls
    execute in block order (true of every bundled workload).
    """
    by_name = {f.name: f for f in module.functions}
    order: list[str] = []
    seen: set[str] = set()

    def visit(name: str) -> None:
        if name in seen or name not in by_name:
            return
        seen.add(name)
        order.append(name)
        for block in by_name[name].blocks:
            for inst in block:
                if isinstance(inst, Call):
                    visit(inst.callee.name)

    visit(entry)
    pcs: dict[str, int] = {}
    pc_base = 0
    for name in order:
        func = by_name[name]
        compiled = _CompiledFunction(func, pc_base)
        pcs.update(compiled.prefetch_pcs)
        pc_base += sum(len(b) for b in func.blocks) + 16
    return pcs
