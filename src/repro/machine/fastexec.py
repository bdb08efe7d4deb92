"""Code generation for compiled traces.

The trace JIT (:mod:`repro.machine.tracejit`) compiles each hot loop
nest to one generated-Python closure; this module writes the source for
the instructions it splices in.  :class:`_Emitter` turns instruction
tuples of the slot-machine form (:mod:`repro.machine.interpreter`) into
source text: register slots become function locals (``r{i}`` for
values, ``t{i}`` for ready times).  The text holds the loop's shape and
the machine: slots, pcs, block indices, element sizes and bit widths,
per-op latencies, the core's issue/retire arithmetic and the memory
system's geometry (line, set and page shifts and masks).  It holds no
IR constant: each constant operand is a local ``_c{i}``, one per
occurrence in emission order, which the trace reads at entry from the
tuple ``_K`` in its env, so one code object serves every look-ahead and
input size of a loop.  Common 64-bit integer wrap-around arithmetic,
comparisons and casts are emitted as inline expressions (no closure
call), each load or store keeps the allocation it last touched in
locals, and an L1 hit probe (see
:class:`~repro.machine.system.MemorySystem`) is inlined with a call to
the memory walk as the fallback.
:func:`compile_source` compiles every generated source through one
bounded code cache.

Equivalence contract
--------------------

The generated code replays *exactly* the arithmetic of the reference
dispatch loop, in the same order, on the same floats:

* ``InOrderCore.op/load/store/prefetch/branch`` and
  ``OutOfOrderCore._fetch/_retire`` are transcribed operation-for-
  operation (``max(a, b)`` becomes the equivalent compare-and-assign),
  so cycle counts are bit-identical;
* the inlined L1 hit probe is the engine's only copy of any memory
  system behaviour: it reads the line's fill time straight from its L1
  set, and on a hit whose fill has completed and whose page is in the
  L1 TLB it performs the same LRU touches, hit counters, dirty marking
  (each level's set of dirty lines) and prefetcher training the walk
  would; whenever a guard fails it calls the one walk itself
  (``MemorySystem._demand`` or ``MemorySystem.prefetch``), so every
  miss runs the reference code;
* division/modulo by compile-time power-of-two machine parameters
  (line size, set count) is emitted as shifts/masks — identical results
  for every int under Python's floor-division semantics — and so is the
  element index within an allocation, whose element size is a power of
  two by construction (``Memory.allocate``); misaligned and unmapped
  addresses raise the dispatch loop's ``MemoryFault`` messages;
* instruction counters are charged in bulk with the same totals.

The only observable difference is *when* state is written back: the
dispatch loop updates the core and the counters per instruction, while a
trace holds registers, the core's clock and its counters in locals and
flushes them at trace exit.  A run that raises ``MemoryFault`` inside a
trace therefore loses the trace's batched counters; completed runs, and
runs that fault outside a trace, are indistinguishable.

Calls and allocations never enter generated code (they recurse into the
interpreter or change the address-space layout): a block holding one
runs on the dispatch loop, and a recording that reaches it aborts.

Telemetry interaction: the probe is inlined exactly when no
:class:`~repro.telemetry.TelemetryCollector` is attached to the memory
system (``ms.telemetry is None``, fixed when the memory system is
built).  With a collector, the emitter writes plain
``_ms_demand``/``_ms_prefetch`` calls instead, so every memory
operation takes the instrumented walk while traces still run.  With
telemetry off (the default) nothing here changes, so the fast engine
pays zero cost for the feature.
"""

from __future__ import annotations

import functools

from .memory import MemoryFault

# Compiled opcode kinds (shared with the interpreter, which imports them
# from here so the two modules cannot drift apart).
_BIN, _CMP, _SELECT, _CAST, _GEP, _LOAD, _STORE, _PREFETCH, _CALL, \
    _ALLOC = range(10)

#: Kinds a compiled trace may contain; a block with any other kind
#: (a call or an allocation) is *unfusable* and stays on the dispatch
#: loop.
_FUSABLE = frozenset(
    (_BIN, _CMP, _SELECT, _CAST, _GEP, _LOAD, _STORE, _PREFETCH))

#: ALU latency default, mirrored from :mod:`repro.machine.core`.
_ALU_LATENCY = 1.0

_M64 = (1 << 64) - 1
_H64 = 1 << 63
_W64 = 1 << 64

#: 64-bit integer binops whose wrap-around form is emitted inline.
_INLINE_I64 = {
    "add": "({a} + {b})", "sub": "({a} - {b})", "mul": "({a} * {b})",
    "and": "({a} & {b})", "or": "({a} | {b})", "xor": "({a} ^ {b})",
    "shl": "({a} << ({b} & 63))", "ashr": "({a} >> ({b} & 63))",
    "lshr": f"(({{a}} & {_M64}) >> ({{b}} & 63))",
}
#: Float binops (no wrapping).
_INLINE_FLOAT = {"fadd": "({a} + {b})", "fsub": "({a} - {b})",
                 "fmul": "({a} * {b})", "fdiv": "({a} / {b})"}
#: Comparison predicates as inline expressions.
_INLINE_CMP = {
    "eq": "{a} == {b}", "oeq": "{a} == {b}",
    "ne": "{a} != {b}", "one": "{a} != {b}",
    "slt": "{a} < {b}", "olt": "{a} < {b}",
    "sle": "{a} <= {b}", "ole": "{a} <= {b}",
    "sgt": "{a} > {b}", "ogt": "{a} > {b}",
    "sge": "{a} >= {b}", "oge": "{a} >= {b}",
    "ult": f"({{a}} & {_M64}) < ({{b}} & {_M64})",
    "ule": f"({{a}} & {_M64}) <= ({{b}} & {_M64})",
    "ugt": f"({{a}} & {_M64}) > ({{b}} & {_M64})",
    "uge": f"({{a}} & {_M64}) >= ({{b}} & {_M64})",
}

#: Compiled generated sources kept per process.  Source holds the loop's
#: shape and the machine (slots, pcs, latencies, cache geometry) but no
#: IR constant and no object identity, so one code object serves every
#: interpreter that runs the same loop shape on the same machine, at
#: any look-ahead or input size.  Measured distinct sources (each one
#: trace): 38-45 for one pass of the benchmark's figs-cold workload with
#: its warm-up (seeds 1-10), 52 for ``repro bench fig6 --small
#: --no-cache --jobs 1``, 170 for all 13 simulating figures in one
#: process, and 8 in a serve worker after the benchmark's serve warm-up
#: and 96 fresh simulate jobs, so none of them evicts.
_CODE_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=_CODE_CACHE_SIZE)
def _compile_cached(src: str, filename: str):
    """``compile`` behind the bounded code cache."""
    return compile(src, filename, "exec")


def _div_expr(operand: str, divisor: int) -> str:
    """``operand // divisor`` as a shift when the divisor allows.

    Python's ``//`` and ``>>`` agree (floor semantics) for every int
    when the divisor is a power of two, so this is bit-identical."""
    if divisor > 0 and divisor & (divisor - 1) == 0:
        return f"{operand} >> {divisor.bit_length() - 1}"
    return f"{operand} // {divisor}"


def _mod_expr(operand: str, modulus: int) -> str:
    """``operand % modulus`` as a mask when the modulus allows."""
    if modulus > 0 and modulus & (modulus - 1) == 0:
        return f"{operand} & {modulus - 1}"
    return f"{operand} % {modulus}"


#: What one hit of the inlined probe counts, per access kind: the local
#: that counts the hits in a trace, and the statistics the walk would
#: have bumped once per hit, to which the local is added at trace exit.
_PROBE_HITS = {
    "demand": ("_nhd", ("_mst.demand_accesses", "_tst.hits",
                        "_l1st.hits")),
    "prefetch": ("_nhp", ("_mst.sw_prefetches", "_tst.hits")),
}


class _Emitter:
    """Generates the specialized Python source for one compiled trace.

    One instance accumulates source lines (:attr:`body`) and runtime
    bindings (:attr:`env`) for a single generated closure.  Operands are
    function locals: ``r{i}`` / ``t{i}`` for a slot, ``_c{i}`` for a
    constant (:attr:`consts`).  Every slot touched is recorded in
    :attr:`slots` so the trace assembler can emit the load/store
    prologue and epilogue, and :meth:`prologue` / :meth:`epilogue` hold
    the emitter's own locals: the constants, the core's state, each
    memory site's allocation memo and the probe's hit counters.  The
    timing arithmetic (issue/retire, L1 hit probe, blocking thresholds)
    is the transcription of the core and memory-system models
    documented in the module docstring.

    :param mode: ``"inorder"`` or ``"ooo"``, the core model transcribed.
    :param bind: the runtime objects generated code binds to:
        ``memory`` (:class:`Memory`), ``stats`` (:class:`RunStats`),
        ``core`` and ``ms`` (the :class:`MemorySystem`).
    :param env: the globals the closure is instantiated against.
    """

    def __init__(self, mode: str, bind: dict, env: dict):
        self.mode = mode
        self.env = env
        self.body: list[str] = []
        self.slots: set[int] = set()
        self.counts = {"loads": 0, "stores": 0, "prefetches": 0}
        #: the IR constants, one per operand occurrence in emission
        #: order: ``consts[i]`` is the trace local ``_c{i}``.
        self.consts: list = []
        self.site = 0
        self._nfn = 0
        self.probe = None
        #: access kinds (keys of :data:`_PROBE_HITS`) a probe serves.
        self.hits: set[str] = set()
        core = bind["core"]
        ms = bind["ms"]
        env["_MF"] = MemoryFault
        env["_alloc_at"] = bind["memory"].allocation_at
        env["_stats"] = bind["stats"]
        env["_core"] = core
        env["_ms_demand"] = ms._demand
        env["_ms_prefetch"] = ms.prefetch
        self.ic = repr(core.issue_cost)
        if mode == "inorder":
            self.bt = repr(core._block_threshold)
            # The in-order clock is the issue time of the op in flight.
            self.issue = "t"
        else:
            env["_rob"] = core._rob
            env["_retire"] = core._rob.append
            self.issue = "issue"
        if ms.telemetry is None:
            # Bindings for the inlined L1 hit probe.  All of these
            # objects are stable for the MemorySystem's lifetime (flush
            # clears them in place).
            l1 = ms.caches[0]
            env.update(_l1s=l1._sets, _l1d=l1._dirty, _tp=ms.tlb._pages,
                       _mst=ms.stats, _tst=ms.tlb.stats,
                       _l1st=l1.stats, _pf=ms.prefetcher,
                       _observe=ms.prefetcher.observe,
                       _hwfill=ms._issue_hw_fills)
            # Per-level sets and dirty sets below the L1, for the inlined
            # dirty marking.
            self.dirty = []
            for i, c in enumerate(ms.caches[1:]):
                env[f"_ds{i}"] = c._sets
                env[f"_dd{i}"] = c._dirty
                self.dirty.append(
                    (f"_ds{i}", _mod_expr("line", c.num_sets), f"_dd{i}"))
            self.probe = {
                "line": _div_expr("addr", ms.line_size),
                "set": _mod_expr("line", l1.num_sets),
                "page": f"(page := addr >> {ms.tlb.page_bits})",
                "lat": repr(l1.latency),
            }

    # -- operand naming ------------------------------------------------

    def out(self, line: str) -> None:
        """Append one source line (relative indentation preserved)."""
        self.body.append(line)

    def reg(self, slot: int) -> str:
        self.slots.add(slot)
        return f"r{slot}"

    def rdy(self, slot: int) -> str:
        self.slots.add(slot)
        return f"t{slot}"

    def operand(self, is_const: bool, payload) -> str:
        """Source text of one pre-resolved operand: a register local,
        or for a constant a fresh local ``_c{i}`` that the prologue
        reads from the env's ``_K``.  Equal constants never share a
        local, so the text is the same whichever values coincide."""
        if not is_const:
            return self.reg(payload)
        name = f"_c{len(self.consts)}"
        self.consts.append(payload)
        return name

    def fn_call(self, fn) -> str:
        name = f"_f{self._nfn}"
        self._nfn += 1
        self.env[name] = fn
        return name

    # -- the trace's own locals ----------------------------------------

    def prologue(self) -> None:
        """Read the IR constants and the core's state into locals; start
        every site's allocation memo empty (its first access looks the
        allocation up) and every probe hit counter at zero."""
        emit = self.out
        if self.consts:
            self.env["_K"] = tuple(self.consts)
            emit("".join(f"_c{i}, " for i in range(len(self.consts)))
                 + "= _K")
        if self.mode == "inorder":
            emit("t = _core.time")
        else:
            emit("ft = _core.fetch_time")
            emit("lr = _core._last_retire")
        for site in range(self.site):
            emit(f"_b{site} = 0")
            emit(f"_e{site} = -1")
        for kind in sorted(self.hits):
            emit(f"{_PROBE_HITS[kind][0]} = 0")

    def epilogue(self) -> None:
        """Write the core's state back and add the probe's hits to every
        statistic each one stands for."""
        emit = self.out
        if self.mode == "inorder":
            emit("_core.time = t")
        else:
            emit("_core.fetch_time = ft")
            emit("_core._last_retire = lr")
        for kind in sorted(self.hits):
            local, targets = _PROBE_HITS[kind]
            emit(f"if {local}:")
            for target in targets:
                emit(f"    {target} += {local}")

    # -- core-model transcription --------------------------------------

    def ooo_retire(self, done: str) -> None:
        """``OutOfOrderCore._retire(done)``: the ROB deque drops the
        entry :meth:`issue_and` read as it appends."""
        self.out(f"if {done} > lr: lr = {done}")
        self.out("_retire(lr)")

    def issue_and(self, specs) -> None:
        """The issue time of one op into :attr:`issue`: the core clock
        advance with each non-const operand's ready time folded in
        directly (``max`` is assoc/commutative, so folding the operand
        compares into the issue compare chain is bit-identical to
        computing ``dep = max(ready...)`` first, with fewer
        temporaries)."""
        emit = self.out
        issue = self.issue
        if self.mode == "inorder":
            emit(f"t += {self.ic}")
        else:
            # _fetch(): fetch = max(ft + ic, rob[0]); ft = fetch.
            emit(f"issue = ft + {self.ic}")
            emit("_s = _rob[0]")
            emit("if _s > issue: issue = _s")
            emit("ft = issue")
        for c, v in specs:
            if not c:
                r = self.rdy(v)
                emit(f"if {r} > {issue}: {issue} = {r}")

    def branch(self, dep: str | None) -> None:
        """``core.branch(dep)`` with core state in locals.

        ``dep`` is a source expression for the condition's ready time,
        or ``None`` for a constant condition (dep 0.0, which never
        dominates the non-negative clock)."""
        emit = self.out
        self.issue_and(())
        if dep is not None:
            emit(f"if {dep} > {self.issue}: {self.issue} = {dep}")
        if self.mode == "ooo":
            emit("done = issue + 1.0")
            self.ooo_retire("done")

    def alu(self, dst: int, specs, lat: float, *,
            value: str | None = None, wrapped: str | None = None) -> None:
        """One non-memory op: functional effect + issue/retire timing.

        :param value: expression assigned to the slot directly.
        :param wrapped: expression put through 64-bit signed wrap first.
        """
        emit = self.out
        if wrapped is not None:
            emit(f"_v = {wrapped} & {_M64}")
            emit(f"{self.reg(dst)} = _v - {_W64} if _v >= {_H64} else _v")
        else:
            emit(f"{self.reg(dst)} = {value}")
        self.issue_and(specs)
        ready = self.rdy(dst)
        emit(f"{ready} = {self.issue} + {lat!r}")
        if self.mode == "ooo":
            self.ooo_retire(ready)

    # -- memory-system transcription -----------------------------------

    def address(self, ptr_spec, op_name: str) -> str:
        """Resolve ``addr`` and check it; returns the source expression
        of the element it addresses.

        Each memory site keeps a memo of the last allocation it
        touched in trace locals: ``_b``/``_e`` bound it and ``_d`` is
        its data; the element size is a power of two (``Memory.allocate``
        enforces it), so ``_k`` (size - 1) tests alignment and ``_s``
        (log2 size) shifts the offset into an index, exactly as
        ``divmod`` by the size would."""
        emit = self.out
        k = self.site
        self.site += 1
        emit(f"addr = {self.operand(*ptr_spec)}")
        emit(f"if addr < _b{k} or addr >= _e{k}:")
        emit("    _a = _alloc_at(addr)")
        emit(f"    _b{k} = _a.base")
        emit(f"    _e{k} = _a.end")
        emit(f"    _k{k} = _a.element_size - 1")
        emit(f"    _s{k} = _k{k}.bit_length()")
        emit(f"    _d{k} = _a.data")
        emit(f"_o = addr - _b{k}")
        emit(f"if _o & _k{k}:")
        emit(f"    raise _MF('misaligned {op_name} at %#x' % addr)")
        return f"_d{k}[_o >> _s{k}]"

    def l1_probe(self, wait: bool) -> None:
        """The L1 hit probe's lookup and guard: ``fill`` is read
        straight from the line's L1 set, and the guarded branch runs
        when the line is resident, its fill has completed (checked only
        when ``wait``: a prefetch that hits the L1 never waits) and its
        page is in the L1 TLB."""
        emit = self.out
        probe = self.probe
        emit(f"line = {probe['line']}")
        emit(f"fill = (lines := _l1s[{probe['set']}]).get(line)")
        done = f"fill <= {self.issue} and " if wait else ""
        emit(f"if fill is not None and {done}{probe['page']} in _tp:")

    def hit_touch(self, kind: str) -> None:
        """LRU touches + hit count of the replayed L1/TLB hit."""
        emit = self.out
        self.hits.add(kind)
        emit("    del _tp[page]")
        emit("    _tp[page] = None")
        emit("    del lines[line]")
        emit("    lines[line] = fill")
        emit(f"    {_PROBE_HITS[kind][0]} += 1")

    def train(self, pc: int, indent: str) -> None:
        """The walk's prefetcher training, inlined: observe + rare fill
        issue."""
        emit = self.out
        emit(f"{indent}if line != _pf._last_line:")
        emit(f"{indent}    _fl = _observe({pc}, line)")
        emit(f"{indent}    if _fl:")
        emit(f"{indent}        _hwfill(_fl, {self.issue})")

    def demand(self, pc: int, is_write: bool, ready: str | None) -> None:
        """One demand access at the issue time; a load assigns its
        data-ready time to ``ready``, a store (``None``) drops it."""
        emit = self.out
        walk = f"_ms_demand({pc}, addr, {self.issue}, {is_write})"
        if ready is not None:
            walk = f"{ready} = {walk}"
        if self.probe is None:
            emit(walk)
            return
        self.l1_probe(wait=True)
        self.hit_touch("demand")
        if is_write:
            emit("    _l1d.add(line)")
            for sets_name, set_expr, dirty_name in self.dirty:
                emit(f"    if line in {sets_name}[{set_expr}]:")
                emit(f"        {dirty_name}.add(line)")
        self.train(pc, "    ")
        if ready is not None:
            emit(f"    {ready} = {self.issue} + {self.probe['lat']}")
        emit("else:")
        emit(f"    {walk}")

    # -- one fusable instruction ---------------------------------------

    def op(self, inst: tuple) -> None:
        """Emit functional + timing source for one instruction tuple."""
        from .core import _LATENCIES

        emit = self.out
        kind = inst[0]
        if kind == _BIN:
            _, dst, fn, ac, a, bc, b, opcode, bits = inst
            av, bv = self.operand(ac, a), self.operand(bc, b)
            lat = _LATENCIES.get(opcode, _ALU_LATENCY)
            specs = [(ac, a), (bc, b)]
            if opcode in _INLINE_FLOAT:
                self.alu(dst, specs, lat,
                         value=_INLINE_FLOAT[opcode].format(a=av, b=bv))
            elif bits == 64 and opcode in _INLINE_I64:
                self.alu(dst, specs, lat,
                         wrapped=_INLINE_I64[opcode].format(a=av, b=bv))
            else:
                self.alu(dst, specs, lat,
                         value=f"{self.fn_call(fn)}({av}, {bv})")
        elif kind == _CMP:
            _, dst, fn, ac, a, bc, b, pred = inst
            av, bv = self.operand(ac, a), self.operand(bc, b)
            cond = _INLINE_CMP[pred].format(a=av, b=bv)
            self.alu(dst, [(ac, a), (bc, b)], _ALU_LATENCY,
                     value=f"1 if {cond} else 0")
        elif kind == _SELECT:
            _, dst, cc, c, tc, t, fc, f = inst
            rhs = (f"({self.operand(tc, t)}) if ({self.operand(cc, c)}) "
                   f"else ({self.operand(fc, f)})")
            self.alu(dst, [(cc, c), (tc, t), (fc, f)], _ALU_LATENCY,
                     value=rhs)
        elif kind == _CAST:
            _, dst, fn, vc, v, opcode, fb, tb = inst
            vv = self.operand(vc, v)
            specs = [(vc, v)]
            if opcode in ("bitcast", "ptrtoint", "inttoptr", "sext"):
                self.alu(dst, specs, _ALU_LATENCY, value=vv)
            elif opcode == "zext":
                self.alu(dst, specs, _ALU_LATENCY,
                         value=f"({vv}) & {(1 << fb) - 1}")
            elif opcode == "trunc" and tb == 64:
                self.alu(dst, specs, _ALU_LATENCY, wrapped=f"({vv})")
            elif opcode == "sitofp":
                self.alu(dst, specs, _ALU_LATENCY, value=f"float({vv})")
            elif opcode == "fptosi" and tb == 64:
                self.alu(dst, specs, _ALU_LATENCY, wrapped=f"int({vv})")
            else:
                self.alu(dst, specs, _ALU_LATENCY,
                         value=f"{self.fn_call(fn)}({vv})")
        elif kind == _GEP:
            _, dst, elem, bc, b, ic_, i = inst
            rhs = (f"{self.operand(bc, b)} + "
                   f"{self.operand(ic_, i)} * {elem}")
            self.alu(dst, [(bc, b), (ic_, i)], _ALU_LATENCY, value=rhs)
        elif kind == _LOAD:
            _, dst, pc, pc_const, p, cache = inst
            self.counts["loads"] += 1
            element = self.address((pc_const, p), "load")
            emit(f"{self.reg(dst)} = {element}")
            self.issue_and([(pc_const, p)])
            ready = self.rdy(dst)
            self.demand(pc, is_write=False, ready=ready)
            if self.mode == "inorder":
                emit(f"if {ready} - t > {self.bt}: t = {ready}")
            else:
                self.ooo_retire(ready)
        elif kind == _STORE:
            _, pc, vc, v, pc_const, p, cache = inst
            self.counts["stores"] += 1
            element = self.address((pc_const, p), "store")
            emit(f"{element} = {self.operand(vc, v)}")
            self.issue_and([(vc, v), (pc_const, p)])
            self.demand(pc, is_write=True, ready=None)
            if self.mode == "ooo":
                emit("done = issue + 1.0")
                self.ooo_retire("done")
        elif kind == _PREFETCH:
            _, pc, pc_const, p = inst
            self.counts["prefetches"] += 1
            emit(f"addr = {self.operand(pc_const, p)}")
            self.issue_and([(pc_const, p)])
            # The core resumes at the accept time the walk returns, the
            # issue time on a probe hit: the in-order clock takes it,
            # the OoO core retires the prefetch one cycle after it.
            walk = f"_ms_prefetch({pc}, addr, {self.issue})"
            if self.mode == "inorder":
                walk, hit = f"t = {walk}", None
            else:
                walk, hit = f"done = {walk} + 1.0", "done = issue + 1.0"
            if self.probe is None:
                emit(walk)
            else:
                self.l1_probe(wait=False)
                self.hit_touch("prefetch")
                if hit is not None:
                    emit(f"    {hit}")
                emit("else:")
                emit(f"    {walk}")
            if self.mode == "ooo":
                self.ooo_retire("done")
        else:  # pragma: no cover - callers filter kinds
            raise RuntimeError(f"kind {kind} is not fusable")


def compile_source(src: str, env: dict, entry: str, filename: str):
    """Compile generated source through the shared code cache and
    instantiate it against ``env``; returns the closure ``entry``."""
    exec(_compile_cached(src, filename), env)
    return env[entry]
