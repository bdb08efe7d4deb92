"""Fused basic-block execution: the interpreter's fast path.

The slot-machine compiler (:mod:`repro.machine.interpreter`) produces one
tuple per instruction and dispatches on an opcode kind in a large
``if``/``elif`` chain, paying a Python-level dispatch plus one or more
core-model method calls per dynamic instruction.  This module rewrites
each basic block's straight-line runs of fusable instructions into a
single generated-Python closure (a *superinstruction*): operand slots,
constants, per-op latencies and the core's issue/retire arithmetic are
baked into the source text, the closure is ``exec``-compiled once, and
the core's architectural state is read at segment entry and written back
at segment exit — one core interaction per segment instead of one method
call per instruction.  Common 64-bit integer wrap-around arithmetic,
comparisons and casts are emitted as inline expressions (no closure
call), and the memory system's hot-line hit path (see
:class:`~repro.machine.system.MemorySystem`) is inlined into the segment
with the full-walk call as the fallback.

The per-op code generation lives in :class:`_Emitter`, which is
parametrized over operand naming so the same emission logic serves both
halves of the fast engine:

* **fused segments** (this module) address the interpreter's register
  file directly (``regs[i]`` / ``ready[i]``);
* **compiled traces** (:mod:`repro.machine.tracejit`) of hot loops
  lower register slots to function locals (``r{i}`` / ``t{i}``) and
  splice whole loop iterations — ops, terminators, phi moves — into one
  closure.

Equivalence contract
--------------------

The generated code replays *exactly* the arithmetic of the slow path, in
the same order, on the same floats:

* ``InOrderCore.op/load/store/prefetch`` and
  ``OutOfOrderCore._fetch/_retire`` are transcribed operation-for-
  operation (``max(a, b)`` becomes the equivalent compare-and-assign),
  so cycle counts are bit-identical;
* the inlined hit path performs the same LRU touches, hit counters,
  dirty marking and prefetcher training the full hierarchy walk would,
  and falls back to the real walk whenever its guards fail;
* division/modulo by compile-time power-of-two machine parameters
  (line size, set count) is emitted as shifts/masks — identical results
  for every int under Python's floor-division semantics;
* instruction counters are charged in bulk with the same totals.

The only observable difference is *when* ``RunStats`` memory-op counters
are incremented: the slow path counts per instruction, segments count at
segment end.  A run that raises ``MemoryFault`` mid-segment therefore
leaves slightly different in-flight counters behind — completed runs are
indistinguishable.

Calls and allocations are never fused (they recurse into the interpreter
or mutate the address space layout); they split a block into several
segments and stay on the dispatch path.

``Interpreter(fastpath=False)`` disables fusion (and the memory-system
hot-line memo) and forces the reference slow path everywhere.

Telemetry interaction: attaching a
:class:`~repro.telemetry.TelemetryCollector` clears the memory system's
``fastpath`` flag, so the emitter sees ``ms.fastpath`` false and emits
plain ``_ms_load``/``_ms_store``/``_ms_prefetch`` calls instead of the
inlined hot-line hit path — every memory operation then takes the
instrumented reference walk while ALU fusion stays on.  With telemetry
off (the default) nothing here changes: the generated code replays the
same arithmetic it did before telemetry existed, so the fast path pays
zero cost for the feature.
"""

from __future__ import annotations

from ..telemetry.spans import span
from .memory import MemoryFault

# Compiled opcode kinds (shared with the interpreter, which imports them
# from here so the two modules cannot drift apart).
_BIN, _CMP, _SELECT, _CAST, _GEP, _LOAD, _STORE, _PREFETCH, _CALL, \
    _ALLOC = range(10)
#: Kind tag of a fused segment: ``(SEG, closure)``.
_SEG = 10

#: Kinds that may be folded into a fused segment (or a compiled trace).
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

#: Source text -> compiled code object.  Source embeds every constant
#: (slots, pcs, latencies, machine parameters) but no object identities,
#: so one code object serves every interpreter with the same block shape.
_CODE_CACHE: dict[str, object] = {}


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


def fuse_function(compiled, mode: str, bindings: dict) -> None:
    """Rewrite ``compiled.blocks`` in place, fusing instruction runs.

    The pre-fusion blocks are stashed as ``compiled.raw_blocks`` so the
    trace JIT (:mod:`repro.machine.tracejit`) can recompile hot loop
    paths from the original instruction tuples.

    :param compiled: a :class:`~repro.machine.interpreter._CompiledFunction`.
    :param mode: ``"func"`` (no timing), ``"inorder"`` or ``"ooo"``.
    :param bindings: runtime objects generated code binds to: ``memory``
        (:class:`Memory`), ``stats`` (:class:`RunStats`), and for timed
        modes ``core`` and ``ms`` (the :class:`MemorySystem`).
    """
    with span("compile", "fuse", function=compiled.function.name,
              mode=mode, blocks=len(compiled.blocks)):
        compiled.raw_blocks = compiled.blocks
        compiled.blocks = [
            (_fuse_block(insts, mode, bindings), term, count)
            for insts, term, count in compiled.blocks]


def _fuse_block(insts: list, mode: str, bindings: dict) -> list:
    items: list = []
    run: list = []
    for inst in insts:
        if inst[0] in _FUSABLE:
            run.append(inst)
        else:
            if run:
                items.append((_SEG, _compile_segment(run, mode, bindings)))
                run = []
            items.append(inst)
    if run:
        items.append((_SEG, _compile_segment(run, mode, bindings)))
    return items


class _Emitter:
    """Generates the specialized Python source for fusable ops.

    One instance accumulates source lines (:attr:`body`) and runtime
    bindings (:attr:`env`) for a single generated closure.  The operand
    naming is the only thing segments and traces disagree on:

    * ``locals_tier=False`` (fused segments): operands address the
      interpreter's register file, ``regs[i]`` / ``ready[i]``;
    * ``locals_tier=True`` (compiled traces): operands are function
      locals ``r{i}`` / ``t{i}``; every slot touched is recorded in
      :attr:`slots` so the trace assembler can emit the load/store
      prologue and epilogue.

    All timing arithmetic (issue/retire, hot-line probe, blocking
    thresholds) is identical between the two — it is the transcription of
    the core and memory-system models documented in the module
    docstring.
    """

    def __init__(self, mode: str, bind: dict, env: dict,
                 locals_tier: bool = False):
        self.mode = mode
        self.timed = mode != "func"
        self.env = env
        self.body: list[str] = []
        self.locals_tier = locals_tier
        self.slots: set[int] = set()
        self.counts = {"loads": 0, "stores": 0, "prefetches": 0}
        self.site = 0
        self._nfn = 0
        self.hot = None
        self.stat_locals: set[tuple[str, str]] = set()
        env["_MF"] = MemoryFault
        env["_alloc_at"] = bind["memory"].allocation_at
        env["_stats"] = bind["stats"]
        if not self.timed:
            return
        core = bind["core"]
        ms = bind["ms"]
        env["_core"] = core
        env["_ms_load"] = ms.load
        env["_ms_store"] = ms.store
        env["_ms_prefetch"] = ms.prefetch
        self.ic = repr(core.issue_cost)
        if mode == "inorder":
            self.bt = repr(core._block_threshold)
        else:
            env["_rob"] = core._rob
            self.nrob = len(core._rob)
        if ms.fastpath:
            # Bindings for the inlined hot-line hit path.  All of these
            # objects are stable for the MemorySystem's lifetime (flush
            # clears them in place).
            l1 = ms.caches[0]
            env.update(_hotget=ms._hot.get, _l1s=l1._sets,
                       _tp=ms.tlb._pages,
                       _mst=ms.stats, _tst=ms.tlb.stats,
                       _l1st=l1.stats, _pf=ms.prefetcher,
                       _observe=ms.prefetcher.observe,
                       _hwfill=ms._issue_hw_fills,
                       _ms_demand=ms._demand_fast,
                       _ms_pfmiss=ms._prefetch_miss_fast)
            # Per-level L1-below set arrays for inlined dirty marking.
            self.dirty = []
            for i, c in enumerate(ms.caches[1:]):
                env[f"_ds{i}"] = c._sets
                self.dirty.append(
                    (f"_ds{i}", _mod_expr("line", c.num_sets)))
            self.hot = {
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
        if self.locals_tier:
            self.slots.add(slot)
            return f"r{slot}"
        return f"regs[{slot}]"

    def rdy(self, slot: int) -> str:
        if self.locals_tier:
            self.slots.add(slot)
            return f"t{slot}"
        return f"ready[{slot}]"

    def operand(self, is_const: bool, payload) -> str:
        """Source text of one pre-resolved operand."""
        return repr(payload) if is_const else self.reg(payload)

    def fn_call(self, fn) -> str:
        name = f"_f{self._nfn}"
        self._nfn += 1
        self.env[name] = fn
        return name

    # -- core-model transcription --------------------------------------

    def core_prologue(self) -> None:
        """Load the core's architectural state into locals."""
        if self.mode == "inorder":
            self.out("t = _core.time")
        else:
            self.out("head = _core._rob_head")
            self.out("ft = _core.fetch_time")
            self.out("lr = _core._last_retire")
            self.out("cm = _core.completion_max")

    def core_epilogue(self) -> None:
        """Write the locals back to the core."""
        if self.mode == "inorder":
            self.out("_core.time = t")
        else:
            self.out("_core._rob_head = head")
            self.out("_core.fetch_time = ft")
            self.out("_core._last_retire = lr")
            self.out("_core.completion_max = cm")

    def ooo_retire(self, done: str) -> None:
        emit = self.out
        emit(f"if {done} > lr: lr = {done}")
        emit("_rob[head] = lr")
        emit("head += 1")
        emit(f"if head == {self.nrob}: head = 0")
        emit(f"if {done} > cm: cm = {done}")

    def issue_and(self, specs) -> None:
        """Issue time for one op into ``issue``: the core clock advance
        with each non-const operand's ready time folded in directly
        (``max`` is assoc/commutative, so folding the operand compares
        into the issue compare chain is bit-identical to computing
        ``dep = max(ready...)`` first, with fewer temporaries)."""
        emit = self.out
        if self.mode == "inorder":
            emit(f"issue = t + {self.ic}")
        else:
            # _fetch(): fetch = max(ft + ic, rob[head]); ft = fetch.
            emit(f"issue = ft + {self.ic}")
            emit("_s = _rob[head]")
            emit("if _s > issue: issue = _s")
            emit("ft = issue")
        for c, v in specs:
            if not c:
                r = self.rdy(v)
                emit(f"if {r} > issue: issue = {r}")

    def branch(self, dep: str | None) -> None:
        """``core.branch(dep)`` with core state in locals (trace tier).

        ``dep`` is a source expression for the condition's ready time,
        or ``None`` for a constant condition (dep 0.0, which never
        dominates the non-negative clock)."""
        emit = self.out
        if self.mode == "inorder":
            emit(f"t += {self.ic}")
            if dep is not None:
                emit(f"if {dep} > t: t = {dep}")
        else:
            emit(f"issue = ft + {self.ic}")
            emit("_s = _rob[head]")
            emit("if _s > issue: issue = _s")
            emit("ft = issue")
            if dep is not None:
                emit(f"if {dep} > issue: issue = {dep}")
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
        if not self.timed:
            return
        self.issue_and(specs)
        if self.mode == "inorder":
            emit("t = issue")
            emit(f"{self.rdy(dst)} = issue + {lat!r}")
        else:
            emit(f"done = issue + {lat!r}")
            self.ooo_retire("done")
            emit(f"{self.rdy(dst)} = done")

    # -- memory-system transcription -----------------------------------

    def address(self, ptr_spec, site: int, op_name: str) -> None:
        """Resolve ``addr``; leaves the site memo in ``_m``.

        ``_m`` is ``[alloc, base, end, element_size, data]`` — richer
        than the dispatch path's one-slot allocation memo so the hot
        case needs no attribute (or property) lookups.
        """
        emit = self.out
        emit(f"addr = {self.operand(*ptr_spec)}")
        emit(f"_m = _c{site}")
        emit("if addr < _m[1] or addr >= _m[2]:")
        emit("    _a = _alloc_at(addr)")
        emit("    _m[0] = _a")
        emit("    _m[1] = _a.base")
        emit("    _m[2] = _a.end")
        emit("    _m[3] = _a.element_size")
        emit("    _m[4] = _a.data")
        emit("_q, _r = divmod(addr - _m[1], _m[3])")
        emit("if _r:")
        emit(f"    raise _MF('misaligned {op_name} at %#x' % addr)")

    def hot_probe(self) -> str:
        """Guard expression: line resident in L1 + page in L1 TLB."""
        hot = self.hot
        return (f"entry is not None and entry[0] <= issue and "
                f"(lines := _l1s[{hot['set']}]).get(line) is entry "
                f"and {hot['page']} in _tp")

    def stat(self, target: str, local: str) -> str:
        """One monotone counter bump.

        Fused segments bump the stats object directly; traces batch
        into a function local the assembler flushes at trace exit (the
        counters are write-only during a run, so only the mid-run
        ``MemoryFault`` caveat from the module docstring widens).
        """
        if self.locals_tier:
            self.stat_locals.add((local, target))
            return f"{local} += 1"
        return f"{target} += 1"

    def hot_touch(self) -> None:
        """LRU touches + hit counters of the replayed L1/TLB hit."""
        emit = self.out
        emit("    del _tp[page]")
        emit("    _tp[page] = None")
        emit(f"    {self.stat('_tst.hits', '_nth')}")
        emit("    del lines[line]")
        emit("    lines[line] = entry")

    def train(self, pc: int, indent: str) -> None:
        """Inlined ``_train_hw_prefetcher``: observe + rare fill issue."""
        emit = self.out
        emit(f"{indent}if line != _pf._last_line:")
        emit(f"{indent}    _fl = _observe({pc}, line)")
        emit(f"{indent}    if _fl:")
        emit(f"{indent}        _hwfill(_fl, issue)")

    def demand(self, pc: int, is_write: bool) -> None:
        """``rdy = <memory system demand access at issue>``."""
        emit = self.out
        hot = self.hot
        ms_call = "_ms_store" if is_write else "_ms_load"
        if hot is None:
            emit(f"rdy = {ms_call}({pc}, addr, issue)")
            return
        emit(f"line = {hot['line']}")
        emit("entry = _hotget(line)")
        emit(f"if {self.hot_probe()}:")
        emit(f"    {self.stat('_mst.demand_accesses', '_nda')}")
        self.hot_touch()
        emit(f"    {self.stat('_l1st.hits', '_nl1')}")
        if is_write:
            emit("    entry[1] = True")
            for sets_name, set_expr in self.dirty:
                emit(f"    _e = {sets_name}[{set_expr}].get(line)")
                emit("    if _e is not None:")
                emit("        _e[1] = True")
        self.train(pc, "    ")
        emit(f"    rdy = issue + {hot['lat']}")
        emit("else:")
        # The guard above replicates load()/store()'s own memo probe, so
        # on failure go straight to the inlined miss walk.
        emit(f"    rdy = _ms_demand({pc}, addr, issue, {is_write})")

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
            self.env[f"_c{self.site}"] = [None, 0, -1, 1, None]
            self.address((pc_const, p), self.site, "load")
            self.site += 1
            emit(f"{self.reg(dst)} = _m[4][_q]")
            if self.timed:
                self.issue_and([(pc_const, p)])
                self.demand(pc, is_write=False)
                if self.mode == "inorder":
                    emit(f"if rdy - issue > {self.bt}:")
                    emit("    t = rdy")
                    emit("else:")
                    emit("    t = issue")
                else:
                    self.ooo_retire("rdy")
                emit(f"{self.rdy(dst)} = rdy")
        elif kind == _STORE:
            _, pc, vc, v, pc_const, p, cache = inst
            self.counts["stores"] += 1
            self.env[f"_c{self.site}"] = [None, 0, -1, 1, None]
            self.address((pc_const, p), self.site, "store")
            self.site += 1
            emit(f"_m[4][_q] = {self.operand(vc, v)}")
            if self.timed:
                self.issue_and([(vc, v), (pc_const, p)])
                self.demand(pc, is_write=True)
                if self.mode == "inorder":
                    emit("t = issue")
                else:
                    emit("done = issue + 1.0")
                    self.ooo_retire("done")
        elif kind == _PREFETCH:
            _, pc, pc_const, p = inst
            self.counts["prefetches"] += 1
            emit(f"addr = {self.operand(pc_const, p)}")
            if self.timed:
                self.issue_and([(pc_const, p)])
                hot = self.hot
                if hot is None:
                    emit(f"acc = _ms_prefetch({pc}, addr, issue)")
                else:
                    # Replay of MemorySystem.prefetch's fast path: an
                    # L1-resident line never waits, so no fill check.
                    emit(f"line = {hot['line']}")
                    emit("entry = _hotget(line)")
                    emit("if entry is not None and "
                         f"(lines := _l1s[{hot['set']}]).get(line)"
                         " is entry and "
                         f"{hot['page']} in _tp:")
                    emit(f"    {self.stat('_mst.sw_prefetches', '_nsp')}")
                    self.hot_touch()
                    emit("    acc = issue")
                    emit("else:")
                    emit(f"    acc = _ms_pfmiss({pc}, addr, line, issue)")
                if self.mode == "inorder":
                    emit("t = acc")
                else:
                    emit("done = acc + 1.0")
                    self.ooo_retire("done")
        else:  # pragma: no cover - callers filter kinds
            raise RuntimeError(f"kind {kind} is not fusable")


def compile_source(src: str, env: dict, entry: str, filename: str):
    """Compile generated source through the shared code cache and
    instantiate it against ``env``; returns the closure ``entry``."""
    code = _CODE_CACHE.get(src)
    if code is None:
        code = compile(src, filename, "exec")
        _CODE_CACHE[src] = code
    exec(code, env)
    return env[entry]


def _compile_segment(ops: list, mode: str, bind: dict):
    """Generate, compile and instantiate the closure for one run."""
    env: dict = {}
    em = _Emitter(mode, bind, env)
    if em.timed:
        em.core_prologue()
    for inst in ops:
        em.op(inst)
    if em.timed:
        em.core_epilogue()
        em.out(f"_core.instructions += {len(ops)}")
    for field, n in em.counts.items():
        if n:
            em.out(f"_stats.{field} += {n}")

    src = "def _seg(regs, ready):\n" + "".join(
        f"    {line}\n" for line in em.body)
    return compile_source(src, env, "_seg", "<fused-segment>")
