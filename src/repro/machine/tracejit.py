"""Trace JIT: compile hot loop paths to closures.

The hot-loop half of the fast engine (``fastpath=True``, the default),
on top of the fused-segment dispatch loop:

1. **Profile** — the interpreter's dispatch loop counts visits to every
   basic block of a function (a superset of back-edge counting: a loop
   header crosses the threshold after :data:`DEFAULT_THRESHOLD`
   iterations).
2. **Record** — once a block is hot, the dispatcher records the dynamic
   block path of one full loop iteration: the sequence of blocks
   executed until control returns to the hot block.  Recording aborts
   (and blacklists the header) when the path leaves the loop (``ret``),
   revisits a non-header block (an inner loop — which gets its own
   trace instead), grows past :data:`_MAX_BLOCKS`/:data:`_MAX_OPS`, or
   contains an unfusable instruction (calls, allocations).
3. **Compile** — the recorded path is compiled to one generated-Python
   closure via the shared :class:`~repro.machine.fastexec._Emitter`,
   with register slots lowered to function locals, the core's
   architectural state hoisted into locals across the whole loop, the
   memory system's hot-line/TLB fast path inlined per site, and phi
   moves emitted as parallel local copies.  The loop then runs as a
   native ``while`` with *no* per-block dispatch until a guard fires.

Guards and deoptimization
-------------------------

* **Side exit** (in-trace): each conditional branch is guarded on its
  recorded direction; a mismatch applies the other edge's phi moves and
  returns control (with the correct successor block) to the fused tier.
* **Cold line / TLB miss / MSHR pressure** (in-trace): the inlined
  hot-line probe falls back to the memory system's one walk
  (``MemorySystem._demand`` / ``MemorySystem.prefetch``) exactly as
  fused segments do — a *local* deoptimization that stays in the trace.
* **Yield budget** (in-trace): traces take the remaining instruction
  budget to the next ``yield_every`` boundary and exit at exactly the
  block boundary the reference engine would yield at, so multicore
  interleaving is schedule-identical.
* **Low yield** (at exit): a trace that keeps side-exiting without
  completing iterations is discarded and its header blacklisted.

Equivalence: compiled traces execute the same arithmetic in the same
order as the fused tier (which replays the reference engine bit-for-
bit); instruction/branch/memory-op counters are charged in bulk at
trace exit with identical totals.  ``tests/test_tracejit.py`` drives
the fast engine against the reference engine.

The JIT runs whenever the fast path does and a machine model is
attached; the reference engine (``fastpath=False``) never traces.
"""

from __future__ import annotations

from ..remarks import emit as remark_emit
from ..telemetry.spans import instant, span
from .fastexec import _Emitter, _FUSABLE, compile_source

#: Budget passed to traces when the run never yields.
NO_BUDGET = 1 << 62

#: Recording limits: a path longer than this is not a profitable loop
#: body (and would specialize an outer loop to one inner trip count).
_MAX_BLOCKS = 64
#: Cap on total ops in a trace (bounds generated-source size).
_MAX_OPS = 2000

_COUNT_LOCALS = (("loads", "_nl"), ("stores", "_nst"),
                 ("prefetches", "_npf"))

#: Hotness threshold (block visits before recording).
DEFAULT_THRESHOLD = 16


class Trace:
    """One compiled trace plus its execution statistics."""

    __slots__ = ("fn", "func", "header", "header_name", "blocks",
                 "ops", "entries", "iters", "insts")

    def __init__(self, func: str, header: int, header_name: str,
                 blocks: int, ops: int):
        self.fn = None
        self.func = func
        self.header = header
        self.header_name = header_name
        self.blocks = blocks
        self.ops = ops
        self.entries = 0
        self.iters = 0
        self.insts = 0

    def report(self) -> dict:
        """Hot-report row (JSON-ready)."""
        return {"function": self.func, "header": self.header_name,
                "blocks": self.blocks, "ops": self.ops,
                "entries": self.entries, "iterations": self.iters,
                "instructions": self.insts}


class FunctionState:
    """Per-compiled-function trace state."""

    __slots__ = ("traces", "counts", "blacklist")

    def __init__(self):
        #: header block index -> compiled :class:`Trace`.
        self.traces: dict[int, Trace] = {}
        #: block index -> visit count (dispatch-tier visits only).
        self.counts: dict[int, int] = {}
        #: headers that must not be (re-)recorded.
        self.blacklist: set[int] = set()


class TraceJIT:
    """The per-interpreter trace-JIT controller.

    :param mode: ``"inorder"`` or ``"ooo"`` (matches the fused tier).
    :param bind: the fuse bindings (``memory``/``stats``/``core``/``ms``).
    """

    def __init__(self, mode: str, bind: dict):
        self.mode = mode
        self.bind = bind
        self.threshold = DEFAULT_THRESHOLD
        self.max_blocks = _MAX_BLOCKS
        self.max_ops = _MAX_OPS
        self._states: dict[str, FunctionState] = {}
        #: every trace ever compiled (for the hot report).
        self.traces: list[Trace] = []
        self.compiles = 0
        self.deopts = 0
        self.aborts = 0

    def state_for(self, compiled) -> FunctionState:
        """The (lazily created) trace state for one compiled function."""
        name = compiled.function.name
        state = self._states.get(name)
        if state is None:
            state = self._states[name] = FunctionState()
        return state

    # -- recording outcomes --------------------------------------------

    def finish(self, compiled, state: FunctionState, path: list[int],
               selfloops: set[int] | None = None) -> Trace | None:
        """Validate a recorded path and compile it; returns the trace.

        ``selfloops`` holds blocks the recorder saw branch straight back
        to themselves (single-block inner loops); they compile to a
        nested ``while`` with both branch directions resolved in-trace.
        """
        header = path[0]
        selfloops = selfloops or set()
        raw = compiled.raw_blocks
        nops = 0
        for pos, bi in enumerate(path):
            insts, term, _charge = raw[bi]
            nxt = path[pos + 1] if pos + 1 < len(path) else header
            kind = term[0]
            if bi in selfloops:
                # A nested while needs a real two-way branch with one
                # self edge and the recorded successor on the other.
                ok = (kind == "br" and not term[1] and bi != nxt
                      and ((term[3] == bi and term[5] == nxt)
                           or (term[5] == bi and term[3] == nxt)))
            elif kind == "jmp":
                ok = term[1] == nxt
            elif kind == "br":
                ok = nxt in (term[3], term[5])
            else:  # ret cannot re-reach the header
                ok = False
            if not ok:
                return self.abort(state, header, "bad-path")
            for inst in insts:
                if inst[0] not in _FUSABLE:
                    return self.abort(state, header, "unfusable")
            nops += len(insts)
        if nops > self.max_ops:
            return self.abort(state, header, "too-many-ops")
        with span("tracejit", "compile", function=compiled.function.name,
                 blocks=len(path), ops=nops):
            trace = self._compile(compiled, path, nops, selfloops)
        state.traces[header] = trace
        self.traces.append(trace)
        self.compiles += 1
        remark_emit("analysis", "trace-jit", "TraceCompiled",
                    function=trace.func, header=trace.header_name,
                    blocks=len(path), ops=nops, nested=len(selfloops),
                    mode=self.mode, fastpath=self.bind["ms"].fastpath)
        instant("tracejit", "TraceCompiled", function=trace.func,
                header=trace.header_name, blocks=len(path), ops=nops)
        return trace

    def abort(self, state: FunctionState, header: int, reason: str
              ) -> None:
        """Abandon a recording and blacklist its header."""
        state.blacklist.add(header)
        self.aborts += 1
        remark_emit("analysis", "trace-jit", "TraceDeopt",
                    header=str(header), reason=reason, stage="record")
        instant("tracejit", "TraceDeopt", header=str(header),
                reason=reason, stage="record")
        return None

    def deopt(self, state: FunctionState, trace: Trace) -> None:
        """Discard a compiled trace that keeps side-exiting without
        completing iterations (``low-yield``) and blacklist its header."""
        state.traces.pop(trace.header, None)
        state.blacklist.add(trace.header)
        self.deopts += 1
        remark_emit("analysis", "trace-jit", "TraceDeopt",
                    function=trace.func, header=trace.header_name,
                    reason="low-yield", stage="run",
                    iterations=trace.iters, entries=trace.entries)
        instant("tracejit", "TraceDeopt", function=trace.func,
                header=trace.header_name, reason="low-yield", stage="run")

    # -- reporting ------------------------------------------------------

    def report(self) -> list[dict]:
        """Per-trace stats, hottest (most instructions) first."""
        rows = [t.report() for t in self.traces]
        rows.sort(key=lambda r: r["instructions"], reverse=True)
        return rows

    # -- the trace compiler --------------------------------------------

    def _compile(self, compiled, path: list[int], nops: int,
                 selfloops: set[int]) -> Trace:
        env: dict = {}
        em = _Emitter(self.mode, self.bind, env, locals_tier=True)
        raw = compiled.raw_blocks
        header = path[0]
        n = len(path)
        have = {field: False for field, _ in _COUNT_LOCALS}
        for pos, bi in enumerate(path):
            insts, term, charge = raw[bi]
            nxt = path[pos + 1] if pos + 1 < n else header
            nested = bi in selfloops
            start = len(em.body)
            before = dict(em.counts)
            for inst in insts:
                em.op(inst)
            em.out(f"_n += {charge}")
            em.out("_nb += 1")
            for field, local in _COUNT_LOCALS:
                delta = em.counts[field] - before[field]
                if delta:
                    have[field] = True
                    em.out(f"{local} += {delta}")
            if nested:
                self._selfloop_tail(em, raw[bi][1], bi)
                body = em.body
                for k in range(start, len(body)):
                    body[k] = "    " + body[k]
                body.insert(start, "while 1:")
                body.insert(start, "_bx = 0")
                em.out("if _bx:")
                em.out(f"    _x = {bi}")
                em.out("    break")
            else:
                self._terminator(em, term, nxt)
            if pos + 1 == n:
                em.out("_it += 1")
            em.out(f"if _n >= budget: _x = {nxt}; break")

        inner = em.body
        em.body = []
        em.core_prologue()
        core_pro = em.body
        em.body = []
        em.core_epilogue()
        core_epi = em.body

        slots = sorted(em.slots)
        lines = ["def _trace(regs, ready, budget):"]
        for s in slots:
            lines.append(f"    r{s} = regs[{s}]")
            lines.append(f"    t{s} = ready[{s}]")
        lines.extend(f"    {line}" for line in core_pro)
        lines.append("    _n = 0")
        lines.append("    _nb = 0")
        lines.append("    _it = 0")
        for field, local in _COUNT_LOCALS:
            if have[field]:
                lines.append(f"    {local} = 0")
        stat_locals = sorted(em.stat_locals)
        for local, _target in stat_locals:
            lines.append(f"    {local} = 0")
        lines.append("    while 1:")
        lines.extend(f"        {line}" for line in inner)
        for s in slots:
            lines.append(f"    regs[{s}] = r{s}")
            lines.append(f"    ready[{s}] = t{s}")
        lines.extend(f"    {line}" for line in core_epi)
        lines.append("    _core.instructions += _n")
        lines.append("    _stats.instructions += _n")
        lines.append("    _stats.branches += _nb")
        for field, local in _COUNT_LOCALS:
            if have[field]:
                lines.append(f"    _stats.{field} += {local}")
        for local, target in stat_locals:
            lines.append(f"    if {local}:")
            lines.append(f"        {target} += {local}")
        lines.append("    _tr.entries += 1")
        lines.append("    _tr.iters += _it")
        lines.append("    _tr.insts += _n")
        lines.append("    return _x, _n")
        src = "\n".join(lines) + "\n"

        trace = Trace(compiled.function.name, header,
                      compiled.block_names[header], n, nops)
        env["_tr"] = trace
        trace.fn = compile_source(src, env, "_trace", "<compiled-trace>")
        return trace

    def _selfloop_tail(self, em: _Emitter, term: tuple, bi: int) -> None:
        """Terminator of a nested single-block loop: no guard exits.

        The loop edge re-enters the nested ``while`` (checking the
        yield budget at the iteration boundary, exactly where the
        reference engine checks it); the other edge breaks out to the
        rest of the trace.  ``_bx`` signals a budget exit to the
        enclosing trace loop (Python has no labelled break).
        """
        _, cc, c, tgt, tmoves, e, emoves = term
        em.branch(em.rdy(c))
        em.out(f"if {em.reg(c)}:")
        if tgt == bi:
            self._moves(em, tmoves, "    ")
            em.out("    if _n >= budget:")
            em.out("        _bx = 1")
            em.out("        break")
            em.out("else:")
            self._moves(em, emoves, "    ")
            em.out("    break")
        else:
            self._moves(em, tmoves, "    ")
            em.out("    break")
            em.out("else:")
            self._moves(em, emoves, "    ")
            em.out("    if _n >= budget:")
            em.out("        _bx = 1")
            em.out("        break")

    def _terminator(self, em: _Emitter, term: tuple, nxt: int) -> None:
        """Branch timing + recorded-direction guard + phi moves."""
        kind = term[0]
        if kind == "jmp":
            _, _tgt, moves = term
            em.branch(None)
            self._moves(em, moves, "")
            return
        _, cc, c, tgt, tmoves, e, emoves = term
        em.branch(None if cc else em.rdy(c))
        cond = repr(c) if cc else em.reg(c)
        if tgt == e:
            # Degenerate branch: both edges reach the same block; only
            # the phi moves depend on the condition, so no guard exit.
            em.out(f"if {cond}:")
            if not self._moves(em, tmoves, "    "):
                em.out("    pass")
            em.out("else:")
            if not self._moves(em, emoves, "    "):
                em.out("    pass")
        elif nxt == tgt:
            em.out(f"if {cond}:")
            if not self._moves(em, tmoves, "    "):
                em.out("    pass")
            em.out("else:")
            self._moves(em, emoves, "    ")
            em.out(f"    _x = {e}")
            em.out("    break")
        else:
            em.out(f"if {cond}:")
            self._moves(em, tmoves, "    ")
            em.out(f"    _x = {tgt}")
            em.out("    break")
            em.out("else:")
            if not self._moves(em, emoves, "    "):
                em.out("    pass")

    @staticmethod
    def _moves(em: _Emitter, moves: tuple, indent: str) -> bool:
        """Parallel-copy phi moves on locals (read all, then write)."""
        if not moves:
            return False
        for k, (dst, c, v) in enumerate(moves):
            em.out(f"{indent}_p{k} = {repr(v) if c else em.reg(v)}")
            em.out(f"{indent}_q{k} = {'0.0' if c else em.rdy(v)}")
        for k, (dst, _c, _v) in enumerate(moves):
            em.out(f"{indent}{em.reg(dst)} = _p{k}")
            em.out(f"{indent}{em.rdy(dst)} = _q{k}")
        return True
