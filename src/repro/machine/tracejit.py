"""Trace JIT: compile hot loop nests to closures.

The hot-loop half of the fast engine (``fastpath=True``, the default);
every block outside a trace runs on the interpreter's reference
dispatch loop:

1. **Profile** — the interpreter's dispatch loop counts visits to every
   basic block of a function (a superset of back-edge counting: a loop
   header crosses the threshold after :data:`DEFAULT_THRESHOLD`
   iterations).  Only a block that heads a natural loop records.
2. **Record** — once a header is hot, a :class:`Recording` follows the
   dispatcher until control returns to it, keeping a *path tree*: the
   blocks of one iteration in visit order, in which a nested loop is a
   sub-list holding one iteration of its own.  Control re-entering a
   recorded block is what shows that block heads a nested loop: the
   blocks from it on fold into a sub-list, and the nested loop's later
   iterations run unrecorded (on its own trace, if it has one) until
   control leaves its natural loop.  An iteration that leaves the
   header's loop (a ``break``, or an inner loop's last trip) is
   dropped, and the header records again at its next visit.
   Recording aborts (and blacklists the header) on a block with an
   unfusable instruction (a call or an allocation), a nest of more than
   :data:`_MAX_BLOCKS` blocks or :data:`_MAX_DEPTH` levels, or a
   re-entry of a block that heads no natural loop (irreducible flow)
   or of a nested loop the path already left.
3. **Compile** — the tree is compiled to one generated-Python closure
   via :class:`~repro.machine.fastexec._Emitter`, with
   register slots lowered to function locals, the core's architectural
   state hoisted into locals across the whole nest, an L1 hit probe
   inlined per memory site, and phi moves emitted as parallel local
   copies.  Every loop of the tree runs as a native ``while`` with
   *no* per-block dispatch until a guard fires.  The IR constants
   (operands, phi-move sources, constant branch conditions) are
   locals the trace reads at entry, so its source depends only on the
   nest's shape and the machine, and ``compile()`` runs once per shape
   in a process (:func:`~repro.machine.fastexec.compile_source`):
   another look-ahead or input size reuses the code object; each
   interpreter still records and emits its own traces.

Branches
--------

Each conditional branch of a recorded block is an in-trace
``if``/``else`` carrying both edges' phi moves, the branch's timing
and the block charges and counters of whatever it runs.  The recorded
edge continues along the tree; the other edge is compiled by where it
leads:

* **arm** — through at most :data:`_MAX_ARM` fusable ``jmp``-terminated
  blocks to a block later in the same iteration (an if-then or
  if-then-else): the arm's blocks are compiled into their side of the
  ``if`` and both sides rejoin;
* **back edge** — through such blocks to its own loop's header:
  ``continue``;
* **loop exit** — from a nested loop to the block the tree continues
  with after it: ``break``;
* **side exit** — anywhere else (out of the traced nest, into
  unfusable code, or to a join that does not nest): the edge's phi
  moves are applied and control returns to the dispatch loop with the
  correct successor block.

Guards and deoptimization
-------------------------

* **Side exit** (in-trace): as above.
* **Cold line / in-flight fill / L1-TLB miss** (in-trace): the inlined
  L1 hit probe falls back to the memory system's one walk
  (``MemorySystem._demand`` / ``MemorySystem.prefetch``) — a *local*
  deoptimization that stays in the trace.
* **Yield budget** (in-trace): traces take the remaining instruction
  budget to the next ``yield_every`` boundary and exit at exactly the
  block boundary the reference engine would yield at, so multicore
  interleaving is schedule-identical.
* **Low yield** (at exit): a trace that keeps side-exiting without
  completing iterations is discarded and its header blacklisted.

A side exit and the budget leave the same way from any depth: the code
sets ``_x`` to the successor block and breaks, and every enclosing
``while`` breaks on ``_x >= 0`` (``_x`` is ``-1`` while the trace runs,
so it is also the break flag).

Equivalence: compiled traces execute the same arithmetic in the same
order as the dispatch loop (the contract of
:mod:`repro.machine.fastexec`); instruction/branch/memory-op counters
are charged in bulk at trace exit with identical totals.
``tests/test_tracejit.py`` drives the fast engine against the reference
engine.

The JIT runs whenever the fast engine does and a machine model is
attached; the reference engine (``fastpath=False``) and functional runs
never trace.
"""

from __future__ import annotations

from ..analysis.loops import LoopInfo
from ..obs.sinks import instant, span
from ..remarks import emit as remark_emit
from .fastexec import _Emitter, _FUSABLE, compile_source

#: Budget passed to traces when the run never yields.
NO_BUDGET = 1 << 62

#: Recording limits.  A nested loop keeps one recorded iteration however
#: often it runs, so these bound the nest's size, not its trip counts:
#: distinct blocks recorded, and loops nested inside one another (the
#: generated ``while`` statements must stay inside Python's static
#: nesting limit).
_MAX_BLOCKS = 64
_MAX_DEPTH = 8
#: Cap on total ops in a trace, arms included (bounds generated-source
#: size).
_MAX_OPS = 2000
#: Longest run of ``jmp``-terminated blocks one arm compiles.
_MAX_ARM = 4

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

    __slots__ = ("traces", "counts", "blacklist", "loops")

    def __init__(self):
        #: header block index -> compiled :class:`Trace`.
        self.traces: dict[int, Trace] = {}
        #: block index -> visit count (dispatch-tier visits only).
        self.counts: dict[int, int] = {}
        #: headers that must not be (re-)recorded.
        self.blacklist: set[int] = set()
        #: natural-loop header -> block indices of its loop; built at
        #: the function's first hot block.
        self.loops: dict[int, frozenset[int]] | None = None


def _natural_loops(func) -> dict[int, frozenset[int]]:
    index = {id(block): i for i, block in enumerate(func.blocks)}
    return {index[id(loop.header)]:
            frozenset(index[id(block)] for block in loop.blocks)
            for loop in LoopInfo(func).loops}


def _fusable(compiled, block: int) -> bool:
    return all(inst[0] in _FUSABLE for inst in compiled.blocks[block][0])


def _entry(item) -> int:
    """The block a path-tree item starts with."""
    return item[0] if isinstance(item, list) else item


def _depth(tree: list) -> int:
    return 1 + max((_depth(item) for item in tree
                    if isinstance(item, list)), default=0)


class Recording:
    """One recording in progress (step 2 of the module docstring),
    started by :meth:`TraceJIT.record`.  The dispatcher calls
    :meth:`visit` with every block it executes after the header until
    it returns ``True``."""

    __slots__ = ("jit", "compiled", "state", "tree", "body", "seen",
                 "skip")

    def __init__(self, jit: "TraceJIT", compiled, state: FunctionState,
                 header: int):
        self.jit = jit
        self.compiled = compiled
        self.state = state
        #: the path tree: block indices in visit order, header first; a
        #: closed nested loop is a sub-list of the same shape.
        self.tree = [header]
        #: the header's natural loop, which a recorded iteration stays in.
        self.body = state.loops[header]
        self.seen = {header}
        #: the natural loop of the nested loop now running unrecorded.
        self.skip: frozenset[int] | None = None

    def visit(self, block: int) -> bool:
        """Record one dispatched block; ``True`` once the recording is
        over (compiled, aborted or dropped)."""
        tree = self.tree
        if block == tree[0]:
            self.jit.finish(self.compiled, self.state, tree)
            return True
        if block not in self.body:
            # The iteration left the loop (a break, or the last trip of
            # an inner loop): record again at the header's next visit.
            self.state.counts[tree[0]] = DEFAULT_THRESHOLD - 1
            return True
        if self.skip is not None:
            if block in self.skip:
                return False
            self.skip = None
        reason = self._extend(block)
        if reason is None:
            return False
        self.jit.abort(self.compiled, self.state, tree[0], reason)
        return True

    def _extend(self, block: int) -> str | None:
        """Add ``block`` to the tree; the abort reason if it cannot."""
        tree = self.tree
        if block not in self.seen:
            if len(self.seen) >= _MAX_BLOCKS:
                return "too-long"
            if not _fusable(self.compiled, block):
                return "unfusable"
            self.seen.add(block)
            tree.append(block)
            return None
        # Control re-entered a recorded block: the items from it on are
        # one iteration of the nested loop it heads.
        body = self.state.loops.get(block)
        if body is None or block not in tree:
            return "irreducible"
        pos = tree.index(block)
        tree[pos:] = [tree[pos:]]
        self.skip = body
        return None


class TraceJIT:
    """The per-interpreter trace-JIT controller.

    :param mode: ``"inorder"`` or ``"ooo"``, the interpreter's core model.
    :param bind: the runtime objects traces bind to
        (``memory``/``stats``/``core``/``ms``; see :class:`_Emitter`).
    """

    def __init__(self, mode: str, bind: dict):
        self.mode = mode
        self.bind = bind
        self._states: dict[str, FunctionState] = {}
        #: every trace ever compiled (for the hot report).
        self.traces: list[Trace] = []
        self.deopts = 0
        self.aborts = 0

    def state_for(self, compiled) -> FunctionState:
        """The (lazily created) trace state for one compiled function."""
        name = compiled.function.name
        state = self._states.get(name)
        if state is None:
            state = self._states[name] = FunctionState()
        return state

    # -- recording -------------------------------------------------------

    def record(self, compiled, state: FunctionState, header: int
               ) -> Recording | None:
        """Start recording at a hot block; ``None`` when the block heads
        no natural loop (it lies inside one: its header records it) or
        cannot be traced."""
        if state.loops is None:
            state.loops = _natural_loops(compiled.function)
        if header not in state.loops:
            return None
        if not _fusable(compiled, header):
            return self.abort(compiled, state, header, "unfusable")
        return Recording(self, compiled, state, header)

    def finish(self, compiled, state: FunctionState, tree: list
               ) -> Trace | None:
        """Compile a recorded path tree; returns the trace."""
        header = tree[0]
        if _depth(tree) > _MAX_DEPTH:
            return self.abort(compiled, state, header, "too-deep")
        env: dict = {}
        asm = _Assembler(_Emitter(self.mode, self.bind, env),
                         compiled.blocks)
        asm.loop(tree, None)
        if asm.ops > _MAX_OPS:
            return self.abort(compiled, state, header, "too-many-ops")
        with span("tracejit", "compile", function=compiled.function.name,
                  blocks=asm.blocks, ops=asm.ops):
            trace = self._assemble(compiled, header, asm, env)
        state.traces[header] = trace
        self.traces.append(trace)
        remark_emit("analysis", "trace-jit", "TraceCompiled",
                    function=trace.func, header=trace.header_name,
                    blocks=asm.blocks, ops=asm.ops, nested=asm.nested,
                    arms=asm.arms, mode=self.mode)
        instant("tracejit", "TraceCompiled", function=trace.func,
                header=trace.header_name, blocks=asm.blocks, ops=asm.ops)
        return trace

    def abort(self, compiled, state: FunctionState, header: int,
              reason: str) -> None:
        """Abandon a recording and blacklist its header."""
        state.blacklist.add(header)
        self.aborts += 1
        function = compiled.function.name
        name = compiled.block_names[header]
        remark_emit("analysis", "trace-jit", "TraceDeopt",
                    function=function, header=name, reason=reason,
                    stage="record")
        instant("tracejit", "TraceDeopt", function=function, header=name,
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

    def _assemble(self, compiled, header: int, asm: "_Assembler",
                  env: dict) -> Trace:
        """Wrap the emitted loop nest in the trace function."""
        em = asm.em
        inner = em.body
        em.body = []
        em.prologue()
        em_pro = em.body
        em.body = []
        em.epilogue()
        em_epi = em.body

        slots = sorted(em.slots)
        lines = ["def _trace(regs, ready, budget):"]
        for s in slots:
            lines.append(f"    r{s} = regs[{s}]")
            lines.append(f"    t{s} = ready[{s}]")
        lines.extend(f"    {line}" for line in em_pro)
        lines.append("    _n = 0")
        lines.append("    _nb = 0")
        lines.append("    _it = 0")
        lines.append("    _x = -1")
        for field, local in _COUNT_LOCALS:
            if asm.have[field]:
                lines.append(f"    {local} = 0")
        lines.append("    while 1:")
        lines.extend(f"        {line}" for line in inner)
        for s in slots:
            lines.append(f"    regs[{s}] = r{s}")
            lines.append(f"    ready[{s}] = t{s}")
        lines.extend(f"    {line}" for line in em_epi)
        lines.append("    _core.instructions += _n")
        lines.append("    _stats.instructions += _n")
        lines.append("    _stats.branches += _nb")
        for field, local in _COUNT_LOCALS:
            if asm.have[field]:
                lines.append(f"    _stats.{field} += {local}")
        lines.append("    _tr.entries += 1")
        lines.append("    _tr.iters += _it")
        lines.append("    _tr.insts += _n")
        lines.append("    return _x, _n")
        src = "\n".join(lines) + "\n"

        trace = Trace(compiled.function.name, header,
                      compiled.block_names[header], asm.blocks, asm.ops)
        env["_tr"] = trace
        trace.fn = compile_source(src, env, "_trace", "<compiled-trace>")
        return trace


class _Frame:
    """One loop of the path tree while it is emitted."""

    __slots__ = ("items", "exit")

    def __init__(self, items: list, exit_: int | None):
        self.items = items
        #: the block the enclosing loop continues with after this one
        #: (``None`` for the trace's own loop, which only side-exits).
        self.exit = exit_


class _Assembler:
    """Emits the body of one trace from a recorded path tree (see
    "Branches" in the module docstring)."""

    def __init__(self, em: _Emitter, code: list):
        self.em = em
        #: the compiled function's blocks (``_CompiledFunction.blocks``).
        self.code = code
        self.blocks = 0
        self.ops = 0
        self.nested = 0
        self.arms = 0
        self.have = {field: False for field, _ in _COUNT_LOCALS}

    def loop(self, items: list, exit_: int | None) -> None:
        """One iteration of the loop ``items`` (its header first)."""
        self.seq(_Frame(items, exit_), 0, len(items))

    def seq(self, f: _Frame, lo: int, hi: int) -> None:
        """``f.items[lo:hi]``, each with its outgoing edges."""
        items = f.items
        pos = lo
        while pos < hi:
            item = items[pos]
            nxt = _entry(items[pos + 1]) if pos + 1 < len(items) \
                else items[0]
            if isinstance(item, list):
                start = len(self.em.body)
                self.loop(item, nxt)
                self.indent(start)
                self.em.body.insert(start, "while 1:")
                self.em.out("if _x >= 0: break")
                self.nested += 1
                self.arrive(f, nxt, recorded=True)
                pos += 1
            else:
                pos = self.block(f, pos, hi, item, nxt)

    def block(self, f: _Frame, pos: int, hi: int, bi: int, nxt: int
              ) -> int:
        """Block ``bi`` at ``f.items[pos]`` and its terminator; returns
        the position emission continues at."""
        em = self.em
        self.emit_block(bi)
        term = self.code[bi][1]
        if term[0] == "jmp":
            em.branch(None)
            self.moves(term[2])
            self.arrive(f, nxt, recorded=True)
            return pos + 1
        _, cc, c, tgt, tmoves, e, emoves = term
        em.branch(None if cc else em.rdy(c))
        cond = em.operand(cc, c)
        if tgt == e:
            # Both edges reach one block; only the phi moves differ.
            self.suite(f"if {cond}:", self.moves, tmoves)
            self.suite("else:", self.moves, emoves)
            self.arrive(f, nxt, recorded=True)
            return pos + 1
        other = e if tgt == nxt else tgt
        joins = {_entry(f.items[q]): q
                 for q in range(pos + 1, min(hi + 1, len(f.items)))}
        chain, join = self.arm(f, other, joins)
        q = joins.get(join)

        def recorded(moves):
            self.moves(moves)
            self.arrive(f, nxt, recorded=True)
            if q is not None:
                self.seq(f, pos + 1, q)

        def taken(moves):
            self.moves(moves)
            self.leave(f, other, chain, join, q is not None)

        if tgt == nxt:
            self.suite(f"if {cond}:", recorded, tmoves)
            self.suite("else:", taken, emoves)
        else:
            self.suite(f"if {cond}:", taken, tmoves)
            self.suite("else:", recorded, emoves)
        if q is None:
            return pos + 1
        self.arms += 1
        return q

    def arm(self, f: _Frame, block: int, joins: dict
            ) -> tuple[list[int], int]:
        """Follow fusable ``jmp``-terminated blocks from ``block`` until
        a join, the loop's header or exit; returns (those blocks, the
        block they lead to)."""
        chain: list[int] = []
        while block not in joins and block != f.items[0] \
                and block != f.exit and len(chain) < _MAX_ARM:
            insts, term, _charge = self.code[block]
            if term[0] != "jmp" or any(inst[0] not in _FUSABLE
                                       for inst in insts):
                break
            chain.append(block)
            block = term[1]
        return chain, block

    def leave(self, f: _Frame, other: int, chain: list[int], join: int,
              joined: bool) -> None:
        """The unrecorded edge of a branch, after its phi moves."""
        if not joined and join != f.items[0] and join != f.exit:
            self.em.out(f"_x = {other}")
            self.em.out("break")
            return
        for bi in chain:
            self.arrive(f, bi, recorded=False)
            self.emit_block(bi)
            self.em.branch(None)
            self.moves(self.code[bi][1][2])
        self.arrive(f, join, recorded=False)

    def arrive(self, f: _Frame, target: int, recorded: bool) -> None:
        """Reaching ``target`` inside loop ``f``: ``break`` on the loop's
        exit, else the yield-budget check (the reference engine's yield
        point), counting an iteration of the trace loop and ending an
        early one on a back edge."""
        em = self.em
        if target == f.exit:
            em.out("break")
            return
        back = target == f.items[0]
        if back and f.exit is None:
            em.out("_it += 1")
        em.out(f"if _n >= budget: _x = {target}; break")
        if back and not recorded:
            em.out("continue")

    def emit_block(self, bi: int) -> None:
        """A block's ops, instruction charge and counters."""
        em = self.em
        insts, _term, charge = self.code[bi]
        before = dict(em.counts)
        for inst in insts:
            em.op(inst)
        em.out(f"_n += {charge}")
        em.out("_nb += 1")
        for field, local in _COUNT_LOCALS:
            delta = em.counts[field] - before[field]
            if delta:
                self.have[field] = True
                em.out(f"{local} += {delta}")
        self.blocks += 1
        self.ops += len(insts)

    def moves(self, moves: tuple) -> None:
        """Parallel-copy phi moves on locals (read all, then write)."""
        em = self.em
        for k, (_dst, c, v) in enumerate(moves):
            em.out(f"_p{k} = {em.operand(c, v)}")
            em.out(f"_q{k} = {'0.0' if c else em.rdy(v)}")
        for k, (dst, _c, _v) in enumerate(moves):
            em.out(f"{em.reg(dst)} = _p{k}")
            em.out(f"{em.rdy(dst)} = _q{k}")

    def suite(self, head: str, fn, *args) -> None:
        """``head`` plus the indented lines ``fn(*args)`` emits."""
        em = self.em
        em.out(head)
        start = len(em.body)
        fn(*args)
        if len(em.body) == start:
            em.out("pass")
        self.indent(start)

    def indent(self, start: int) -> None:
        body = self.em.body
        for k in range(start, len(body)):
            body[k] = "    " + body[k]
