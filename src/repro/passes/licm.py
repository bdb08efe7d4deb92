"""Loop-invariant code motion (LICM).

Hoists pure, speculation-safe computations whose operands are loop
invariant into the loop preheader.  The indirect-prefetch pass emits
per-iteration clamp bounds like ``n - 1`` inside loops; LICM moves them
out, trimming the instruction overhead Fig. 8 measures.

Conservative by construction:

* only side-effect-free, non-trapping instructions move (no loads — a
  load's value can change under stores; no division — it can trap);
* only loops with a dedicated preheader are transformed;
* phis and terminators never move.
"""

from __future__ import annotations

from ..analysis.loops import Loop, LoopInfo
from ..ir.function import Function
from ..ir.instructions import (BinOp, Cast, Cmp, GEP, Instruction, Select)
from ..ir.module import Module
from ..ir.printer import Namer
from ..ir.values import Argument, Constant, UndefValue, Value
from ..remarks import active_emitter, emit

#: Division and remainder can trap on zero; never speculate them.
_TRAPPING = ("sdiv", "srem", "udiv", "urem", "fdiv")


class LoopInvariantCodeMotionPass:
    """Hoists invariant arithmetic to loop preheaders."""

    name = "licm"

    def run(self, module: Module) -> int:
        """Run on every function; returns instructions hoisted."""
        return sum(self.run_on_function(f) for f in module.functions)

    def run_on_function(self, func: Function) -> int:
        """Run on one function; returns instructions hoisted."""
        hoisted = 0
        info = LoopInfo(func)
        namer = Namer(func) if active_emitter() is not None else None
        # Innermost first, so nested invariants bubble outwards across
        # the fixed-point iterations.
        for loop in sorted(info.loops, key=lambda l: -l.depth):
            hoisted += self._hoist_loop(loop, func, namer)
        return hoisted

    def _hoist_loop(self, loop: Loop, func: Function,
                    namer: Namer | None) -> int:
        preheader = loop.preheader
        if preheader is None or preheader.terminator is None:
            return 0
        insertion = preheader.terminator
        # Walk the body in function order: ``loop.blocks`` is a set
        # hashed by identity, so its order (and with it the order of
        # the hoisted instructions) would follow heap layout.
        body = [block for block in func.blocks if block in loop.blocks]
        hoisted = 0
        changed = True
        while changed:
            changed = False
            for block in body:
                for inst in block.instructions:
                    if self._can_hoist(inst, loop):
                        inst.remove_from_parent()
                        preheader.insert_before(insertion, inst)
                        hoisted += 1
                        changed = True
                        if namer is not None:
                            emit("passed", self.name,
                                 "LoopInvariantHoisted",
                                 function=func.name,
                                 instruction=namer.ref(inst),
                                 opcode=inst.opcode,
                                 loop=loop.header.name,
                                 to=preheader.name)
        return hoisted

    def _can_hoist(self, inst: Instruction, loop: Loop) -> bool:
        if not isinstance(inst, (BinOp, Cmp, Select, Cast, GEP)):
            return False
        if inst.opcode in _TRAPPING:
            return False
        return all(self._is_invariant(op, loop) for op in inst.operands)

    @staticmethod
    def _is_invariant(value: Value, loop: Loop) -> bool:
        if isinstance(value, (Constant, Argument, UndefValue)):
            return True
        if isinstance(value, Instruction):
            return value.parent is not None and \
                value.parent not in loop.blocks
        return False
