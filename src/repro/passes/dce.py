"""Dead code elimination.

Removes instructions whose results are unused and which have no side
effects (a division whose divisor may be zero has one: it raises).
Used as a cleanup after other transformations and by tests to check
that prefetch code is not trivially dead.
"""

from __future__ import annotations

from ..ir.basicblock import erase_instructions
from ..ir.function import Function
from ..ir.instructions import BinOp, Instruction
from ..ir.module import Module
from ..ir.printer import Namer
from ..ir.types import VoidType
from ..ir.values import Constant
from ..remarks import active_emitter, emit


class DeadCodeEliminationPass:
    """Iteratively deletes trivially dead instructions."""

    name = "dce"

    def run(self, module: Module) -> int:
        """Run on every function; returns the number of deletions."""
        return sum(self.run_on_function(f) for f in module.functions)

    def run_on_function(self, func: Function) -> int:
        """Run on one function; returns the number of deletions."""
        namer = Namer(func) if active_emitter() is not None else None
        removed = 0
        changed = True
        while changed:
            changed = False
            for block in func.blocks:
                # Dropping a dead instruction's operands at once lets the
                # same backward sweep find the operands it kept alive.
                dead = []
                for inst in reversed(block.instructions):
                    if self._is_dead(inst):
                        if namer is not None:
                            emit("passed", self.name,
                                 "DeadInstructionRemoved",
                                 function=func.name,
                                 instruction=namer.ref(inst),
                                 opcode=inst.opcode)
                        inst.drop_all_references()
                        dead.append(inst)
                if dead:
                    erase_instructions(dead)
                    removed += len(dead)
                    changed = True
        return removed

    @staticmethod
    def _is_dead(inst: Instruction) -> bool:
        if inst.HAS_SIDE_EFFECTS or inst.IS_TERMINATOR:
            return False
        if isinstance(inst.type, VoidType):
            return False
        # Allocations are conservatively kept: their addresses may have
        # escaped into memory via stores that alias analysis missed.
        if inst.opcode == "alloc":
            return False
        # A division raises on a zero divisor, so deleting one would
        # decide by whether ``-O`` ran whether the program raises.
        if inst.opcode in BinOp.DIVISIONS:
            divisor = inst.operand(1)
            if not isinstance(divisor, Constant) or divisor.value == 0:
                return False
        return not inst.uses
