"""Common subexpression elimination (dominator-scoped value numbering).

The prefetch pass intentionally duplicates address computations per
prefetch (the paper's O(n^2) staggered code); a real compiler's CSE
then collapses the redundant pure work.  This pass value-numbers pure
expressions along the dominator tree: an instruction computing the same
(opcode, operands, attributes) as an available dominating instruction is
replaced by it.

Loads, stores, calls, allocations, phis, and prefetches are never
touched (memory and effects stay put).
"""

from __future__ import annotations

from ..analysis.cfg import dominators
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (BinOp, Cast, Cmp, GEP, Instruction, Select)
from ..ir.module import Module
from ..ir.printer import Namer
from ..ir.values import Constant, Value
from ..remarks import active_emitter, emit

#: Commutative binary opcodes (operands sorted into canonical order).
_COMMUTATIVE = ("add", "mul", "and", "or", "xor", "fadd", "fmul")


def _operand_key(op: Value):
    # Constants compare by value: equal literals are interchangeable
    # even when they are distinct objects.
    if isinstance(op, Constant):
        return ("c", str(op.type), op.value)
    return id(op)


def _key(inst: Instruction) -> tuple | None:
    operands = tuple(_operand_key(op) for op in inst.operands)
    if isinstance(inst, BinOp):
        if inst.opcode in _COMMUTATIVE:
            operands = tuple(sorted(operands, key=repr))
        return ("bin", inst.opcode, operands)
    if isinstance(inst, Cmp):
        return ("cmp", inst.predicate, operands)
    if isinstance(inst, Select):
        return ("select", operands)
    if isinstance(inst, Cast):
        return ("cast", inst.opcode, str(inst.type), operands)
    if isinstance(inst, GEP):
        return ("gep", str(inst.type), operands)
    return None


class CommonSubexpressionEliminationPass:
    """Removes redundant pure expressions along the dominator tree."""

    name = "cse"

    def run(self, module: Module) -> int:
        """Run on every function; returns instructions eliminated."""
        return sum(self.run_on_function(f) for f in module.functions)

    def run_on_function(self, func: Function) -> int:
        """Run on one function; returns instructions eliminated."""
        namer = Namer(func) if active_emitter() is not None else None
        idom = dominators(func)
        children: dict[BasicBlock, list[BasicBlock]] = {}
        for block, parent in idom.items():
            if parent is not None:
                children.setdefault(parent, []).append(block)

        removed = 0
        # Preorder walk of the dominator tree, iterative so that deep
        # trees (long chains of ``if``s) need no recursion.  ``scope``
        # holds the expressions available in the current block; a
        # block's entry ``(block, None)`` is replaced on the stack by
        # ``(block, added)``, which withdraws the block's expressions
        # once its subtree is done.
        scope: dict[tuple, Instruction] = {}
        stack: list[tuple[BasicBlock, list | None]] = \
            [(func.entry, None)] if func.blocks else []
        while stack:
            block, added = stack.pop()
            if added is not None:
                for key in added:
                    del scope[key]
                continue
            added = []
            for inst in block.instructions:
                key = _key(inst)
                if key is None:
                    continue
                existing = scope.get(key)
                if existing is not None:
                    if namer is not None:
                        emit("passed", self.name,
                             "RedundantExpressionEliminated",
                             function=func.name,
                             instruction=namer.ref(inst),
                             opcode=inst.opcode,
                             replaced_by=namer.ref(existing))
                    inst.replace_all_uses_with(existing)
                    inst.erase()
                    removed += 1
                else:
                    scope[key] = inst
                    added.append(key)
            stack.append((block, added))
            stack.extend((child, None)
                         for child in reversed(children.get(block, ())))
        return removed
