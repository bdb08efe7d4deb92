"""mem2reg: promote scalar stack slots to SSA registers.

The C-like frontend lowers every local variable to a one-element ``alloc``
plus loads and stores.  This pass rewrites those slots into SSA form with
pruned phi placement (iterated dominance frontiers + dominator-tree
renaming), after which the induction-variable analysis — and hence the
prefetch pass — can see loop counters.

Phis are placed slot by slot; then one iterative walk of the dominator
tree renames every slot at once, so the pass does one pass over the
instructions however many slots it promotes, and deep dominator trees
(long chains of ``if``s) need no recursion.
"""

from __future__ import annotations

from ..analysis.cfg import (dominance_frontiers, dominator_tree,
                            dominators, predecessor_map)
from ..ir.basicblock import BasicBlock, erase_instructions
from ..ir.function import Function
from ..ir.instructions import Alloc, Instruction, Load, Phi, Store
from ..ir.module import Module
from ..ir.printer import Namer
from ..ir.values import UndefValue, Value
from ..remarks import active_emitter, emit


class Mem2RegPass:
    """Promotes non-escaping single-element allocations to SSA values."""

    name = "mem2reg"

    def run(self, module: Module) -> int:
        """Run on every function; returns slots promoted."""
        return sum(self.run_on_function(f) for f in module.functions)

    def run_on_function(self, func: Function) -> int:
        """Run on one function; returns slots promoted."""
        slots = [inst for inst in func.instructions()
                 if isinstance(inst, Alloc) and self._promotable(inst)]
        if not slots:
            return 0
        if active_emitter() is not None:
            namer = Namer(func)
            for slot in slots:
                emit("passed", self.name, "SlotPromoted",
                     function=func.name, slot=namer.ref(slot),
                     loads=sum(1 for u, _ in slot.uses
                               if isinstance(u, Load)),
                     stores=sum(1 for u, _ in slot.uses
                                if isinstance(u, Store)))
        preds = predecessor_map(func)
        idom = dominators(func, preds)
        phis = self._place_phis(slots,
                                dominance_frontiers(func, idom, preds))
        self._rename(func, slots, phis, dominator_tree(func, idom))
        return len(slots)

    @staticmethod
    def _promotable(alloc: Alloc) -> bool:
        count = alloc.static_count
        if count != 1:
            return False
        for user, index in alloc.uses:
            if isinstance(user, Load):
                continue
            if isinstance(user, Store) and user.ptr is alloc and \
                    user.value is not alloc:
                continue
            return False  # address escapes (gep, call, stored value, ...)
        return True

    @staticmethod
    def _place_phis(slots: list[Alloc], frontiers
                    ) -> dict[BasicBlock, list[tuple[int, Phi]]]:
        """Slot by slot, a phi at the head of each block on the iterated
        dominance frontier of the slot's stores, so a later slot's phis
        precede an earlier one's.  Returns ``block -> [(slot index,
        phi)]``."""
        phis: dict[BasicBlock, list[tuple[int, Phi]]] = {}
        for k, slot in enumerate(slots):
            phi_blocks: set[BasicBlock] = set()
            worklist = list({u.parent for u, _ in slot.uses
                             if isinstance(u, Store) and u.parent is not None})
            while worklist:
                block = worklist.pop()
                for frontier_block in frontiers.get(block, ()):
                    if frontier_block not in phi_blocks:
                        phi_blocks.add(frontier_block)
                        worklist.append(frontier_block)
            for block in phi_blocks:
                phi = Phi(slot.element_type, slot.name or "m2r")
                head = next(iter(block), None)
                if head is None:
                    block.append(phi)
                else:
                    block.insert_before(head, phi)
                phis.setdefault(block, []).append((k, phi))
        return phis

    @staticmethod
    def _rename(func: Function, slots: list[Alloc],
                phis: dict[BasicBlock, list[tuple[int, Phi]]],
                children: dict[BasicBlock, list[BasicBlock]]) -> None:
        """Rename every slot in one walk of the dominator tree, then
        rewrite each promoted load to the value it reads and delete the
        slots with their loads and stores."""
        index = {slot: k for k, slot in enumerate(slots)}
        undefs = [UndefValue(slot.element_type,
                             (slot.name or "slot") + ".undef")
                  for slot in slots]
        # The value each slot holds at the current point of the walk; it
        # is never itself a promoted load, because the walk reaches a
        # load's block before any block the load's uses sit in.
        current: list[Value] = list(undefs)
        replacements: dict[Instruction, Value] = {}
        # Preorder walk; a block's entry ``(block, None)`` is replaced on
        # the stack by ``(block, undo)``, which restores the values its
        # phis and stores overwrote once its subtree is done.
        stack: list[tuple[BasicBlock, list | None]] = [(func.entry, None)]
        while stack:
            block, undo = stack.pop()
            if undo is not None:
                for k, value in reversed(undo):
                    current[k] = value
                continue
            undo = []
            for k, phi in phis.get(block, ()):
                undo.append((k, current[k]))
                current[k] = phi
            for inst in block:
                if isinstance(inst, Load):
                    k = index.get(inst.ptr)
                    if k is not None:
                        replacements[inst] = current[k]
                elif isinstance(inst, Store):
                    k = index.get(inst.ptr)
                    if k is not None:
                        undo.append((k, current[k]))
                        current[k] = replacements.get(inst.value,
                                                      inst.value)
            for succ in dict.fromkeys(block.successors):
                for k, phi in phis.get(succ, ()):
                    phi.add_incoming(current[k], block)
            stack.append((block, undo))
            stack.extend((child, None) for child in reversed(children[block]))
        # Blocks unreachable from the entry lie outside the dominator
        # tree and never run: their loads read undef, and so do the
        # phis they feed.
        for block in func.blocks:
            if block in children:
                continue
            for inst in block:
                if isinstance(inst, Load):
                    k = index.get(inst.ptr)
                    if k is not None:
                        replacements[inst] = undefs[k]
            for succ in dict.fromkeys(block.successors):
                for k, phi in phis.get(succ, ()):
                    phi.add_incoming(undefs[k], block)

        doomed: list[Instruction] = []
        for slot in slots:
            for user, _ in slot.uses:
                if isinstance(user, Load):
                    user.replace_all_uses_with(replacements.get(user, user))
                doomed.append(user)
            doomed.append(slot)
        erase_instructions(doomed)
