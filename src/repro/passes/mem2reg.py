"""mem2reg: promote scalar stack slots to SSA registers.

The C-like frontend lowers every local variable to a one-element ``alloc``
plus loads and stores.  This pass rewrites those slots into SSA form with
pruned phi placement (iterated dominance frontiers + dominator-tree
renaming), after which the induction-variable analysis — and hence the
prefetch pass — can see loop counters.
"""

from __future__ import annotations

from ..analysis.cfg import dominance_frontiers, dominators
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import Alloc, Instruction, Load, Phi, Store
from ..ir.module import Module
from ..ir.printer import Namer
from ..ir.values import Constant, UndefValue, Value
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
        idom = dominators(func)
        frontiers = dominance_frontiers(func, idom)
        children: dict[BasicBlock, list[BasicBlock]] = {
            b: [] for b in idom}
        for block, parent in idom.items():
            if parent is not None:
                children[parent].append(block)

        namer = Namer(func) if active_emitter() is not None else None
        for slot in slots:
            if namer is not None:
                emit("passed", self.name, "SlotPromoted",
                     function=func.name, slot=namer.ref(slot),
                     loads=sum(1 for u, _ in slot.uses
                               if isinstance(u, Load)),
                     stores=sum(1 for u, _ in slot.uses
                                if isinstance(u, Store)))
            self._promote(func, slot, idom, frontiers, children)
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

    def _promote(self, func: Function, slot: Alloc, idom, frontiers,
                 children) -> None:
        loads = [u for u, _ in slot.uses if isinstance(u, Load)]
        stores = [u for u, _ in slot.uses if isinstance(u, Store)]
        value_type = slot.element_type

        # Phi placement on the iterated dominance frontier of def blocks.
        def_blocks = {s.parent for s in stores if s.parent is not None}
        phi_blocks: set[BasicBlock] = set()
        worklist = list(def_blocks)
        while worklist:
            block = worklist.pop()
            for frontier_block in frontiers.get(block, ()):
                if frontier_block not in phi_blocks:
                    phi_blocks.add(frontier_block)
                    worklist.append(frontier_block)

        phis: dict[BasicBlock, Phi] = {}
        for block in phi_blocks:
            phi = Phi(value_type, slot.name or "m2r")
            if block.instructions:
                block.insert_before(block.instructions[0], phi)
            else:
                block.append(phi)
            phis[block] = phi

        # Rename along the dominator tree.
        undef = UndefValue(value_type, (slot.name or "slot") + ".undef")
        replacements: dict[int, Value] = {}

        def rename(block: BasicBlock, incoming: Value) -> None:
            current = incoming
            if block in phis:
                current = phis[block]
            for inst in block.instructions:
                if isinstance(inst, Load) and inst.ptr is slot:
                    replacements[id(inst)] = current
                elif isinstance(inst, Store) and inst.ptr is slot:
                    current = inst.value
            for succ in block.successors:
                phi = phis.get(succ)
                if phi is not None and not any(
                        b is block for b in phi.incoming_blocks):
                    phi.add_incoming(
                        replacements.get(id(current), current), block)
            for child in sorted(children.get(block, ()),
                                key=lambda b: func.blocks.index(b)):
                rename(child, current)

        rename(func.entry, undef)
        # Blocks unreachable from the entry lie outside the dominator
        # tree and never run: their loads read undef, and so do the
        # phis they feed.
        for block in func.blocks:
            if block in idom:
                continue
            for inst in block.instructions:
                if isinstance(inst, Load) and inst.ptr is slot:
                    replacements[id(inst)] = undef
            for succ in block.successors:
                phi = phis.get(succ)
                if phi is not None:
                    phi.add_incoming(undef, block)

        # Apply replacements (resolving chains through replaced loads).
        def resolve(value: Value) -> Value:
            seen = set()
            while id(value) in replacements and id(value) not in seen:
                seen.add(id(value))
                value = replacements[id(value)]
            return value

        for load in loads:
            load.replace_all_uses_with(resolve(load))
        for block in func.blocks:
            for phi in block.phis:
                for index, operand in enumerate(phi.operands):
                    resolved = resolve(operand)
                    if resolved is not operand:
                        phi.set_operand(index, resolved)

        for store in stores:
            store.erase()
        for load in loads:
            load.erase()
        slot.erase()
