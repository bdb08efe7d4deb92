"""Control-flow graph simplification.

Two conservative clean-ups applied to a fixed point:

* **block merging** — a block ending in an unconditional jump to a block
  with a single predecessor absorbs that block (its phis, having a
  single incoming value, are replaced by it);
* **forwarding-block removal** — an empty block containing only
  ``jmp T`` is bypassed, provided the retargeting keeps T's phis
  well-formed (no predecessor duplication).

The C-like frontend emits chains of such blocks (``entry -> body ->
for.cond``); this pass restores the compact loop shapes the analyses and
the interpreter prefer.  Unreachable blocks are deleted as a by-product.
"""

from __future__ import annotations

from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import Branch, Jump
from ..ir.module import Module
from ..remarks import emit


class SimplifyCFGPass:
    """Merges trivial blocks and removes forwarding blocks."""

    name = "simplifycfg"

    def run(self, module: Module) -> int:
        """Run on every function; returns blocks removed."""
        return sum(self.run_on_function(f) for f in module.functions)

    def run_on_function(self, func: Function) -> int:
        """Run on one function; returns blocks removed."""
        removed = 0
        changed = True
        while changed:
            changed = False
            removed += self._drop_unreachable(func)
            for block in list(func.blocks):
                if self._merge_into_predecessor(func, block):
                    removed += 1
                    changed = True
                    break
                if self._bypass_forwarding_block(func, block):
                    removed += 1
                    changed = True
                    break
        return removed

    # -- unreachable blocks ----------------------------------------------

    def _drop_unreachable(self, func: Function) -> int:
        reachable: set[int] = set()
        stack = [func.entry]
        while stack:
            block = stack.pop()
            if id(block) in reachable:
                continue
            reachable.add(id(block))
            stack.extend(block.successors)
        dead = [b for b in func.blocks if id(b) not in reachable]
        for block in dead:
            emit("passed", self.name, "UnreachableBlockRemoved",
                 function=func.name, block=block.name)
            # Detach phi edges in still-reachable successors first.
            for succ in block.successors:
                if id(succ) in reachable:
                    for phi in succ.phis:
                        for index in range(len(phi.incoming_blocks) - 1,
                                           -1, -1):
                            if phi.incoming_blocks[index] is block:
                                phi.incoming_blocks.pop(index)
                                victim = phi.operand(index)
                                phi._operands.pop(index)
                                victim._remove_use(phi, index)
                                # Re-index remaining uses.
                                for later in range(
                                        index, len(phi._operands)):
                                    op = phi._operands[later]
                                    op._remove_use(phi, later + 1)
                                    op._add_use(phi, later)
            for inst in reversed(block.instructions):
                inst.remove_from_parent()
                inst.drop_all_references()
            func.remove_block(block)
        return len(dead)

    # -- merging -------------------------------------------------------------

    def _merge_into_predecessor(self, func: Function,
                                block: BasicBlock) -> bool:
        term = block.terminator
        if not isinstance(term, Jump):
            return False
        succ = term.target
        if succ is block or succ is func.entry:
            return False
        if len(succ.predecessors) != 1:
            return False
        emit("passed", self.name, "BlockMerged",
             function=func.name, block=succ.name, into=block.name)
        # Fold single-incoming phis, then splice.
        for phi in list(succ.phis):
            phi.replace_all_uses_with(phi.incoming_for_block(block))
            phi.remove_from_parent()
            phi.drop_all_references()
        term.remove_from_parent()
        term.drop_all_references()
        for inst in succ.instructions:
            inst.remove_from_parent()
            block.append(inst)
        # Phis in the successors' successors name the old block.
        new_term = block.terminator
        if new_term is not None:
            for far in new_term.successors:  # type: ignore[attr-defined]
                for phi in far.phis:
                    for index, pred in enumerate(phi.incoming_blocks):
                        if pred is succ:
                            phi.set_incoming_block(index, block)
        func.remove_block(succ)
        return True

    # -- forwarding blocks ------------------------------------------------------

    def _bypass_forwarding_block(self, func: Function,
                                 block: BasicBlock) -> bool:
        if block is func.entry or len(block) != 1:
            return False
        term = block.terminator
        if not isinstance(term, Jump):
            return False
        target = term.target
        if target is block:
            return False
        preds = block.predecessors
        if not preds:
            return False
        target_preds = set(map(id, target.predecessors))
        # Retargeting must not create duplicate edges into a phi.
        if target.phis and any(id(p) in target_preds for p in preds):
            return False
        # A conditional branch with both edges through here would
        # become a duplicate edge too.
        for pred in preds:
            pterm = pred.terminator
            if isinstance(pterm, Branch) and \
                    pterm.then_block is block and \
                    pterm.else_block is block and target.phis:
                return False
        emit("passed", self.name, "ForwardingBlockRemoved",
             function=func.name, block=block.name, target=target.name)
        for phi in target.phis:
            incoming = phi.incoming_for_block(block)
            index = phi.incoming_blocks.index(block)
            if len(preds) == 1:
                phi.set_incoming_block(index, preds[0])
            else:
                # Duplicate the edge value for each new predecessor.
                phi.incoming_blocks.pop(index)
                victim = phi._operands.pop(index)
                victim._remove_use(phi, index)
                for later in range(index, len(phi._operands)):
                    op = phi._operands[later]
                    op._remove_use(phi, later + 1)
                    op._add_use(phi, later)
                for pred in preds:
                    phi.add_incoming(incoming, pred)
        for pred in preds:
            pred.terminator.replace_successor(block, target)  # type: ignore
        term.remove_from_parent()
        term.drop_all_references()
        func.remove_block(block)
        return True
