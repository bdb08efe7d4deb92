"""IR verifier: structural and SSA well-formedness checks.

Run :func:`verify_function` (or :func:`verify_module`) after construction
and after every transformation pass; the test suite does so for every
workload and every pass output.

Cost: linear in instructions plus CFG edges.  One walk over the blocks
checks names, parents, terminators and successors and records the
predecessor map and every instruction's position; the phi check reads
the map; the dominance check builds one dominator tree from it and
numbers the tree's blocks in DFS preorder, so "does the defining block
dominate the using block" is two comparisons per operand instead of a
walk up the idom chain.
"""

from __future__ import annotations

from .basicblock import BasicBlock
from .function import Function
from .instructions import Instruction, Phi
from .module import Module
from .values import Argument, Constant, UndefValue, Value


class VerificationError(Exception):
    """Raised when the IR violates a structural or SSA invariant."""


def verify_module(module: Module) -> None:
    """Verify every function in ``module``; raises on the first failure."""
    for func in module.functions:
        verify_function(func)


def verify_function(func: Function) -> None:
    """Check structural, CFG, and SSA dominance invariants of ``func``.

    Raises :class:`VerificationError` describing the first violation found.
    """
    if not func.blocks:
        raise VerificationError(f"{func.name}: function has no blocks")
    preds, positions = _check_blocks(func)
    _check_phis(func, preds)
    _check_dominance(func, preds, positions)


def _check_blocks(func: Function) -> tuple[
        dict[BasicBlock, list[BasicBlock]],
        dict[int, tuple[BasicBlock, int]]]:
    """Structural checks.  Returns each block's predecessors (each one
    once, in block order) and each instruction's block and index, keyed
    by id (constants hash by value, through a Python-level hash)."""
    members = set(func.blocks)
    preds: dict[BasicBlock, list[BasicBlock]] = {
        block: [] for block in func.blocks}
    positions: dict[int, tuple[BasicBlock, int]] = {}
    names = set()
    for block in func.blocks:
        if block.name in names:
            raise VerificationError(
                f"{func.name}: duplicate block name {block.name}")
        names.add(block.name)
        if block.parent is not func:
            raise VerificationError(
                f"{func.name}/{block.name}: wrong parent function")
        term = block.terminator
        if term is None:
            raise VerificationError(
                f"{func.name}/{block.name}: block lacks a terminator")
        seen_non_phi = False
        for i, inst in enumerate(block):
            positions[id(inst)] = (block, i)
            if inst.parent is not block:
                raise VerificationError(
                    f"{func.name}/{block.name}: instruction "
                    f"{inst.opcode} has wrong parent")
            if inst.IS_TERMINATOR and inst is not term:
                raise VerificationError(
                    f"{func.name}/{block.name}: terminator "
                    f"{inst.opcode} in mid-block")
            if isinstance(inst, Phi):
                if seen_non_phi:
                    raise VerificationError(
                        f"{func.name}/{block.name}: phi after non-phi")
            else:
                seen_non_phi = True
        for succ in term.successors:
            if succ not in members:
                raise VerificationError(
                    f"{func.name}/{block.name}: successor {succ.name} "
                    f"not in function")
            succ_preds = preds[succ]
            # Both edges of a ``br`` to one block make one predecessor.
            if not succ_preds or succ_preds[-1] is not block:
                succ_preds.append(block)
    return preds, positions


def _check_phis(func: Function,
                preds: dict[BasicBlock, list[BasicBlock]]) -> None:
    for block in func.blocks:
        phis = block.phis
        if not phis:
            continue
        block_preds = preds[block]
        pred_set = set(block_preds)
        for phi in phis:
            incoming_blocks = [b for _, b in phi.incoming]
            incoming_set = set(incoming_blocks)
            if incoming_set != pred_set:
                pred_names = sorted(p.name for p in block_preds)
                in_names = sorted(b.name for b in incoming_blocks)
                raise VerificationError(
                    f"{func.name}/{block.name}: phi {phi.short_name()} "
                    f"incoming blocks {in_names} != predecessors "
                    f"{pred_names}")
            if len(incoming_blocks) != len(incoming_set):
                raise VerificationError(
                    f"{func.name}/{block.name}: phi {phi.short_name()} "
                    f"has duplicate incoming blocks")


def _check_dominance(func: Function,
                     preds: dict[BasicBlock, list[BasicBlock]],
                     positions: dict[int, tuple[BasicBlock, int]]) -> None:
    # Local import to avoid a hard dependency cycle at module load time.
    from ..analysis.cfg import dominator_tree, dominators

    idom = dominators(func, preds)
    # Number the dominator tree in DFS preorder: a block's subtree is the
    # run of numbers from its own up to (not including) ``end[block]``,
    # so ``a`` dominates ``b`` iff first[a] <= first[b] < end[a].  Blocks
    # unreachable from the entry are not numbered.
    children = dominator_tree(func, idom)
    first: dict[BasicBlock, int] = {}
    preorder: list[BasicBlock] = []
    stack = [func.entry]
    while stack:
        block = stack.pop()
        first[block] = len(preorder)
        preorder.append(block)
        stack.extend(children[block])
    end: dict[BasicBlock, int] = {}
    for block in reversed(preorder):
        # The stack visits a block's first child last, so that child's
        # subtree ends the block's.
        kids = children[block]
        end[block] = end[kids[0]] if kids else first[block] + 1

    def check(value: Value, use_block: BasicBlock, use_index: int,
              use_at: int | None, user: Instruction) -> None:
        """``value``, used by ``user`` before position ``use_index`` of
        ``use_block`` (numbered ``use_at``), is defined before it on
        every path from the entry."""
        pos = positions.get(id(value))
        if pos is None:
            if isinstance(value, (Constant, Argument, UndefValue)):
                return
            if not isinstance(value, Instruction):
                raise VerificationError(
                    f"{func.name}: operand {value!r} of {user.opcode} is "
                    f"not an instruction, constant, or argument")
            raise VerificationError(
                f"{func.name}: operand {value.short_name()} of "
                f"{user.opcode} is not placed in the function")
        def_block, def_index = pos
        if def_block is use_block:
            if def_index >= use_index:
                raise VerificationError(
                    f"{func.name}/{use_block.name}: {value.short_name()} "
                    f"used before definition by {user.opcode}")
            return
        start = first.get(def_block)
        if start is None or use_at is None or \
                not start <= use_at < end[def_block]:
            raise VerificationError(
                f"{func.name}: definition of {value.short_name()} in "
                f"{def_block.name} does not dominate use in "
                f"{use_block.name}")

    for block in func.blocks:
        at = first.get(block)
        if at is None:
            continue  # unreachable from the entry: never runs
        for i, inst in enumerate(block):
            if isinstance(inst, Phi):
                # An incoming value is used at the end of its predecessor.
                for value, pred in zip(inst._operands, inst.incoming_blocks):
                    check(value, pred, len(pred), first.get(pred), inst)
            else:
                for value in inst._operands:
                    check(value, block, i, at, inst)
