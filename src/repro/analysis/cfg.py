"""Control-flow graph analyses: orderings, dominators, frontiers.

Dominators use the Cooper-Harvey-Kennedy iterative algorithm, which is
simple and fast for the CFG sizes this project manipulates.  Maps are
keyed by the blocks themselves (blocks hash by identity).
"""

from __future__ import annotations

from ..ir.basicblock import BasicBlock
from ..ir.function import Function


def predecessor_map(func: Function) -> dict[BasicBlock, list[BasicBlock]]:
    """Map each block to its predecessor list (single scan, O(E))."""
    preds: dict[BasicBlock, list[BasicBlock]] = {
        block: [] for block in func.blocks}
    for block in func.blocks:
        for succ in block.successors:
            preds[succ].append(block)
    return preds


def reverse_postorder(func: Function) -> list[BasicBlock]:
    """Blocks reachable from entry, in reverse postorder."""
    entry = func.entry
    visited = {entry}
    order: list[BasicBlock] = []
    # Iterative DFS with an explicit stack to avoid recursion limits; each
    # frame resumes its block's successor list where it left off.
    stack = [(entry, iter(entry.successors))]
    while stack:
        block, succs = stack[-1]
        for child in succs:
            if child not in visited:
                visited.add(child)
                stack.append((child, iter(child.successors)))
                break
        else:
            stack.pop()
            order.append(block)
    order.reverse()
    return order


def dominators(
        func: Function,
        preds: dict[BasicBlock, list[BasicBlock]] | None = None,
) -> dict[BasicBlock, BasicBlock | None]:
    """Immediate dominators for all reachable blocks.

    Returns a map ``block -> idom`` in reverse postorder; the entry block
    maps to ``None``.  Unreachable blocks are absent from the map.
    ``preds`` is the function's predecessor map if the caller already has
    one (see :func:`predecessor_map`; repeated entries are harmless).
    """
    rpo = reverse_postorder(func)
    index = {block: i for i, block in enumerate(rpo)}
    if preds is None:
        preds = predecessor_map(func)
    entry = rpo[0]

    idom: dict[BasicBlock, BasicBlock] = {entry: entry}

    def intersect(a: BasicBlock, b: BasicBlock) -> BasicBlock:
        while a is not b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for block in rpo[1:]:
            new_idom: BasicBlock | None = None
            for pred in preds[block]:
                if pred not in idom:  # unreachable, or not yet processed
                    continue
                if new_idom is None:
                    new_idom = pred
                else:
                    new_idom = intersect(new_idom, pred)
            if new_idom is not None and idom.get(block) is not new_idom:
                idom[block] = new_idom
                changed = True

    result: dict[BasicBlock, BasicBlock | None] = {entry: None}
    for block in rpo[1:]:
        result[block] = idom[block]
    return result


def dominator_tree(
        func: Function, idom: dict[BasicBlock, BasicBlock | None],
) -> dict[BasicBlock, list[BasicBlock]]:
    """Children of each reachable block in the dominator tree given by
    ``idom``, in block order."""
    children: dict[BasicBlock, list[BasicBlock]] = {
        block: [] for block in idom}
    for block in func.blocks:
        parent = idom.get(block)
        if parent is not None:
            children[parent].append(block)
    return children


def dominates(a: BasicBlock, b: BasicBlock,
              idom: dict[BasicBlock, BasicBlock | None]) -> bool:
    """Whether block ``a`` dominates block ``b`` under the idom map."""
    runner: BasicBlock | None = b
    while runner is not None:
        if runner is a:
            return True
        runner = idom.get(runner)
    return False


def dominance_frontiers(
        func: Function,
        idom: dict[BasicBlock, BasicBlock | None] | None = None,
        preds: dict[BasicBlock, list[BasicBlock]] | None = None,
) -> dict[BasicBlock, set[BasicBlock]]:
    """Dominance frontier of each reachable block (Cytron's definition)."""
    if preds is None:
        preds = predecessor_map(func)
    if idom is None:
        idom = dominators(func, preds)
    frontiers: dict[BasicBlock, set[BasicBlock]] = {
        block: set() for block in idom}
    for block in idom:
        block_preds = [p for p in preds[block] if p in frontiers]
        if len(block_preds) < 2:
            continue
        for pred in block_preds:
            runner: BasicBlock | None = pred
            while runner is not None and runner is not idom[block]:
                frontiers[runner].add(block)
                runner = idom.get(runner)
    return frontiers
