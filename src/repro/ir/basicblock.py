"""Basic blocks: straight-line instruction sequences ending in a terminator."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from .instructions import Instruction, Phi

if TYPE_CHECKING:  # pragma: no cover
    from .function import Function


class BasicBlock:
    """A list of instructions with a single entry and a terminator exit.

    Blocks are created through :meth:`repro.ir.function.Function.add_block`
    (or directly and then appended); instruction insertion normally goes
    through :class:`repro.ir.builder.IRBuilder`.
    """

    def __init__(self, name: str, parent: "Function | None" = None):
        self.name = name
        self.parent = parent
        self._instructions: list[Instruction] = []

    # -- contents -------------------------------------------------------

    @property
    def instructions(self) -> list[Instruction]:
        """The instructions in program order (a copy)."""
        return list(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __len__(self) -> int:
        return len(self._instructions)

    @property
    def terminator(self) -> Instruction | None:
        """The final control-flow instruction, or ``None`` if unterminated."""
        if self._instructions and self._instructions[-1].IS_TERMINATOR:
            return self._instructions[-1]
        return None

    @property
    def phis(self) -> list[Phi]:
        """The phi nodes at the head of this block."""
        result = []
        for inst in self._instructions:
            if isinstance(inst, Phi):
                result.append(inst)
            else:
                break
        return result

    @property
    def first_non_phi(self) -> Instruction | None:
        """First instruction that is not a phi node."""
        for inst in self._instructions:
            if not isinstance(inst, Phi):
                return inst
        return None

    # -- mutation ---------------------------------------------------------

    def append(self, inst: Instruction) -> Instruction:
        """Add ``inst`` at the end of the block."""
        if self.terminator is not None:
            raise ValueError(
                f"block {self.name} already terminated; cannot append "
                f"{inst.opcode}")
        self._instructions.append(inst)
        inst.parent = self
        return inst

    def insert_before(self, position: Instruction,
                      inst: Instruction) -> Instruction:
        """Insert ``inst`` immediately before ``position``."""
        index = self._index_of(position)
        self._instructions.insert(index, inst)
        inst.parent = self
        return inst

    def insert_after(self, position: Instruction,
                     inst: Instruction) -> Instruction:
        """Insert ``inst`` immediately after ``position``."""
        index = self._index_of(position)
        self._instructions.insert(index + 1, inst)
        inst.parent = self
        return inst

    def _index_of(self, inst: Instruction) -> int:
        for i, candidate in enumerate(self._instructions):
            if candidate is inst:
                return i
        raise ValueError(f"{inst!r} is not in block {self.name}")

    def _remove(self, inst: Instruction) -> None:
        self._instructions.pop(self._index_of(inst))

    # -- CFG edges ----------------------------------------------------------

    @property
    def successors(self) -> list["BasicBlock"]:
        """Successor blocks according to the terminator (empty if none)."""
        term = self.terminator
        return term.successors if term is not None else []  # type: ignore

    @property
    def predecessors(self) -> list["BasicBlock"]:
        """Predecessor blocks (computed by scanning the parent function)."""
        if self.parent is None:
            return []
        preds = []
        for block in self.parent.blocks:
            if self in block.successors:
                preds.append(block)
        return preds

    def __repr__(self) -> str:
        return f"<BasicBlock {self.name} ({len(self)} insts)>"


def erase_instructions(insts: Iterable[Instruction]) -> None:
    """Erase ``insts`` as :meth:`Instruction.erase` would one at a time,
    but with one pass over each block that holds some of them, where
    ``erase`` scans the block once per instruction.

    Uses among ``insts`` may remain: every instruction drops its operand
    references first, and only then must none of them have a use left.
    """
    doomed = list(insts)
    for inst in doomed:
        inst.drop_all_references()
    by_block: dict[BasicBlock, set[Instruction]] = {}
    for inst in doomed:
        uses = inst.uses
        if uses:
            raise ValueError(f"cannot erase {inst!r}: it still has "
                             f"{len(uses)} uses")
        if inst.parent is not None:
            by_block.setdefault(inst.parent, set()).add(inst)
    for block, gone in by_block.items():
        block._instructions = [inst for inst in block._instructions
                               if inst not in gone]
        for inst in gone:
            inst.parent = None
