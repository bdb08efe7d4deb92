"""Functions: named, typed containers of basic blocks."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .basicblock import BasicBlock
from .instructions import Instruction
from .types import FunctionType, Type
from .values import Argument

if TYPE_CHECKING:  # pragma: no cover
    from .module import Module


class Function:
    """A function definition in SSA form.

    :param name: the function's symbol name.
    :param return_type: IR type of the return value.
    :param params: ``(name, type)`` pairs for the formal parameters.
    :param pure: marks the function as side-effect free (no stores, no
        calls to impure functions); used by the side-effect analysis and
        by the prefetch pass's extension that permits pure calls in
        prefetch address computations.
    """

    def __init__(self, name: str, return_type: Type,
                 params: list[tuple[str, Type]] | None = None,
                 pure: bool = False):
        params = params or []
        self.name = name
        self.type = FunctionType(return_type, tuple(t for _, t in params))
        self.args = [Argument(t, n, i) for i, (n, t) in enumerate(params)]
        #: The blocks in layout order; add and remove them through
        #: :meth:`add_block` and :meth:`remove_block`, which keep the
        #: name index :meth:`block` reads.
        self.blocks: list[BasicBlock] = []
        self._blocks_by_name: dict[str, BasicBlock] = {}
        self.parent: "Module | None" = None
        self.pure = pure
        self._block_counter = 0

    @property
    def return_type(self) -> Type:
        return self.type.return_type

    @property
    def entry(self) -> BasicBlock:
        """The entry block (the first block added)."""
        if not self.blocks:
            raise ValueError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def add_block(self, name: str = "") -> BasicBlock:
        """Create and append a new basic block."""
        if not name:
            name = f"bb{self._block_counter}"
            self._block_counter += 1
        if name in self._blocks_by_name:
            raise ValueError(f"duplicate block name {name!r} in {self.name}")
        block = BasicBlock(name, self)
        self.blocks.append(block)
        self._blocks_by_name[name] = block
        return block

    def block(self, name: str) -> BasicBlock:
        """Find a block by name; raises ``KeyError`` if absent."""
        try:
            return self._blocks_by_name[name]
        except KeyError:
            raise KeyError(f"no block named {name!r} in {self.name}") \
                from None

    def arg(self, name: str) -> Argument:
        """Find an argument by name; raises ``KeyError`` if absent."""
        for a in self.args:
            if a.name == name:
                return a
        raise KeyError(f"no argument named {name!r} in {self.name}")

    def remove_block(self, block: BasicBlock) -> None:
        """Remove an (unreferenced) block from the function."""
        self.blocks.remove(block)
        if self._blocks_by_name.get(block.name) is block:
            del self._blocks_by_name[block.name]
        block.parent = None

    def instructions(self) -> Iterator[Instruction]:
        """Iterate all instructions in block order."""
        for block in self.blocks:
            yield from block.instructions

    def __repr__(self) -> str:
        return f"<Function {self.name}: {self.type}>"
