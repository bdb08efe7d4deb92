"""An LLVM-style IRBuilder for convenient SSA construction.

The builder holds an insertion point (a block, and optionally a position
within it) and offers one method per instruction kind.  Workload kernels
and the C-like frontend both construct IR through this interface.
"""

from __future__ import annotations

from .basicblock import BasicBlock
from .function import Function
from .instructions import (Alloc, BinOp, Branch, Call, Cast, Cmp, GEP,
                           Instruction, Jump, Load, Phi, Prefetch, Ret,
                           Select, Store)
from .types import Type, INT64
from .values import Constant, Value


class IRBuilder:
    """Builds instructions at a current insertion point.

    :param block: initial insertion block (optional; call
        :meth:`set_insert_point` later).
    """

    def __init__(self, block: BasicBlock | None = None):
        self._block = block
        self._before: Instruction | None = None

    # -- insertion point -------------------------------------------------

    @property
    def block(self) -> BasicBlock:
        """The current insertion block."""
        if self._block is None:
            raise ValueError("builder has no insertion point")
        return self._block

    def set_insert_point(self, block: BasicBlock,
                         before: Instruction | None = None) -> None:
        """Move the insertion point to ``block`` (optionally before an
        existing instruction in it)."""
        self._block = block
        self._before = before

    def _insert(self, inst: Instruction) -> Instruction:
        if self._before is not None:
            self.block.insert_before(self._before, inst)
        else:
            self.block.append(inst)
        return inst

    # -- constants ---------------------------------------------------------

    def const(self, value, type: Type = INT64) -> Constant:
        """Create an integer/float constant (no instruction emitted)."""
        return Constant(type, value)

    # -- arithmetic ----------------------------------------------------------

    def binop(self, opcode: str, lhs: Value, rhs: Value,
              name: str = "") -> BinOp:
        """Emit an arbitrary binary operation."""
        return self._insert(BinOp(opcode, lhs, rhs, name))  # type: ignore

    def add(self, lhs: Value, rhs: Value, name: str = "") -> BinOp:
        """Emit integer addition."""
        return self.binop("add", lhs, rhs, name)

    def sub(self, lhs: Value, rhs: Value, name: str = "") -> BinOp:
        """Emit integer subtraction."""
        return self.binop("sub", lhs, rhs, name)

    def mul(self, lhs: Value, rhs: Value, name: str = "") -> BinOp:
        """Emit integer multiplication."""
        return self.binop("mul", lhs, rhs, name)

    def sdiv(self, lhs: Value, rhs: Value, name: str = "") -> BinOp:
        """Emit signed integer division."""
        return self.binop("sdiv", lhs, rhs, name)

    def srem(self, lhs: Value, rhs: Value, name: str = "") -> BinOp:
        """Emit signed integer remainder."""
        return self.binop("srem", lhs, rhs, name)

    def and_(self, lhs: Value, rhs: Value, name: str = "") -> BinOp:
        """Emit bitwise AND."""
        return self.binop("and", lhs, rhs, name)

    def or_(self, lhs: Value, rhs: Value, name: str = "") -> BinOp:
        """Emit bitwise OR."""
        return self.binop("or", lhs, rhs, name)

    def xor(self, lhs: Value, rhs: Value, name: str = "") -> BinOp:
        """Emit bitwise XOR."""
        return self.binop("xor", lhs, rhs, name)

    def shl(self, lhs: Value, rhs: Value, name: str = "") -> BinOp:
        """Emit left shift."""
        return self.binop("shl", lhs, rhs, name)

    def lshr(self, lhs: Value, rhs: Value, name: str = "") -> BinOp:
        """Emit logical right shift."""
        return self.binop("lshr", lhs, rhs, name)

    def ashr(self, lhs: Value, rhs: Value, name: str = "") -> BinOp:
        """Emit arithmetic right shift."""
        return self.binop("ashr", lhs, rhs, name)

    def fadd(self, lhs: Value, rhs: Value, name: str = "") -> BinOp:
        """Emit float addition."""
        return self.binop("fadd", lhs, rhs, name)

    def fsub(self, lhs: Value, rhs: Value, name: str = "") -> BinOp:
        """Emit float subtraction."""
        return self.binop("fsub", lhs, rhs, name)

    def fmul(self, lhs: Value, rhs: Value, name: str = "") -> BinOp:
        """Emit float multiplication."""
        return self.binop("fmul", lhs, rhs, name)

    def fdiv(self, lhs: Value, rhs: Value, name: str = "") -> BinOp:
        """Emit float division."""
        return self.binop("fdiv", lhs, rhs, name)

    # -- comparisons / select --------------------------------------------------

    def cmp(self, predicate: str, lhs: Value, rhs: Value,
            name: str = "") -> Cmp:
        """Emit a comparison producing i1."""
        return self._insert(Cmp(predicate, lhs, rhs, name))  # type: ignore

    def select(self, cond: Value, a: Value, b: Value, name: str = "") -> Select:
        """Emit ``select cond, a, b``."""
        return self._insert(Select(cond, a, b, name))  # type: ignore

    def smin(self, a: Value, b: Value, name: str = "") -> Select:
        """Emit a signed minimum as cmp+select (used by fault guards)."""
        lt = self.cmp("slt", a, b, name + ".lt" if name else "")
        return self.select(lt, a, b, name)

    # -- casts ---------------------------------------------------------

    def cast(self, opcode: str, value: Value, to_type: Type,
             name: str = "") -> Cast:
        """Emit a cast instruction."""
        return self._insert(Cast(opcode, value, to_type, name))  # type: ignore

    def sext(self, value: Value, to_type: Type, name: str = "") -> Cast:
        """Emit sign extension."""
        return self.cast("sext", value, to_type, name)

    def trunc(self, value: Value, to_type: Type, name: str = "") -> Cast:
        """Emit truncation."""
        return self.cast("trunc", value, to_type, name)

    # -- memory ------------------------------------------------------------

    def alloc(self, element_type: Type, count: Value | int,
              name: str = "") -> Alloc:
        """Emit an array allocation of ``count`` elements."""
        if isinstance(count, int):
            count = self.const(count)
        return self._insert(Alloc(element_type, count, name))  # type: ignore

    def gep(self, base: Value, index: Value | int, name: str = "") -> GEP:
        """Emit pointer arithmetic ``base + index * sizeof(elem)``."""
        if isinstance(index, int):
            index = self.const(index)
        return self._insert(GEP(base, index, name))  # type: ignore

    def load(self, ptr: Value, name: str = "") -> Load:
        """Emit a load through ``ptr``."""
        return self._insert(Load(ptr, name))  # type: ignore

    def store(self, value: Value, ptr: Value) -> Store:
        """Emit a store of ``value`` through ``ptr``."""
        return self._insert(Store(value, ptr))  # type: ignore

    def prefetch(self, ptr: Value) -> Prefetch:
        """Emit a software prefetch hint for the line containing ``ptr``."""
        return self._insert(Prefetch(ptr))  # type: ignore

    # -- control flow -----------------------------------------------------

    def phi(self, type: Type, name: str = "") -> Phi:
        """Emit an (initially empty) phi node at the current point."""
        return self._insert(Phi(type, name))  # type: ignore

    def br(self, cond: Value, then_block: BasicBlock,
           else_block: BasicBlock) -> Branch:
        """Emit a conditional branch."""
        return self._insert(Branch(cond, then_block, else_block))  # type: ignore

    def jmp(self, target: BasicBlock) -> Jump:
        """Emit an unconditional branch."""
        return self._insert(Jump(target))  # type: ignore

    def ret(self, value: Value | None = None) -> Ret:
        """Emit a return."""
        return self._insert(Ret(value))  # type: ignore

    def call(self, callee: Function, args: list[Value],
             name: str = "") -> Call:
        """Emit a direct call."""
        return self._insert(Call(callee, args, name))  # type: ignore
