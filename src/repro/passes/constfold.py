"""Constant folding and algebraic simplification.

Folds binary operations, comparisons, selects, and casts whose operands
are compile-time constants, plus a few identities (``x + 0``, ``x * 1``,
``x * 0``).  Keeps the prefetch pass's emitted clamp code tidy when bounds
are constants.
"""

from __future__ import annotations

from ..ir.basicblock import erase_instructions
from ..ir.function import Function
from ..ir.instructions import BinOp, Cast, Cmp, Instruction, Select
from ..ir.module import Module
from ..ir.printer import Namer
from ..ir.types import IntType
from ..ir.values import Constant, Value
from ..remarks import active_emitter, emit

_INT_FOLDS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << (b & 63),
    "sdiv": lambda a, b: _sdiv(a, b),
    "srem": lambda a, b: _srem(a, b),
    "udiv": lambda a, b: (a & _M64) // (b & _M64),
    "urem": lambda a, b: (a & _M64) % (b & _M64),
    "lshr": lambda a, b: (a & _M64) >> (b & 63),
    "ashr": lambda a, b: a >> (b & 63),
}
_FLOAT_FOLDS = {
    "fadd": lambda a, b: a + b,
    "fsub": lambda a, b: a - b,
    "fmul": lambda a, b: a * b,
    "fdiv": lambda a, b: a / b,
}
_CMP_FOLDS = {
    "eq": lambda a, b: a == b, "ne": lambda a, b: a != b,
    "slt": lambda a, b: a < b, "sle": lambda a, b: a <= b,
    "sgt": lambda a, b: a > b, "sge": lambda a, b: a >= b,
    "ult": lambda a, b: (a & _M64) < (b & _M64),
    "ule": lambda a, b: (a & _M64) <= (b & _M64),
    "ugt": lambda a, b: (a & _M64) > (b & _M64),
    "uge": lambda a, b: (a & _M64) >= (b & _M64),
    "oeq": lambda a, b: a == b, "one": lambda a, b: a != b,
    "olt": lambda a, b: a < b, "ole": lambda a, b: a <= b,
    "ogt": lambda a, b: a > b, "oge": lambda a, b: a >= b,
}
_M64 = (1 << 64) - 1


def _sdiv(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _srem(a: int, b: int) -> int:
    return a - _sdiv(a, b) * b


class ConstantFoldingPass:
    """Folds constant expressions until a fixed point."""

    name = "constfold"

    def run(self, module: Module) -> int:
        """Run on every function; returns the number of folds."""
        return sum(self.run_on_function(f) for f in module.functions)

    def run_on_function(self, func: Function) -> int:
        """Run on one function; returns the number of folds."""
        namer = Namer(func) if active_emitter() is not None else None
        folded = 0
        changed = True
        while changed:
            changed = False
            for block in func.blocks:
                gone = []
                for inst in block.instructions:
                    replacement = self._fold(inst)
                    if replacement is not None:
                        if namer is not None:
                            emit("passed", self.name, "ConstantFolded",
                                 function=func.name,
                                 instruction=namer.ref(inst),
                                 opcode=inst.opcode,
                                 replaced_by=namer.ref(replacement))
                        inst.replace_all_uses_with(replacement)
                        inst.drop_all_references()
                        gone.append(inst)
                if gone:
                    erase_instructions(gone)
                    folded += len(gone)
                    changed = True
        return folded

    def _fold(self, inst: Instruction) -> Value | None:
        if isinstance(inst, BinOp):
            return self._fold_binop(inst)
        if isinstance(inst, Cmp):
            return self._fold_cmp(inst)
        if isinstance(inst, Select):
            if isinstance(inst.condition, Constant):
                return (inst.true_value if inst.condition.value
                        else inst.false_value)
            return None
        if isinstance(inst, Cast):
            return self._fold_cast(inst)
        return None

    @staticmethod
    def _fold_binop(inst: BinOp) -> Value | None:
        lhs, rhs = inst.lhs, inst.rhs
        lc = isinstance(lhs, Constant)
        rc = isinstance(rhs, Constant)
        if lc and rc:
            # Division and remainder by a constant zero stay unfolded:
            # a folded value would make the result depend on whether
            # ``-O`` ran.
            if inst.opcode in BinOp.DIVISIONS and rhs.value == 0:
                return None
            table = _FLOAT_FOLDS if inst.opcode in _FLOAT_FOLDS else _INT_FOLDS
            fn = table.get(inst.opcode)
            if fn is None:
                return None
            return Constant(inst.type, fn(lhs.value, rhs.value))
        # Identities.
        if inst.opcode in ("add", "or", "xor"):
            if rc and rhs.value == 0:
                return lhs
            if lc and lhs.value == 0:
                return rhs
        if inst.opcode == "sub" and rc and rhs.value == 0:
            return lhs
        if inst.opcode == "mul":
            if rc and rhs.value == 1:
                return lhs
            if lc and lhs.value == 1:
                return rhs
            if (rc and rhs.value == 0) or (lc and lhs.value == 0):
                return Constant(inst.type, 0)
        if inst.opcode in ("shl", "lshr", "ashr") and rc and rhs.value == 0:
            return lhs
        return None

    @staticmethod
    def _fold_cmp(inst: Cmp) -> Value | None:
        if isinstance(inst.lhs, Constant) and isinstance(inst.rhs, Constant):
            fn = _CMP_FOLDS.get(inst.predicate)
            if fn is None:
                return None
            return Constant(inst.type, int(fn(inst.lhs.value,
                                              inst.rhs.value)))
        return None

    @staticmethod
    def _fold_cast(inst: Cast) -> Value | None:
        value = inst.value
        if not isinstance(value, Constant):
            return None
        if inst.opcode in ("sext", "trunc", "ptrtoint", "inttoptr",
                           "bitcast"):
            return Constant(inst.type, value.value)
        if inst.opcode == "zext":
            src = value.type
            if isinstance(src, IntType):
                return Constant(inst.type, value.value & ((1 << src.bits) - 1))
        if inst.opcode == "sitofp":
            return Constant(inst.type, float(value.value))
        if inst.opcode == "fptosi":
            return Constant(inst.type, int(value.value))
        return None
