"""Textual form of the IR.

The format is LLVM-flavoured but simplified; it round-trips through
:mod:`repro.ir.parser`.  Example::

    func @count(%keys: i32*, %n: i64) -> void {
    entry:
      jmp loop
    loop:
      %i = phi i64 [0, entry], [%i.next, loop]
      %p = gep i32* %keys, %i
      %k = load i32* %p
      ...
    }
"""

from __future__ import annotations

from .function import Function
from .instructions import (Alloc, BinOp, Branch, Call, Cast, Cmp, GEP,
                           Instruction, Jump, Load, Phi, Prefetch, Ret,
                           Select, Store)
from .module import Module
from .types import VoidType
from .values import Constant, UndefValue, Value


class Namer:
    """Assigns stable printable names to values within one function.

    Anonymous values receive sequential numbers in function order —
    the numbering the printed IR shows.  Remark emission and pass
    report summaries use the same numbering, so a ``%7`` in a remark
    is the ``%7`` of ``--print-ir`` output.
    """

    def __init__(self, func: Function):
        self._names: dict[int, str] = {}
        self._used: set[str] = set()
        #: Per base name, the suffix its next clash starts searching
        #: from: every lower suffix is already taken.
        self._next_suffix: dict[str, int] = {}
        self._counter = 0
        for arg in func.args:
            self._assign(arg)
        for block in func.blocks:
            for inst in block:
                if not isinstance(inst.type, VoidType):
                    self._assign(inst)

    def _assign(self, value: Value) -> None:
        base = value.name
        if not base:
            base = str(self._counter)
            self._counter += 1
        name = base
        if name in self._used:
            suffix = self._next_suffix.get(base, 1)
            name = f"{base}.{suffix}"
            while name in self._used:
                suffix += 1
                name = f"{base}.{suffix}"
            self._next_suffix[base] = suffix + 1
        self._used.add(name)
        self._names[id(value)] = name

    def ref(self, value: Value) -> str:
        """Render a reference to ``value`` as an operand."""
        if isinstance(value, Constant):
            return str(value.value)
        if isinstance(value, UndefValue):
            return f"undef:{value.type}"
        name = self._names.get(id(value))
        if name is None:
            self._assign(value)
            name = self._names[id(value)]
        return f"%{name}"

    def defn(self, value: Value) -> str:
        """Render the defining name of ``value``."""
        return self.ref(value)


def print_instruction(inst: Instruction, namer: Namer) -> str:
    """Render one instruction to its textual form."""
    r = namer.ref
    if isinstance(inst, BinOp):
        return (f"{r(inst)} = {inst.opcode} {inst.type} "
                f"{r(inst.lhs)}, {r(inst.rhs)}")
    if isinstance(inst, Cmp):
        return (f"{r(inst)} = cmp {inst.predicate} {inst.lhs.type} "
                f"{r(inst.lhs)}, {r(inst.rhs)}")
    if isinstance(inst, Select):
        return (f"{r(inst)} = select {inst.type} {r(inst.condition)}, "
                f"{r(inst.true_value)}, {r(inst.false_value)}")
    if isinstance(inst, Cast):
        return (f"{r(inst)} = {inst.opcode} {inst.value.type} "
                f"{r(inst.value)} to {inst.type}")
    if isinstance(inst, Alloc):
        return (f"{r(inst)} = alloc {inst.element_type}, {r(inst.count)}")
    if isinstance(inst, GEP):
        return (f"{r(inst)} = gep {inst.base.type} {r(inst.base)}, "
                f"{r(inst.index)}")
    if isinstance(inst, Load):
        return f"{r(inst)} = load {inst.ptr.type} {r(inst.ptr)}"
    if isinstance(inst, Store):
        return (f"store {inst.value.type} {r(inst.value)}, "
                f"{r(inst.ptr)}")
    if isinstance(inst, Prefetch):
        return f"prefetch {inst.ptr.type} {r(inst.ptr)}"
    if isinstance(inst, Phi):
        pairs = ", ".join(f"[{r(v)}, {b.name}]" for v, b in inst.incoming)
        return f"{r(inst)} = phi {inst.type} {pairs}"
    if isinstance(inst, Branch):
        return (f"br {r(inst.condition)}, {inst.then_block.name}, "
                f"{inst.else_block.name}")
    if isinstance(inst, Jump):
        return f"jmp {inst.target.name}"
    if isinstance(inst, Ret):
        if inst.value is not None:
            return f"ret {inst.value.type} {r(inst.value)}"
        return "ret"
    if isinstance(inst, Call):
        args = ", ".join(f"{a.type} {r(a)}" for a in inst.args)
        prefix = f"{r(inst)} = " if str(inst.type) != "void" else ""
        return f"{prefix}call @{inst.callee.name}({args})"
    raise TypeError(f"unknown instruction {inst.opcode}")


#: Backwards-compatible alias of :class:`Namer`.
_Namer = Namer


def print_function(func: Function) -> str:
    """Render a function and its blocks to text."""
    namer = Namer(func)
    params = ", ".join(f"%{a.name}: {a.type}" for a in func.args)
    attrs = " pure" if func.pure else ""
    lines = [f"func{attrs} @{func.name}({params}) -> {func.return_type} {{"]
    for block in func.blocks:
        lines.append(f"{block.name}:")
        for inst in block:
            lines.append(f"  {print_instruction(inst, namer)}")
    lines.append("}")
    return "\n".join(lines)


def print_module(module: Module) -> str:
    """Render all functions of a module to text."""
    return "\n\n".join(print_function(f) for f in module.functions) + "\n"
