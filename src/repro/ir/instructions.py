"""Instruction set of the repro IR.

The instruction set mirrors the subset of LLVM IR that the paper's pass
operates on: arithmetic, comparisons, ``select``, memory (``alloc``,
``load``, ``store``, ``gep``, ``prefetch``), control flow (``br``,
``jmp``, ``ret``), ``phi`` nodes, and ``call``.

All instructions use SSA form: each produces at most one value and
operands reference other :class:`~repro.ir.values.Value` objects directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .types import FloatType, IntType, PointerType, Type, VOID, INT1
from .values import Constant, Value

if TYPE_CHECKING:  # pragma: no cover
    from .basicblock import BasicBlock
    from .function import Function


class Instruction(Value):
    """Base class for all instructions.

    :param opcode: the mnemonic (``"add"``, ``"load"``, ...).
    :param type: result type (``VOID`` for instructions with no result).
    :param operands: SSA operand values.
    :param name: optional result name.
    """

    #: Opcodes whose execution may write memory or otherwise have effects.
    HAS_SIDE_EFFECTS = False
    #: Opcodes that terminate a basic block.
    IS_TERMINATOR = False

    def __init__(self, opcode: str, type: Type, operands: Sequence[Value],
                 name: str = ""):
        super().__init__(type, name)
        self.opcode = opcode
        self.parent: "BasicBlock | None" = None
        self._operands: list[Value] = []
        for op in operands:
            self._append_operand(op)

    # -- operand bookkeeping ------------------------------------------------

    @property
    def operands(self) -> list[Value]:
        """The operand list (a copy; use :meth:`set_operand` to mutate)."""
        return list(self._operands)

    def operand(self, index: int) -> Value:
        """Return the operand at ``index``."""
        return self._operands[index]

    @property
    def num_operands(self) -> int:
        return len(self._operands)

    def _append_operand(self, value: Value) -> None:
        if not isinstance(value, Value):
            raise TypeError(f"operand must be a Value, got {value!r}")
        index = len(self._operands)
        self._operands.append(value)
        value._add_use(self, index)

    def set_operand(self, index: int, value: Value) -> None:
        """Replace the operand at ``index``, updating use lists."""
        old = self._operands[index]
        old._remove_use(self, index)
        self._operands[index] = value
        value._add_use(self, index)

    def drop_all_references(self) -> None:
        """Remove this instruction from the use lists of its operands."""
        for index, op in enumerate(self._operands):
            op._remove_use(self, index)
        self._operands = []

    # -- placement ----------------------------------------------------------

    def remove_from_parent(self) -> None:
        """Unlink from the containing block (does not drop operand uses)."""
        if self.parent is not None:
            self.parent._remove(self)
            self.parent = None

    def erase(self) -> None:
        """Fully delete: unlink from block and drop operand references."""
        if self._uses:
            raise ValueError(
                f"cannot erase {self!r}: it still has {len(self._uses)} uses")
        self.remove_from_parent()
        self.drop_all_references()

    # -- properties used by analyses ----------------------------------------

    @property
    def function(self) -> "Function | None":
        """The function containing this instruction, if placed."""
        return self.parent.parent if self.parent is not None else None

    def short_name(self) -> str:
        return self.name or f"<{self.opcode}>"


class BinOp(Instruction):
    """A binary arithmetic/logical operation.

    Supported opcodes: ``add sub mul sdiv srem udiv urem and or xor shl
    lshr ashr fadd fsub fmul fdiv``.
    """

    INT_OPS = ("add", "sub", "mul", "sdiv", "srem", "udiv", "urem",
               "and", "or", "xor", "shl", "lshr", "ashr")
    FLOAT_OPS = ("fadd", "fsub", "fmul", "fdiv")
    #: Opcodes that raise ``ZeroDivisionError`` on a zero divisor when
    #: run, so no pass may fold or delete one whose divisor can be zero.
    DIVISIONS = frozenset({"sdiv", "srem", "udiv", "urem", "fdiv"})

    def __init__(self, opcode: str, lhs: Value, rhs: Value, name: str = ""):
        if opcode not in self.INT_OPS + self.FLOAT_OPS:
            raise ValueError(f"unknown binary opcode: {opcode}")
        if lhs.type != rhs.type:
            raise TypeError(
                f"binop operand types differ: {lhs.type} vs {rhs.type}")
        super().__init__(opcode, lhs.type, [lhs, rhs], name)

    @property
    def lhs(self) -> Value:
        return self.operand(0)

    @property
    def rhs(self) -> Value:
        return self.operand(1)


class Cmp(Instruction):
    """An integer or float comparison producing an ``i1``.

    Predicates: ``eq ne slt sle sgt sge ult ule ugt uge`` (integers and
    pointers) and ``oeq one olt ole ogt oge`` (floats).
    """

    INT_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge",
                      "ult", "ule", "ugt", "uge")
    FLOAT_PREDICATES = ("oeq", "one", "olt", "ole", "ogt", "oge")

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in self.INT_PREDICATES + self.FLOAT_PREDICATES:
            raise ValueError(f"unknown comparison predicate: {predicate}")
        if lhs.type != rhs.type:
            raise TypeError(
                f"cmp operand types differ: {lhs.type} vs {rhs.type}")
        super().__init__("cmp", INT1, [lhs, rhs], name)
        self.predicate = predicate

    @property
    def lhs(self) -> Value:
        return self.operand(0)

    @property
    def rhs(self) -> Value:
        return self.operand(1)


class Select(Instruction):
    """``select cond, a, b`` — returns ``a`` if cond is true else ``b``."""

    def __init__(self, cond: Value, true_value: Value, false_value: Value,
                 name: str = ""):
        if cond.type != INT1:
            raise TypeError("select condition must be i1")
        if true_value.type != false_value.type:
            raise TypeError("select arms must have matching types")
        super().__init__("select", true_value.type,
                         [cond, true_value, false_value], name)

    @property
    def condition(self) -> Value:
        return self.operand(0)

    @property
    def true_value(self) -> Value:
        return self.operand(1)

    @property
    def false_value(self) -> Value:
        return self.operand(2)


class Cast(Instruction):
    """A value conversion: ``sext zext trunc sitofp fptosi ptrtoint inttoptr
    bitcast``."""

    OPS = ("sext", "zext", "trunc", "sitofp", "fptosi",
           "ptrtoint", "inttoptr", "bitcast")

    def __init__(self, opcode: str, value: Value, to_type: Type,
                 name: str = ""):
        if opcode not in self.OPS:
            raise ValueError(f"unknown cast opcode: {opcode}")
        super().__init__(opcode, to_type, [value], name)

    @property
    def value(self) -> Value:
        return self.operand(0)


class Alloc(Instruction):
    """Allocate ``count`` elements of ``element_type`` (zero-initialised).

    This models both heap and stack array allocation; the interpreter
    reserves a contiguous region and returns its base address.  When
    ``count`` is a :class:`Constant`, the allocation's size is statically
    known, which the prefetch pass exploits for fault avoidance.
    """

    def __init__(self, element_type: Type, count: Value, name: str = ""):
        if isinstance(count.type, (FloatType, PointerType)):
            raise TypeError("allocation count must be an integer")
        super().__init__("alloc", PointerType(element_type), [count], name)
        self.element_type = element_type

    @property
    def count(self) -> Value:
        return self.operand(0)

    @property
    def static_count(self) -> int | None:
        """The element count if known at compile time, else ``None``."""
        c = self.count
        return c.value if isinstance(c, Constant) else None


class GEP(Instruction):
    """``gep base, index`` — pointer arithmetic.

    Computes ``base + index * sizeof(pointee)``; the result has the same
    pointer type as ``base``.  All array indexing in the IR goes through
    ``gep`` so the prefetch analysis can see address computations.
    """

    def __init__(self, base: Value, index: Value, name: str = ""):
        if not isinstance(base.type, PointerType):
            raise TypeError(f"gep base must be a pointer, got {base.type}")
        if not isinstance(index.type, IntType):
            raise TypeError(f"gep index must be an integer, got {index.type}")
        super().__init__("gep", base.type, [base, index], name)

    @property
    def base(self) -> Value:
        return self.operand(0)

    @property
    def index(self) -> Value:
        return self.operand(1)


class Load(Instruction):
    """``load ptr`` — read one element through a typed pointer."""

    def __init__(self, ptr: Value, name: str = ""):
        if not isinstance(ptr.type, PointerType):
            raise TypeError(f"load pointer operand required, got {ptr.type}")
        super().__init__("load", ptr.type.pointee, [ptr], name)

    @property
    def ptr(self) -> Value:
        return self.operand(0)


class Store(Instruction):
    """``store value, ptr`` — write one element through a typed pointer."""

    HAS_SIDE_EFFECTS = True

    def __init__(self, value: Value, ptr: Value):
        if not isinstance(ptr.type, PointerType):
            raise TypeError(f"store pointer operand required, got {ptr.type}")
        if ptr.type.pointee != value.type:
            raise TypeError(
                f"store type mismatch: {value.type} into {ptr.type}")
        super().__init__("store", VOID, [value, ptr])

    @property
    def value(self) -> Value:
        return self.operand(0)

    @property
    def ptr(self) -> Value:
        return self.operand(1)


class Prefetch(Instruction):
    """``prefetch ptr`` — non-binding hint to fetch a line into the cache.

    Prefetches never fault and never block; they are the instruction the
    pass emits in place of the duplicated target load.
    """

    HAS_SIDE_EFFECTS = True  # affects the machine, must not be DCE'd

    #: Stable remark ID (``pf:<function>:<n>``) assigned by the pass
    #: that created this prefetch; the remark/telemetry join layer maps
    #: it to the runtime PC.  ``None`` for hand-built prefetches.
    remark_id: str | None = None

    def __init__(self, ptr: Value):
        if not isinstance(ptr.type, PointerType):
            raise TypeError("prefetch operand must be a pointer")
        super().__init__("prefetch", VOID, [ptr])

    @property
    def ptr(self) -> Value:
        return self.operand(0)


class Phi(Instruction):
    """An SSA phi node; incoming values are paired with predecessor blocks."""

    def __init__(self, type: Type, name: str = ""):
        super().__init__("phi", type, [], name)
        self.incoming_blocks: list["BasicBlock"] = []

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        """Append an incoming (value, predecessor-block) pair."""
        if value.type != self.type:
            raise TypeError(
                f"phi incoming type {value.type} != phi type {self.type}")
        self._append_operand(value)
        self.incoming_blocks.append(block)

    @property
    def incoming(self) -> list[tuple[Value, "BasicBlock"]]:
        """The (value, block) pairs of this phi."""
        return list(zip(self._operands, self.incoming_blocks))

    def incoming_for_block(self, block: "BasicBlock") -> Value:
        """The value flowing in from ``block``; raises if absent."""
        for value, pred in self.incoming:
            if pred is block:
                return value
        raise KeyError(f"phi has no incoming edge from {block.name}")

    def set_incoming_block(self, index: int, block: "BasicBlock") -> None:
        """Redirect the predecessor block of the ``index``-th edge."""
        self.incoming_blocks[index] = block


class Branch(Instruction):
    """``br cond, then_block, else_block`` — conditional branch."""

    IS_TERMINATOR = True
    HAS_SIDE_EFFECTS = True

    def __init__(self, cond: Value, then_block: "BasicBlock",
                 else_block: "BasicBlock"):
        if cond.type != INT1:
            raise TypeError("branch condition must be i1")
        super().__init__("br", VOID, [cond])
        self.then_block = then_block
        self.else_block = else_block

    @property
    def condition(self) -> Value:
        return self.operand(0)

    @property
    def successors(self) -> list["BasicBlock"]:
        return [self.then_block, self.else_block]

    def replace_successor(self, old: "BasicBlock", new: "BasicBlock") -> None:
        """Retarget an outgoing edge."""
        if self.then_block is old:
            self.then_block = new
        if self.else_block is old:
            self.else_block = new


class Jump(Instruction):
    """``jmp target`` — unconditional branch."""

    IS_TERMINATOR = True
    HAS_SIDE_EFFECTS = True

    def __init__(self, target: "BasicBlock"):
        super().__init__("jmp", VOID, [])
        self.target = target

    @property
    def successors(self) -> list["BasicBlock"]:
        return [self.target]

    def replace_successor(self, old: "BasicBlock", new: "BasicBlock") -> None:
        """Retarget the outgoing edge."""
        if self.target is old:
            self.target = new


class Ret(Instruction):
    """``ret [value]`` — return from the function."""

    IS_TERMINATOR = True
    HAS_SIDE_EFFECTS = True

    def __init__(self, value: Value | None = None):
        super().__init__("ret", VOID, [value] if value is not None else [])

    @property
    def value(self) -> Value | None:
        return self.operand(0) if self.num_operands else None

    @property
    def successors(self) -> list["BasicBlock"]:
        return []


class Call(Instruction):
    """``call callee(args...)`` — direct call to another function.

    The callee is a :class:`~repro.ir.function.Function`; indirect calls are
    not modelled (the paper's pass rejects candidates containing calls
    unless proven side-effect free, and never needs function pointers).
    """

    HAS_SIDE_EFFECTS = True  # refined by sideeffects analysis

    def __init__(self, callee: "Function", args: Sequence[Value],
                 name: str = ""):
        ftype = callee.type
        if len(args) != len(ftype.param_types):
            raise TypeError(
                f"call to {callee.name}: expected "
                f"{len(ftype.param_types)} args, got {len(args)}")
        for arg, pt in zip(args, ftype.param_types):
            if arg.type != pt:
                raise TypeError(
                    f"call to {callee.name}: argument type {arg.type} "
                    f"does not match parameter type {pt}")
        super().__init__("call", ftype.return_type, args, name)
        self.callee = callee

    @property
    def args(self) -> list[Value]:
        return self.operands


TERMINATOR_OPCODES = ("br", "jmp", "ret")


def clone_instruction(inst: Instruction, value_map: dict[Value, Value],
                      name_suffix: str = ".pf") -> Instruction:
    """Create a copy of ``inst`` with operands remapped through ``value_map``.

    Operands absent from the map are reused as-is (correct for constants
    and values defined outside the cloned region).  Terminators and phis
    cannot be cloned this way — the prefetch pass never needs to.
    """
    def m(v: Value) -> Value:
        return value_map.get(v, v)

    name = (inst.name + name_suffix) if inst.name else ""
    if isinstance(inst, BinOp):
        copy: Instruction = BinOp(inst.opcode, m(inst.lhs), m(inst.rhs), name)
    elif isinstance(inst, Cmp):
        copy = Cmp(inst.predicate, m(inst.lhs), m(inst.rhs), name)
    elif isinstance(inst, Select):
        copy = Select(m(inst.condition), m(inst.true_value),
                      m(inst.false_value), name)
    elif isinstance(inst, Cast):
        copy = Cast(inst.opcode, m(inst.value), inst.type, name)
    elif isinstance(inst, GEP):
        copy = GEP(m(inst.base), m(inst.index), name)
    elif isinstance(inst, Load):
        copy = Load(m(inst.ptr), name)
    elif isinstance(inst, Call):
        copy = Call(inst.callee, [m(a) for a in inst.args], name)
    else:
        raise TypeError(f"cannot clone {inst.opcode} instructions")
    value_map[inst] = copy
    return copy
