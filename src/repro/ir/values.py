"""Value hierarchy for the repro IR.

Everything an instruction can consume is a :class:`Value`: constants,
function arguments, and other instructions.  Values track their users so
passes can rewrite the program with :meth:`Value.replace_all_uses_with`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .types import FloatType, IntType, PointerType, Type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .instructions import Instruction


class Value:
    """Base class for everything that can appear as an operand.

    :param type: the IR type of this value.
    :param name: optional name used by the printer; anonymous values are
        numbered when printed.
    """

    def __init__(self, type: Type, name: str = ""):
        self.type = type
        self.name = name
        # Uses are stored as (user instruction, operand index) pairs so that
        # replacement can patch exactly the right slot.  Each pair occurs
        # once; the keys of a dict keep them in the order they were added
        # and remove any of them in O(1).
        self._uses: dict[tuple["Instruction", int], None] = {}

    @property
    def uses(self) -> list[tuple["Instruction", int]]:
        """The (user, operand-index) pairs currently referencing this value,
        oldest first."""
        return list(self._uses)

    @property
    def users(self) -> list["Instruction"]:
        """The instructions referencing this value (may repeat)."""
        return [user for user, _ in self._uses]

    def _add_use(self, user: "Instruction", index: int) -> None:
        self._uses[user, index] = None

    def _remove_use(self, user: "Instruction", index: int) -> None:
        del self._uses[user, index]

    def replace_all_uses_with(self, replacement: "Value") -> None:
        """Rewrite every use of this value to use ``replacement`` instead."""
        if replacement is self:
            return
        for user, index in self.uses:
            user.set_operand(index, replacement)

    def short_name(self) -> str:
        """Name used in diagnostics; printers may override numbering."""
        return self.name or "<anon>"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.short_name()}: {self.type}>"


class Constant(Value):
    """A compile-time constant integer or float.

    :param type: an :class:`~repro.ir.types.IntType` or
        :class:`~repro.ir.types.FloatType`.
    :param value: the Python number; integers are wrapped to the type width.
    """

    def __init__(self, type: Type, value):
        super().__init__(type)
        if isinstance(type, IntType):
            value = type.wrap(int(value))
        elif isinstance(type, FloatType):
            value = float(value)
        elif isinstance(type, PointerType):
            value = int(value)
        else:
            raise TypeError(f"constants must be numeric, got {type}")
        self.value = value

    def short_name(self) -> str:
        return str(self.value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Constant)
            and other.type == self.type
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((self.type, self.value))


class Argument(Value):
    """A formal parameter of a :class:`~repro.ir.function.Function`.

    Arguments may carry optional metadata used by the analyses:

    :param array_size: if this argument is a pointer into an array whose
        length is passed separately (the common C idiom), ``array_size``
        may reference the :class:`Argument` holding the element count (or
        a :class:`Constant` when the size is statically known, standing in
        for a global array).  The prefetch pass uses it as a
        fault-avoidance bound.
    :param noalias: the argument points to memory no *other* argument
        points to (C ``restrict`` / LLVM ``noalias``); enables the
        store-clobber check of §4.2 to succeed across argument arrays.
    """

    def __init__(self, type: Type, name: str, index: int,
                 array_size: "Value | None" = None,
                 noalias: bool = False):
        super().__init__(type, name)
        self.index = index
        self.array_size = array_size
        self.noalias = noalias


class UndefValue(Value):
    """An undefined value of a given type (used rarely, e.g. by tests)."""

    def short_name(self) -> str:
        return f"undef:{self.type}"


def const(value, type: Type | None = None) -> Constant:
    """Create a constant, defaulting integers to i64 and floats to f64."""
    from .types import FLOAT64, INT64

    if type is None:
        type = FLOAT64 if isinstance(value, float) else INT64
    return Constant(type, value)
