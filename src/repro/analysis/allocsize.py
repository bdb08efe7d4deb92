"""Allocation-size discovery (§4.2 of the paper).

Given a pointer, walk backwards through the address computation to the
underlying object.  If the object is an ``alloc`` instruction, its element
count bounds valid indices; if it is a function argument annotated with an
``array_size`` companion argument (the C idiom of passing a pointer plus a
length), that argument is the bound.  Otherwise the size is unknown and
the prefetch pass must fall back to the loop-trip bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.instructions import Alloc, Cast, GEP, Phi, Select
from ..ir.values import Argument, Value


@dataclass
class ArrayBound:
    """A known element count for the array behind a pointer.

    :ivar count: IR value holding the number of elements.
    :ivar source: ``"alloc"`` when derived from an allocation,
        ``"argument"`` when from an annotated argument.
    """

    count: Value
    source: str


def underlying_object(ptr: Value, _depth: int = 0) -> Value | None:
    """The allocation or argument a pointer value is derived from.

    Walks through ``gep`` bases, pointer selects, and pointer casts.
    Returns ``None`` when the walk is ambiguous (e.g. a pointer phi with
    different underlying objects).
    """
    if _depth > 64:
        return None
    if isinstance(ptr, (Alloc, Argument)):
        return ptr
    if isinstance(ptr, GEP):
        return underlying_object(ptr.base, _depth + 1)
    if isinstance(ptr, Cast):
        return underlying_object(ptr.value, _depth + 1)
    if isinstance(ptr, Select):
        a = underlying_object(ptr.true_value, _depth + 1)
        b = underlying_object(ptr.false_value, _depth + 1)
        return a if a is b else None
    if isinstance(ptr, Phi):
        objects = {id(underlying_object(v, _depth + 1))
                   for v, _ in ptr.incoming}
        if len(objects) == 1:
            return underlying_object(ptr.incoming[0][0], _depth + 1)
        return None
    return None


def known_array_bound(ptr: Value) -> ArrayBound | None:
    """The element count of the array behind ``ptr``, if discoverable."""
    obj = underlying_object(ptr)
    if isinstance(obj, Alloc):
        return ArrayBound(count=obj.count, source="alloc")
    if isinstance(obj, Argument) and obj.array_size is not None:
        return ArrayBound(count=obj.array_size, source="argument")
    return None
