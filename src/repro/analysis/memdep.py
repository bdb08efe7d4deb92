"""Loop memory-dependence checks used for fault avoidance (§4.2).

The prefetch pass duplicates loads to compute future addresses.  That is
only safe when the loop contains no stores to the data structures those
loads read: otherwise the value loaded at look-ahead time could differ
from the value the original load will see, producing a wild (potentially
faulting) intermediate address.  This module provides the conservative
may-alias reasoning behind that check.
"""

from __future__ import annotations

from ..ir.instructions import Store
from ..ir.values import Value
from .allocsize import underlying_object
from .loops import Loop


def stores_in_loop(loop: Loop) -> list[Store]:
    """Every store instruction inside the loop (including nested blocks)."""
    result = []
    for block in loop.blocks:
        for inst in block:
            if isinstance(inst, Store):
                result.append(inst)
    return result


def may_alias(ptr_a: Value, ptr_b: Value) -> bool:
    """Conservative may-alias test on two pointers.

    Pointers provably derived from distinct allocations do not alias, and
    an allocation never aliases an argument that predates it.  Two
    distinct *arguments* are conservatively assumed to alias — C callers
    may pass overlapping pointers — unless at least one is annotated
    ``noalias`` (the C ``restrict`` idiom).  Anything unresolved is
    assumed to alias.
    """
    from ..ir.instructions import Alloc
    from ..ir.values import Argument

    obj_a = underlying_object(ptr_a)
    obj_b = underlying_object(ptr_b)
    if obj_a is None or obj_b is None:
        return True
    if obj_a is obj_b:
        return True
    # Distinct allocations never alias; an allocation never aliases an
    # argument that existed before it.
    if isinstance(obj_a, Alloc) or isinstance(obj_b, Alloc):
        return False
    if (isinstance(obj_a, Argument) and obj_a.noalias) or \
            (isinstance(obj_b, Argument) and obj_b.noalias):
        return False
    return True  # two different plain arguments might overlap
