"""Flat byte-addressed memory for the IR interpreter.

Allocations are contiguous, line-aligned regions backed by numpy arrays,
so workload drivers can bulk-initialise inputs without interpreting IR
(matching the paper's methodology of timing "everything apart from data
generation and initialisation").  Loads and stores are bounds-checked:
an out-of-range access raises :class:`MemoryFault`, which the fault-
avoidance tests rely on.
"""

from __future__ import annotations

import bisect

import numpy as np


class MemoryFault(Exception):
    """An access outside every live allocation (segfault analogue)."""


class Allocation:
    """One contiguous allocated region.

    :ivar base: first byte address.
    :ivar element_size: bytes per element (addressing granularity).
    :ivar count: number of elements.
    :ivar data: backing store, a Python list with one entry per element
        (plain lists index faster than numpy scalars in the interpreter's
        inner loop).  Use :meth:`fill` / :meth:`as_numpy` for bulk I/O.
    """

    __slots__ = ("base", "element_size", "count", "name", "is_float",
                 "data")

    def __init__(self, base: int, element_size: int, count: int,
                 name: str, is_float: bool):
        self.base = base
        self.element_size = element_size
        self.count = count
        self.name = name
        self.is_float = is_float
        self.data = [0.0] * count if is_float else [0] * count

    def fill(self, values) -> None:
        """Bulk-initialise from any sequence (numpy array, list, ...)."""
        if len(values) != self.count:
            raise ValueError(
                f"fill length {len(values)} != count {self.count}")
        if hasattr(values, "tolist"):
            values = values.tolist()
        self.data[:] = values

    def as_numpy(self) -> np.ndarray:
        """Snapshot the contents as a numpy array."""
        dtype = np.float64 if self.is_float else np.int64
        return np.asarray(self.data, dtype=dtype)

    @property
    def size_bytes(self) -> int:
        """Total bytes spanned by the allocation."""
        return self.element_size * self.count

    @property
    def end(self) -> int:
        """One past the last byte address."""
        return self.base + self.size_bytes

    def index_of(self, addr: int) -> int:
        """Element index for a byte address; raises on misalignment."""
        offset = addr - self.base
        index, rem = divmod(offset, self.element_size)
        if rem:
            raise MemoryFault(
                f"misaligned access at {addr:#x} in {self.name} "
                f"(element size {self.element_size})")
        return index

    def __repr__(self) -> str:
        return (f"<Allocation {self.name} base={self.base:#x} "
                f"{self.count}x{self.element_size}B>")


class Memory:
    """The interpreter's address space.

    Addresses start at ``BASE`` and allocations are aligned to
    ``line_size`` so cache-line behaviour matches a real allocator's.
    """

    BASE = 0x10000

    def __init__(self, line_size: int = 64):
        self.line_size = line_size
        self._next = self.BASE
        self._bases: list[int] = []
        self._allocations: list[Allocation] = []

    @property
    def allocations(self) -> list[Allocation]:
        """All live allocations in address order."""
        return list(self._allocations)

    def allocate(self, element_size: int, count: int, name: str = "",
                 is_float: bool = False) -> Allocation:
        """Reserve a new zero-initialised region and return it.

        The element size must be a power of two (every IR type's size
        is 1, 2, 4 or 8 bytes): compiled traces turn an address into an
        element index with a mask and a shift."""
        if element_size <= 0 or element_size & (element_size - 1):
            raise ValueError(f"element size {element_size} is not a "
                             f"positive power of two")
        if count < 0:
            raise ValueError("bad allocation shape")
        base = self._next
        alloc = Allocation(base, element_size, count,
                           name or f"alloc{len(self._allocations)}",
                           is_float)
        # Pad to the next line boundary plus one guard line, so distinct
        # allocations never share a cache line.
        size = max(alloc.size_bytes, 1)
        padded = (size + 2 * self.line_size - 1) // self.line_size
        self._next = base + padded * self.line_size
        self._bases.append(base)
        self._allocations.append(alloc)
        return alloc

    def allocation_at(self, addr: int) -> Allocation:
        """The allocation containing byte address ``addr``.

        Raises :class:`MemoryFault` when the address is unmapped.
        """
        index = bisect.bisect_right(self._bases, addr) - 1
        if index >= 0:
            alloc = self._allocations[index]
            if alloc.base <= addr < alloc.end:
                return alloc
        raise MemoryFault(f"access to unmapped address {addr:#x}")

    def load(self, addr: int):
        """Read the element at ``addr`` (bounds- and alignment-checked)."""
        alloc = self.allocation_at(addr)
        return alloc.data[alloc.index_of(addr)]

    def store(self, addr: int, value) -> None:
        """Write the element at ``addr`` (bounds- and alignment-checked)."""
        alloc = self.allocation_at(addr)
        alloc.data[alloc.index_of(addr)] = value
