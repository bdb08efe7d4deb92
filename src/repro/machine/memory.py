"""Flat byte-addressed memory for the IR interpreter.

Allocations are contiguous, line-aligned regions, each backed by one
typed buffer (:class:`array.array`), so workload drivers can
bulk-initialise inputs without interpreting IR (matching the paper's
methodology of timing "everything apart from data generation and
initialisation").  Loads and stores are bounds-checked: an out-of-range
access raises :class:`MemoryFault`, which the fault-avoidance tests
rely on.
"""

from __future__ import annotations

import bisect
from array import array

import numpy as np


class MemoryFault(Exception):
    """An access outside every live allocation (segfault analogue)."""


_INT64 = np.iinfo(np.int64)


def _integer_problem(src: np.ndarray) -> str | None:
    """Why ``src`` cannot fill an integer allocation, or ``None``."""
    kind = src.dtype.kind
    if kind in "bi":
        return None
    if kind not in "uO" or (kind == "O" and not all(
            isinstance(v, (int, np.integer)) for v in src.flat)):
        return "non-integer values into an integer allocation"
    if src.size and (src.min() < _INT64.min or src.max() > _INT64.max):
        return "integers outside int64"
    return None


class Allocation:
    """One contiguous allocated region.

    :ivar base: first byte address.
    :ivar element_size: bytes per element (addressing granularity).
    :ivar count: number of elements.
    :ivar data: backing store, one typed buffer with one entry per
        element: ``array('q')`` for an integer allocation of any
        element size (every value the IR stores is already wrapped to
        at most 64 bits) and ``array('d')`` for a float one.  The
        interpreter and compiled traces index it like a list; unlike a
        list it holds no Python object per element, so the garbage
        collector never walks a run's data.  Use :meth:`fill` /
        :meth:`as_numpy` for bulk I/O: each is one copy through a
        numpy view of the buffer.
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
        self.data = (array("d", [0.0]) if is_float
                     else array("q", [0])) * count

    def _view(self) -> np.ndarray:
        return np.frombuffer(self.data,
                             np.float64 if self.is_float else np.int64)

    def fill(self, values) -> None:
        """Bulk-initialise from any sequence (numpy array, list, ...).

        Raises :class:`ValueError` for values the allocation cannot
        hold: non-integers into an integer allocation, or integers
        outside int64.  Integers into a float allocation are accepted.
        """
        if len(values) != self.count:
            raise ValueError(f"fill of {self.name}: length {len(values)} "
                             f"!= count {self.count}")
        # A sequence is checked element by element: numpy would turn
        # [-1, 2**63] into floats and [2**64] into objects.
        src = (values if isinstance(values, np.ndarray)
               else np.array(values, dtype=object))
        if not self.is_float and (problem := _integer_problem(src)):
            raise ValueError(f"fill of {self.name}: {problem}")
        self._view()[:] = src

    def as_numpy(self) -> np.ndarray:
        """Snapshot the contents as a numpy array (a copy: later stores
        do not show in it, nor writes to it in memory)."""
        return self._view().copy()

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
