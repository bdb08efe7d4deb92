"""Execution-driven timing simulator.

Composes a functional IR interpreter with cache, TLB, DRAM, hardware-
prefetcher, and core timing models.  The four systems of the paper's
Table 1 are available as :data:`HASWELL`, :data:`XEON_PHI`, :data:`A57`
and :data:`A53`.
"""

from .cache import Cache, CacheStats
from .configs import (A53, A57, ALL_SYSTEMS, HASWELL, XEON_PHI, CacheConfig,
                      MachineConfig, system_by_name)
from .core import InOrderCore, OutOfOrderCore, make_core
from .dram import DRAMChannel, DRAMStats
from .hwprefetch import StridePrefetcher
from .interpreter import (Interpreter, RunResult, RunStats,
                          static_prefetch_pcs)
from .memory import Allocation, Memory, MemoryFault
from .multicore import run_multicore
from .system import MemoryStats, MemorySystem
from .tlb import TLB, TLBStats

__all__ = [
    "Cache", "CacheStats",
    "A53", "A57", "ALL_SYSTEMS", "HASWELL", "XEON_PHI", "CacheConfig",
    "MachineConfig", "system_by_name",
    "InOrderCore", "OutOfOrderCore", "make_core",
    "DRAMChannel", "DRAMStats",
    "StridePrefetcher",
    "Interpreter", "RunResult", "RunStats", "static_prefetch_pcs",
    "Allocation", "Memory", "MemoryFault",
    "run_multicore",
    "MemoryStats", "MemorySystem",
    "TLB", "TLBStats",
]
