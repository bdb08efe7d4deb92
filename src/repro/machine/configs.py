"""Machine configurations for the paper's four systems (Table 1).

The numbers are first-order public microarchitecture parameters (cache
geometries from Table 1; latencies, widths and queue sizes from vendor
documentation), expressed in *core cycles*.  Absolute simulated cycle
counts are not meant to match the real machines — the reproduction
targets the performance *shapes* of §6 — but the qualitative factors the
paper identifies are all represented:

* out-of-order (Haswell, A57) vs. in-order (A53, Xeon Phi) latency
  tolerance, via ``in_order`` + ``rob_size``/``mshrs``;
* the A57's single concurrent page-table walk (``tlb_max_walks=1``);
* the Xeon Phi's high-latency GDDR5 (``dram_latency``);
* DRAM bandwidth ceilings (``dram_cycles_per_line``) for Fig. 9;
* transparent huge pages on Haswell (``page_bits`` override, Fig. 10).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    size_bytes: int
    ways: int
    latency: int


@dataclass(frozen=True)
class MachineConfig:
    """Full description of one simulated system.

    :ivar issue_width: instructions issued per cycle.
    :ivar rob_size: effective out-of-order window in instructions.
        This is closer to the scheduler/issue-queue capacity than the
        architectural ROB: it bounds how far ahead the core discovers
        independent misses, which is what limits no-prefetch MLP.
    :ivar mshrs: maximum outstanding line fills (bounds memory-level
        parallelism, including that created by software prefetches).
    :ivar dram_cycles_per_line: channel occupancy per 64-byte line; the
        reciprocal of bandwidth in lines/cycle.
    :ivar tlb_max_walks: concurrent page-table walks supported.
    :ivar page_bits: log2 of the page size (12 = 4KiB; 21 = 2MiB huge
        pages).
    """

    name: str
    freq_ghz: float
    in_order: bool
    issue_width: int
    rob_size: int
    mshrs: int
    caches: tuple[CacheConfig, ...]
    dram_latency: int
    dram_cycles_per_line: float
    dram_contention_penalty: float = 0.0
    tlb_entries: int = 64
    tlb_walk_latency: int = 35
    tlb_max_walks: int = 2
    tlb_l2_entries: int = 512
    tlb_l2_latency: int = 10
    page_bits: int = 12
    hw_prefetch_distance: int = 4
    hw_prefetch_degree: int = 2
    line_size: int = 64

    def with_huge_pages(self) -> "MachineConfig":
        """This machine with 2 MiB transparent huge pages (Fig. 10)."""
        return replace(self, page_bits=21)

    def with_small_pages(self) -> "MachineConfig":
        """This machine with 4 KiB pages."""
        return replace(self, page_bits=12)


#: Intel Core i5-4570 (Haswell), 3.2 GHz, out-of-order.  32KiB L1D,
#: 256KiB L2, 8MiB L3, DDR3-1600 (~25.6 GB/s => 8 cycles/line at 3.2GHz).
#: Transparent huge pages are enabled in the paper's Haswell kernel.
HASWELL = MachineConfig(
    name="Haswell",
    freq_ghz=3.2,
    in_order=False,
    issue_width=4,
    rob_size=60,
    mshrs=9,
    caches=(
        CacheConfig(32 * 1024, 8, 4),
        CacheConfig(256 * 1024, 8, 12),
        CacheConfig(8 * 1024 * 1024, 16, 36),
    ),
    dram_latency=220,
    dram_cycles_per_line=8.0,
    dram_contention_penalty=40.0,
    tlb_entries=64,
    tlb_walk_latency=30,
    tlb_max_walks=2,
    tlb_l2_entries=1024,
    tlb_l2_latency=9,
    page_bits=21,  # transparent huge pages (Fig. 10 compares against 12)
)

#: Intel Xeon Phi 3120P (Knights Corner), 1.1 GHz, in-order.  32KiB L1D,
#: 512KiB L2, GDDR5 — high bandwidth but very high latency in core cycles.
XEON_PHI = MachineConfig(
    name="Xeon Phi",
    freq_ghz=1.1,
    in_order=True,
    issue_width=2,
    rob_size=0,
    mshrs=6,
    caches=(
        CacheConfig(32 * 1024, 8, 3),
        CacheConfig(512 * 1024, 8, 24),
    ),
    dram_latency=340,
    dram_cycles_per_line=6.0,
    dram_contention_penalty=30.0,
    tlb_entries=64,
    tlb_walk_latency=45,
    tlb_max_walks=2,
    tlb_l2_entries=128,
    tlb_l2_latency=12,
    page_bits=12,
)

#: ARM Cortex-A57 (Nvidia TX1), 1.9 GHz, out-of-order.  32KiB L1D,
#: 2MiB L2, LPDDR4.  Only one page-table walk at a time (§6.1).
A57 = MachineConfig(
    name="A57",
    freq_ghz=1.9,
    in_order=False,
    issue_width=3,
    rob_size=40,
    mshrs=5,
    caches=(
        CacheConfig(32 * 1024, 2, 4),
        CacheConfig(2 * 1024 * 1024, 16, 21),
    ),
    dram_latency=180,
    dram_cycles_per_line=9.0,
    dram_contention_penalty=30.0,
    tlb_entries=48,
    tlb_walk_latency=45,
    tlb_max_walks=1,
    tlb_l2_entries=1024,
    tlb_l2_latency=10,
    page_bits=12,
)

#: ARM Cortex-A53 (Odroid C2), 2.0 GHz, in-order.  32KiB L1D, 1MiB L2,
#: DDR3.
A53 = MachineConfig(
    name="A53",
    freq_ghz=2.0,
    in_order=True,
    issue_width=2,
    rob_size=0,
    mshrs=2,
    caches=(
        CacheConfig(32 * 1024, 4, 3),
        CacheConfig(1 * 1024 * 1024, 16, 15),
    ),
    dram_latency=190,
    dram_cycles_per_line=10.0,
    dram_contention_penalty=30.0,
    tlb_entries=48,
    tlb_walk_latency=35,
    tlb_max_walks=1,
    tlb_l2_entries=512,
    tlb_l2_latency=10,
    page_bits=12,
)

#: The four systems of Table 1, in the paper's presentation order.
ALL_SYSTEMS = (HASWELL, A57, A53, XEON_PHI)


def system_by_name(name: str) -> MachineConfig:
    """Look up one of the Table 1 systems by (case-insensitive) name."""
    for config in ALL_SYSTEMS:
        if config.name.lower() == name.lower():
            return config
    raise KeyError(f"unknown system {name!r}; "
                   f"choose from {[c.name for c in ALL_SYSTEMS]}")
