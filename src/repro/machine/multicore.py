"""Multicore simulation by interleaving interpreters over shared DRAM.

Each core runs its own interpreter (own caches, TLB, core model) but all
cores share one :class:`~repro.machine.dram.DRAMChannel`.  The scheduler
repeatedly resumes the interpreter whose core clock is furthest behind,
so requests reach the shared channel in approximately global time order.
Used by the Fig. 9 bandwidth experiment.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from ..ir.module import Module
from .configs import MachineConfig
from .dram import DRAMChannel
from .interpreter import Interpreter, RunResult
from .memory import Memory


@dataclass
class MulticoreResult:
    """Outcome of a multicore run.

    :ivar per_core: each core's :class:`RunResult`.
    :ivar makespan: cycles until the *last* core finished.
    """

    per_core: list[RunResult]
    makespan: float

    @property
    def throughput(self) -> float:
        """Tasks completed per makespan-normalised unit (higher=better)."""
        return len(self.per_core) / self.makespan if self.makespan else 0.0


def run_multicore(modules: list[Module], func_name: str,
                  args_per_core: list[list], config: MachineConfig,
                  memories: list[Memory] | None = None,
                  quantum: int = 2000,
                  fastpath: bool = True) -> MulticoreResult:
    """Run one task per core with a shared DRAM channel.

    :param modules: one module per core (typically copies of the same
        program; each core needs its own, since interpreters compile and
        cache per-module state).
    :param args_per_core: entry-function arguments per core.
    :param memories: per-core address spaces (fresh ones if omitted).
    :param quantum: instructions executed per scheduling turn.
    :param fastpath: ``False`` runs every core on the reference engine.
    """
    n = len(modules)
    if len(args_per_core) != n:
        raise ValueError("need one argument list per core")
    shared_dram = DRAMChannel(config.dram_latency,
                              config.dram_cycles_per_line,
                              config.dram_contention_penalty)
    shared_dram.set_sharers(n)
    interpreters = []
    for i in range(n):
        memory = memories[i] if memories else Memory(config.line_size)
        interpreters.append(Interpreter(
            modules[i], memory, machine=config, dram=shared_dram,
            fastpath=fastpath))

    # Min-heap of (core_time, index, generator).
    heap: list[tuple[float, int]] = []
    gens = []
    for i, interp in enumerate(interpreters):
        gen = interp.run_stepped(func_name, args_per_core[i],
                                 yield_every=quantum)
        gens.append(gen)
        heapq.heappush(heap, (0.0, i))

    finished: dict[int, RunResult] = {}
    while heap:
        _, index = heapq.heappop(heap)
        try:
            t = next(gens[index])
            heapq.heappush(heap, (t, index))
        except StopIteration:
            finished[index] = interpreters[index]._result

    per_core = [finished[i] for i in range(n)]
    makespan = max(r.cycles for r in per_core)
    return MulticoreResult(per_core=per_core, makespan=makespan)

