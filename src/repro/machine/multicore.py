"""Multicore simulation by interleaving interpreters over shared DRAM.

Each core runs its own interpreter (own caches, TLB, core model); the
caller builds them around one shared
:class:`~repro.machine.dram.DRAMChannel`, as
:func:`repro.bench.runner.run_variant` does for a list of workload
instances (the Fig. 9 bandwidth experiment).  The scheduler repeatedly
resumes the interpreter whose core clock is furthest behind, for
:data:`QUANTUM` instructions, so requests reach the shared channel in
approximately global time order.
"""

from __future__ import annotations

import heapq

from .interpreter import Interpreter, RunResult

#: Dynamic instructions a core runs per scheduling turn.
QUANTUM = 2000


def run_multicore(interpreters: list[Interpreter], func_name: str,
                  args_per_core: list[list]) -> list[RunResult]:
    """Run ``func_name`` on every interpreter, interleaved, and return
    each core's :class:`RunResult` in order; the makespan is the
    largest ``cycles``."""
    if len(args_per_core) != len(interpreters):
        raise ValueError("need one argument list per core")
    gens = [interp.run_stepped(func_name, args, yield_every=QUANTUM)
            for interp, args in zip(interpreters, args_per_core)]
    # Min-heap of (core_time, index).
    heap = [(0.0, i) for i in range(len(gens))]
    while heap:
        _, index = heapq.heappop(heap)
        try:
            heapq.heappush(heap, (next(gens[index]), index))
        except StopIteration:
            pass
    return [interp._result for interp in interpreters]
