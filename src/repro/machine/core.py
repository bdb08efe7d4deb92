"""Core timing models.

Two dependency-driven models cover the paper's four systems:

* :class:`InOrderCore` (A53, Xeon Phi) — a scoreboarded in-order pipeline.
  Loads that miss beyond the last cache level *block* the pipeline ("it
  stalls on load misses", §6.1), so demand misses cannot overlap across
  iterations; software prefetches issue without blocking, which is where
  the large in-order speedups come from.

* :class:`OutOfOrderCore` (Haswell, A57) — an analytical out-of-order
  model: instructions fetch in program order at ``issue_width`` per
  cycle, bounded by a reorder buffer; they execute when operands are
  ready and retire in order.  Independent loads from different loop
  iterations overlap naturally up to the ROB/MSHR limits, which is why
  software prefetching gains less on these machines.

Both models charge every instruction an issue slot, so prefetch
instruction overhead (Fig. 8) costs real time.
"""

from __future__ import annotations

from collections import deque

from .configs import MachineConfig
from .system import MemorySystem

#: Default ALU-op latency in cycles.
_ALU_LATENCY = 1.0
#: Multiply/divide latencies.
_LATENCIES = {"mul": 3.0, "sdiv": 12.0, "udiv": 12.0, "srem": 12.0,
              "urem": 12.0, "fadd": 3.0, "fsub": 3.0, "fmul": 4.0,
              "fdiv": 12.0}


class InOrderCore:
    """Scoreboarded in-order core with blocking demand misses."""

    def __init__(self, config: MachineConfig, memory: MemorySystem):
        if not config.in_order:
            raise ValueError(f"{config.name} is not an in-order core")
        self.config = config
        self.memory = memory
        self.issue_cost = 1.0 / config.issue_width
        self.time = 0.0
        # A demand load blocks the pipe if its latency exceeds the level
        # reachable without leaving the cache hierarchy.
        self._block_threshold = max(c.latency for c in config.caches) + 1.0
        self.instructions = 0

    def op(self, dep_ready: float, opcode: str = "") -> float:
        """Issue an ALU op; returns result-ready time."""
        self.instructions += 1
        issue = max(self.time + self.issue_cost, dep_ready)
        self.time = issue
        return issue + _LATENCIES.get(opcode, _ALU_LATENCY)

    def load(self, pc: int, addr: int, dep_ready: float) -> float:
        """Issue a demand load; returns data-ready time."""
        self.instructions += 1
        issue = max(self.time + self.issue_cost, dep_ready)
        ready = self.memory.load(pc, addr, issue)
        if ready - issue > self._block_threshold:
            self.time = ready  # pipeline stalls on the miss
        else:
            self.time = issue
        return ready

    def store(self, pc: int, addr: int, dep_ready: float) -> None:
        """Issue a store (fire-and-forget through the store buffer)."""
        self.instructions += 1
        issue = max(self.time + self.issue_cost, dep_ready)
        self.memory.store(pc, addr, issue)
        self.time = issue

    def prefetch(self, pc: int, addr: int, dep_ready: float) -> None:
        """Issue a software prefetch (never blocks on the data)."""
        self.instructions += 1
        issue = max(self.time + self.issue_cost, dep_ready)
        accepted = self.memory.prefetch(pc, addr, issue)
        self.time = accepted  # backpressure when MSHRs are exhausted

    def branch(self, dep_ready: float) -> None:
        """Issue a (perfectly predicted) branch."""
        self.instructions += 1
        self.time = max(self.time + self.issue_cost, dep_ready)

    @property
    def cycles(self) -> float:
        """Cycles elapsed so far."""
        return self.time


class OutOfOrderCore:
    """Analytical out-of-order core (ROB + in-order retire)."""

    def __init__(self, config: MachineConfig, memory: MemorySystem):
        if config.in_order:
            raise ValueError(f"{config.name} is not an out-of-order core")
        self.config = config
        self.memory = memory
        self.issue_cost = 1.0 / config.issue_width
        self.fetch_time = 0.0
        # Retire times of the last ``rob_size`` instructions, oldest
        # first: instruction n fetches no earlier than instruction
        # n - rob_size retires and frees its ROB entry.
        self._rob = deque([0.0] * config.rob_size, maxlen=config.rob_size)
        self._last_retire = 0.0
        self.instructions = 0

    def _fetch(self) -> float:
        """Advance the in-order fetch/rename stage by one instruction."""
        fetch = max(self.fetch_time + self.issue_cost, self._rob[0])
        self.fetch_time = fetch
        return fetch

    def _retire(self, completion: float) -> None:
        retire = max(completion, self._last_retire)
        self._last_retire = retire
        self._rob.append(retire)

    def op(self, dep_ready: float, opcode: str = "") -> float:
        """Issue an ALU op; returns result-ready time."""
        self.instructions += 1
        fetch = self._fetch()
        issue = max(fetch, dep_ready)
        done = issue + _LATENCIES.get(opcode, _ALU_LATENCY)
        self._retire(done)
        return done

    def load(self, pc: int, addr: int, dep_ready: float) -> float:
        """Issue a demand load; returns data-ready time."""
        self.instructions += 1
        fetch = self._fetch()
        issue = max(fetch, dep_ready)
        ready = self.memory.load(pc, addr, issue)
        self._retire(ready)
        return ready

    def store(self, pc: int, addr: int, dep_ready: float) -> None:
        """Issue a store; retires via the store buffer."""
        self.instructions += 1
        fetch = self._fetch()
        issue = max(fetch, dep_ready)
        self.memory.store(pc, addr, issue)
        self._retire(issue + _ALU_LATENCY)

    def prefetch(self, pc: int, addr: int, dep_ready: float) -> None:
        """Issue a software prefetch; the core never waits for the data."""
        self.instructions += 1
        fetch = self._fetch()
        issue = max(fetch, dep_ready)
        accepted = self.memory.prefetch(pc, addr, issue)
        self._retire(accepted + _ALU_LATENCY)

    def branch(self, dep_ready: float) -> None:
        """Issue a (perfectly predicted) branch."""
        self.instructions += 1
        fetch = self._fetch()
        issue = max(fetch, dep_ready)
        self._retire(issue + _ALU_LATENCY)

    @property
    def cycles(self) -> float:
        """Cycles elapsed so far (time of the last retirement)."""
        return max(self._last_retire, self.fetch_time)

    @property
    def time(self) -> float:
        """Alias for :attr:`cycles` (parity with :class:`InOrderCore`)."""
        return self.cycles


def make_core(config: MachineConfig, memory: MemorySystem):
    """Instantiate the right core model for ``config``."""
    if config.in_order:
        return InOrderCore(config, memory)
    return OutOfOrderCore(config, memory)
