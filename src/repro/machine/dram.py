"""DRAM channel model: fixed latency plus finite bandwidth.

Every line fill occupies the (possibly shared) channel for
``cycles_per_line`` cycles; requests queue when the channel is busy.
Sharing one :class:`DRAMChannel` between several cores reproduces the
bandwidth saturation of Fig. 9, where four copies of IS on four Haswell
cores achieve *less* total throughput than one core running them in
sequence.  A mild per-contender latency penalty models row-buffer and
scheduling interference beyond pure occupancy.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass
class DRAMStats:
    """Counters for the DRAM channel."""

    accesses: int = 0
    writebacks: int = 0
    busy_cycles: float = 0.0
    queue_cycles: float = 0.0

    def snapshot(self) -> dict:
        """All counters as a plain dict (stable keys, JSON-ready)."""
        return dataclasses.asdict(self)


class DRAMChannel:
    """A single memory channel with latency and occupancy.

    :param latency: cycles from request to data (row activation + CAS +
        transfer), excluding queueing.
    :param cycles_per_line: channel occupancy per 64-byte line; this is
        ``line_size / bytes_per_cycle`` and sets the bandwidth ceiling.
    :param contention_penalty: extra latency cycles per *other* active
        sharer, modelling bank conflicts and scheduler interference.
    """

    def __init__(self, latency: int, cycles_per_line: float,
                 contention_penalty: float = 0.0):
        self.latency = latency
        self.cycles_per_line = cycles_per_line
        self.contention_penalty = contention_penalty
        self._next_free = 0.0
        self._sharers = 1
        self.stats = DRAMStats()

    def set_sharers(self, count: int) -> None:
        """Declare how many cores share this channel (for the penalty)."""
        if count < 1:
            raise ValueError("at least one sharer")
        self._sharers = count

    def access(self, time: float) -> float:
        """Issue a line fill at ``time``; returns data-ready time."""
        start = max(time, self._next_free)
        self._next_free = start + self.cycles_per_line
        extra = self.contention_penalty * (self._sharers - 1)
        done = start + self.latency + extra
        self.stats.accesses += 1
        self.stats.busy_cycles += self.cycles_per_line
        self.stats.queue_cycles += start - time
        return done

    def writeback(self, time: float) -> None:
        """Charge channel occupancy for a dirty-line writeback (the core
        never waits on it, but it steals bandwidth from fills)."""
        start = max(time, self._next_free)
        self._next_free = start + self.cycles_per_line
        self.stats.writebacks += 1
        self.stats.busy_cycles += self.cycles_per_line

    def snapshot(self) -> dict:
        """Configuration and statistics as a plain dict (JSON-ready)."""
        return {
            "latency": self.latency,
            "cycles_per_line": self.cycles_per_line,
            "sharers": self._sharers,
            "stats": self.stats.snapshot(),
        }
