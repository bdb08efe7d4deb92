"""The telemetry collector: event ring, outcome bins, cycle accounts.

One :class:`TelemetryCollector` observes one :class:`~repro.machine.
system.MemorySystem` for the duration of a run.  The memory system's
reference walks call the ``prefetch_*`` / ``demand_*`` hooks; the
interpreter calls :meth:`finalize` when the run completes.  All hooks
are pure observation — they never feed a number back into the timing
model, so a run with a collector attached is cycle-for-cycle identical
to one without.

Gating: a run attaches a collector when its
:class:`~repro.envcfg.SimOptions` asks for telemetry (default off).
The event ring holds the last :data:`DEFAULT_RING_CAPACITY` events;
aggregate tables are unbounded but small (one row per prefetch PC /
outcome / level).
"""

from __future__ import annotations

import json
from collections import deque

from .outcomes import (DROPPED, EARLY, LATE, OUTCOMES, REDUNDANT, TIMELY,
                       UNUSED)

#: Default event ring capacity (events beyond this evict the oldest).
DEFAULT_RING_CAPACITY = 4096


def resolve_collector(telemetry) -> "TelemetryCollector | None":
    """Normalise a caller's ``telemetry`` argument.

    A :class:`TelemetryCollector` passes through; ``True`` builds a
    fresh one; ``False`` or ``None`` disables.
    """
    if isinstance(telemetry, TelemetryCollector):
        return telemetry
    return TelemetryCollector() if telemetry else None


class TelemetryCollector:
    """Per-run observability state.

    :param capacity: event-ring size.

    The collector tracks three things:

    * **prefetch outcomes** — every accepted software prefetch is
      either classified immediately (``redundant``, ``dropped``) or
      parked in ``_pending`` keyed by line address until the first
      demand access to that line (``timely`` / ``late`` / ``early``)
      or the end of the run (``unused`` / ``early``) resolves it;
    * **cycle accounts** — demand latency attributed to the serving
      level (L1/L2/L3/DRAM), translation wait to the TLB, and
      MSHR-full prefetch backpressure to its own bucket;
    * **events** — a bounded ring of per-prefetch classification
      records for post-mortem inspection and JSON export.
    """

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY):
        self.events: deque = deque(maxlen=capacity)
        self.outcome_counts: dict[str, int] = {o: 0 for o in OUTCOMES}
        self.per_pc: dict[int, dict[str, int]] = {}
        self.per_level: dict[str, int] = {}
        self.cycles: dict[str, float] = {"TLB": 0.0, "DRAM": 0.0,
                                         "prefetch_backpressure": 0.0}
        #: Residual fill wait demand loads still paid on late prefetches
        #: (the paper's "offset too small" loss).
        self.late_wait_cycles = 0.0
        #: Latency a full DRAM miss would have cost the demanded loads
        #: that instead hit on a prefetched (timely/late) line.
        self.demand_hits_on_prefetch = 0
        self._pending: dict[int, tuple[int, float, float]] = {}
        self._core: dict | None = None
        self._memory: dict | None = None

    # -- prefetch-side hooks (called by MemorySystem.prefetch) ----------

    def prefetch_redundant(self, pc: int, line: int, time: float,
                           level: str) -> None:
        """Prefetch to a line already resident (or in flight) at
        ``level``."""
        self._classify(REDUNDANT, pc, line, time, time, level)

    def prefetch_dropped(self, pc: int, line: int, time: float) -> None:
        """Prefetch that found the MSHR file full and stalled issue."""
        self._resolve_stale(line, time)
        self._classify(DROPPED, pc, line, time, time, None)

    def prefetch_issued(self, pc: int, line: int, time: float,
                        fill_time: float) -> None:
        """Prefetch accepted and filling from DRAM; park it pending its
        first demand touch."""
        self._resolve_stale(line, time)
        self._pending[line] = (pc, time, fill_time)

    def _resolve_stale(self, line: int, time: float) -> None:
        """A pending line re-prefetched on the *miss* path must have
        been evicted untouched since its fill: bin the old record as
        early before the new prefetch takes the slot."""
        record = self._pending.pop(line, None)
        if record is not None:
            pc, issue, _fill = record
            self._classify(EARLY, pc, line, issue, time, None)

    def account_backpressure(self, wait: float) -> None:
        """Cycles the core lost waiting for an MSHR on a prefetch."""
        if wait > 0:
            self.cycles["prefetch_backpressure"] += wait

    # -- demand-side hooks (called by the reference hierarchy walk) -----

    def account_translation(self, wait: float) -> None:
        """Translation wait (L2-TLB latency or page-walk residue)."""
        if wait > 0:
            self.cycles["TLB"] += wait

    def demand_hit(self, line: int, level: str, t: float, fill: float,
                   ready: float) -> None:
        """Demand access served at ``level``; resolves a pending
        prefetch to ``timely`` (fill complete) or ``late`` (in
        flight)."""
        self.cycles[level] = self.cycles.get(level, 0.0) + (ready - t)
        record = self._pending.pop(line, None)
        if record is None:
            return
        pc, issue, fill_time = record
        self.demand_hits_on_prefetch += 1
        if fill <= t:
            self._classify(TIMELY, pc, line, issue, t, level)
        else:
            self.late_wait_cycles += fill - t
            self._classify(LATE, pc, line, issue, t, level)

    def demand_miss(self, line: int, t: float, done: float) -> None:
        """Demand access that missed every level; a pending prefetch to
        this line was therefore evicted before use."""
        self.cycles["DRAM"] += done - t
        record = self._pending.pop(line, None)
        if record is None:
            return
        pc, issue, _fill = record
        self._classify(EARLY, pc, line, issue, t, None)

    # -- lifecycle ------------------------------------------------------

    def finalize(self, memory_system=None, core=None) -> None:
        """Resolve still-pending prefetches and snapshot run context.

        Pending lines still resident somewhere in the hierarchy are
        ``unused`` (the run ended before a demand touch); absent lines
        were evicted unnoticed and count as ``early``.  Idempotent.
        """
        if memory_system is not None:
            caches = memory_system.caches
            for line, (pc, issue, _fill) in sorted(self._pending.items()):
                resident = any(c.contains(line) for c in caches)
                self._classify(UNUSED if resident else EARLY,
                               pc, line, issue, None, None)
            self._pending.clear()
            self._memory = memory_system.snapshot()
        if core is not None:
            issue_cycles = core.instructions * core.issue_cost
            self._core = {
                "cycles": core.cycles,
                "instructions": core.instructions,
                "issue_cycles": issue_cycles,
                "stall_cycles": max(0.0, core.cycles - issue_cycles),
            }

    # -- aggregation ----------------------------------------------------

    def _classify(self, outcome: str, pc: int, line: int, issue: float,
                  resolve: float | None, level: str | None) -> None:
        self.outcome_counts[outcome] += 1
        pc_bins = self.per_pc.get(pc)
        if pc_bins is None:
            pc_bins = self.per_pc[pc] = {o: 0 for o in OUTCOMES}
        pc_bins[outcome] += 1
        if level is not None and outcome in (TIMELY, LATE, REDUNDANT):
            key = f"{level}:{outcome}"
            self.per_level[key] = self.per_level.get(key, 0) + 1
        self.events.append({"outcome": outcome, "pc": pc, "line": line,
                            "issue": issue, "resolve": resolve,
                            "level": level})

    @property
    def issued(self) -> int:
        """Total classified prefetches (pending ones not yet counted)."""
        return sum(self.outcome_counts.values())

    @property
    def accuracy(self) -> float:
        """Fraction of prefetches whose line served a demand access."""
        total = self.issued
        useful = (self.outcome_counts[TIMELY]
                  + self.outcome_counts[LATE])
        return useful / total if total else 0.0

    @property
    def timeliness(self) -> float:
        """Of the useful prefetches, the fraction that fully hid the
        miss latency."""
        useful = (self.outcome_counts[TIMELY]
                  + self.outcome_counts[LATE])
        return self.outcome_counts[TIMELY] / useful if useful else 0.0

    def snapshot(self) -> dict:
        """JSON-serialisable summary of everything observed."""
        return {
            "schema": "repro-telemetry-v1",
            "prefetch": {
                "issued": self.issued,
                "pending": len(self._pending),
                "outcomes": dict(self.outcome_counts),
                "accuracy": self.accuracy,
                "timeliness": self.timeliness,
                "late_wait_cycles": self.late_wait_cycles,
                "per_pc": {str(pc): dict(bins) for pc, bins in
                           sorted(self.per_pc.items())},
                "per_level": dict(sorted(self.per_level.items())),
            },
            "cycles": {
                "by_source": {k: v for k, v in
                              sorted(self.cycles.items())},
                "core": self._core,
            },
            "memory": self._memory,
            "events": list(self.events),
        }

    def to_json(self, indent: int | None = 2) -> str:
        """The :meth:`snapshot` as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent)
