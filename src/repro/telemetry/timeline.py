"""Windowed time-series sampling of the simulation counters.

A :class:`TimelineRecorder` turns a run's cumulative counters into a
sequence of fixed-width *windows* along the simulated-cycle axis: every
``window_cycles`` cycles it snapshots the delta of core issue/stall
cycles, per-level cache hits/misses (with MPKI), TLB misses, DRAM
accesses, the MSHR high-water mark, and — when a telemetry collector is
attached — the per-window prefetch outcome bins.  This is the
phase-resolved signal the aggregate ``repro stats`` report blends away:
a prefetch that is timely during warm-up and late in the pointer-chase
phase shows up here as two different windows.

Sampling is **observational only** and happens exclusively at the
interpreter's reference *yield boundaries* (the points where
``run_stepped`` hands back the core time, and where the trace JIT's
instruction budget exits compiled traces).  The reference and fast
engines share those boundaries bit-for-bit, so a run with a recorder
attached is cycle-identical to one without, under either engine — the
equivalence suite proves it.

Gating: ``REPRO_SIM_TIMELINE`` (default off) enables recording for runs
that do not pass an explicit recorder; ``REPRO_SIM_TIMELINE_WINDOW``
sets the window width in simulated cycles (default
:data:`DEFAULT_WINDOW_CYCLES`; invalid values warn and fall back, they
never abort a run).
"""

from __future__ import annotations

import os
import warnings

from ..remarks import emit

#: Schema tag of :meth:`TimelineRecorder.snapshot`.
SCHEMA = "repro-timeline-v1"

#: Default window width in simulated cycles.
DEFAULT_WINDOW_CYCLES = 100_000

#: Smallest accepted window; below this the per-window dicts would
#: dwarf the simulation itself, so smaller requests clamp up.
MIN_WINDOW_CYCLES = 1_000

#: Dynamic instructions between sampling opportunities when the
#: recorder itself drives the run (``Interpreter.run`` with a recorder
#: attached).  Matches ``run_stepped``'s default yield interval; the
#: boundary placement is what keeps the engines bit-identical, not the
#: value.
DEFAULT_SAMPLE_EVERY = 10_000


def timeline_enabled(explicit: bool | None = None) -> bool:
    """Resolve a timeline flag: explicit setting, else the
    ``REPRO_SIM_TIMELINE`` environment variable (default off)."""
    if explicit is not None:
        return bool(explicit)
    return os.environ.get("REPRO_SIM_TIMELINE", "0") == "1"


def _window_fallback(raw: str, used: int, reason: str) -> int:
    """Report a bad ``REPRO_SIM_TIMELINE_WINDOW`` and carry on.

    Mirrors the telemetry ring's clamp contract: a Python warning plus
    (when remarks are being collected) a ``TimelineWindowClamped``
    warning remark, never a crash.
    """
    warnings.warn(
        f"REPRO_SIM_TIMELINE_WINDOW={raw!r} is {reason}; "
        f"using {used}", RuntimeWarning, stacklevel=3)
    emit("warning", "telemetry", "TimelineWindowClamped",
         value=raw, used=used, reason=reason)
    return used


def timeline_window() -> int:
    """Window width honouring ``REPRO_SIM_TIMELINE_WINDOW``.

    Invalid values fall back to :data:`DEFAULT_WINDOW_CYCLES` and
    undersized ones clamp to :data:`MIN_WINDOW_CYCLES`, in both cases
    with a warning (and a remark when collecting) instead of a crash.
    """
    raw = os.environ.get("REPRO_SIM_TIMELINE_WINDOW")
    if not raw:
        return DEFAULT_WINDOW_CYCLES
    try:
        window = int(raw)
    except ValueError:
        return _window_fallback(raw, DEFAULT_WINDOW_CYCLES,
                                "not an integer")
    if window <= 0:
        return _window_fallback(raw, DEFAULT_WINDOW_CYCLES,
                                "not positive")
    if window < MIN_WINDOW_CYCLES:
        return _window_fallback(raw, MIN_WINDOW_CYCLES,
                                "below the minimum")
    return window


def resolve_timeline(timeline) -> "TimelineRecorder | None":
    """Normalise a caller's ``timeline`` argument.

    A :class:`TimelineRecorder` passes through; ``True`` builds a fresh
    one; ``False`` disables; ``None`` follows ``REPRO_SIM_TIMELINE``.
    """
    if isinstance(timeline, TimelineRecorder):
        return timeline
    if timeline is None:
        timeline = timeline_enabled(None)
    return TimelineRecorder() if timeline else None


class TimelineRecorder:
    """Per-run window accumulator (one recorder per run).

    :param window: window width in simulated cycles (``None`` =
        environment default via :func:`timeline_window`).
    :param sample_every: dynamic instructions between sampling
        opportunities when the recorder drives the run itself.

    The interpreter calls :meth:`sample` at every yield boundary and
    :meth:`finalize` when the run completes; a window record is closed
    at the first boundary at or past each ``window``-cycle edge (so a
    long stall can make one record span several edges — ``end_cycle``
    tells the truth).  All reads are pure: the recorder never mutates
    the core, the hierarchy, or the collector it observes.
    """

    def __init__(self, window: int | None = None,
                 sample_every: int | None = None):
        self.window = int(window) if window else timeline_window()
        if self.window <= 0:
            raise ValueError("timeline window must be positive")
        self.sample_every = (int(sample_every) if sample_every
                             else DEFAULT_SAMPLE_EVERY)
        self.windows: list[dict] = []
        self._prev: dict | None = None
        self._next_edge = float(self.window)
        self._mshr_high = 0
        self._finalized = False

    # -- counter capture ------------------------------------------------

    @staticmethod
    def _counters(core, memory_system, telemetry) -> dict:
        """Cumulative counters at one instant (pure reads only)."""
        cur = {
            "cycles": core.cycles,
            "instructions": core.instructions,
            "tlb_misses": memory_system.tlb.stats.misses,
            "dram_accesses": memory_system.dram.stats.accesses,
            "sw_prefetches": memory_system.stats.sw_prefetches,
            "levels": {c.name: (c.stats.hits, c.stats.misses)
                       for c in memory_system.caches},
            "outcomes": (dict(telemetry.outcome_counts)
                         if telemetry is not None else None),
        }
        return cur

    def sample(self, core, memory_system, telemetry=None) -> None:
        """Observe the counters at a yield boundary; close windows as
        cycle edges are crossed."""
        occupancy = memory_system.mshr_occupancy(core.time)
        if occupancy > self._mshr_high:
            self._mshr_high = occupancy
        if core.time >= self._next_edge:
            self._close(core, memory_system, telemetry)

    def finalize(self, core, memory_system, telemetry=None) -> None:
        """Close the trailing partial window (idempotent)."""
        if self._finalized:
            return
        self._finalized = True
        cur = self._counters(core, memory_system, telemetry)
        prev = self._prev
        base_instr = prev["instructions"] if prev else 0
        base_cycles = prev["cycles"] if prev else 0.0
        if cur["instructions"] > base_instr \
                or cur["cycles"] > base_cycles:
            self._close(core, memory_system, telemetry)

    def _close(self, core, memory_system, telemetry) -> None:
        cur = self._counters(core, memory_system, telemetry)
        prev = self._prev
        start = prev["cycles"] if prev else 0.0
        d_cycles = cur["cycles"] - start
        d_instr = cur["instructions"] - (prev["instructions"]
                                         if prev else 0)
        issue = d_instr * core.issue_cost
        levels = {}
        for name, (hits, misses) in cur["levels"].items():
            p_hits, p_misses = (prev["levels"][name] if prev
                                else (0, 0))
            d_hits = hits - p_hits
            d_misses = misses - p_misses
            levels[name] = {
                "hits": d_hits,
                "misses": d_misses,
                "mpki": (1000.0 * d_misses / d_instr
                         if d_instr else 0.0),
            }
        outcomes = None
        if cur["outcomes"] is not None:
            prev_out = prev["outcomes"] if prev and prev["outcomes"] \
                else {}
            outcomes = {o: n - prev_out.get(o, 0)
                        for o, n in cur["outcomes"].items()}
        self.windows.append({
            "index": len(self.windows),
            "start_cycle": start,
            "end_cycle": cur["cycles"],
            "cycles": d_cycles,
            "instructions": d_instr,
            "ipc": d_instr / d_cycles if d_cycles else 0.0,
            "issue_cycles": issue,
            "stall_cycles": max(0.0, d_cycles - issue),
            "levels": levels,
            "tlb_misses": cur["tlb_misses"] - (prev["tlb_misses"]
                                               if prev else 0),
            "dram_accesses": cur["dram_accesses"]
            - (prev["dram_accesses"] if prev else 0),
            "sw_prefetches": cur["sw_prefetches"]
            - (prev["sw_prefetches"] if prev else 0),
            "mshr_high_water": self._mshr_high,
            "outcomes": outcomes,
        })
        self._prev = cur
        self._mshr_high = 0
        # Next edge strictly ahead of the close point, on the grid.
        edges_passed = int(cur["cycles"] // self.window) + 1
        self._next_edge = float(edges_passed * self.window)

    # -- export ---------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-serialisable timeline (schema :data:`SCHEMA`)."""
        last = self._prev or {}
        return {
            "schema": SCHEMA,
            "window_cycles": self.window,
            "sample_every": self.sample_every,
            "windows": [dict(w) for w in self.windows],
            "totals": {
                "windows": len(self.windows),
                "cycles": last.get("cycles", 0.0),
                "instructions": last.get("instructions", 0),
            },
        }
