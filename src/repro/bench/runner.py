"""Experiment runner: workload × variant × machine → cycles and stats.

Every figure's harness funnels through :func:`run_variant` /
:func:`speedup_table`, so results are produced identically everywhere:
fresh memory, fresh module, functional validation of the architectural
results, and cycle counts from the timed interpreter.

The engine options (:class:`~repro.envcfg.SimOptions`) and the run
cache are arguments; a caller that leaves them ``None`` gets the pair
the innermost :func:`run_defaults` block installed, which is how the
figure functions of :mod:`repro.bench.experiments` run under whatever
configuration their entry point chose.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

from ..envcfg import SimOptions
from ..ir import print_module
from ..machine.configs import MachineConfig
from ..machine.interpreter import Interpreter
from ..machine.memory import Memory
from ..passes.prefetch import PrefetchOptions
from ..telemetry.spans import span
from ..telemetry.timeline import TimelineRecorder
from ..workloads.base import Workload
from .cache import RunCache, run_key

#: In-process telemetry: actual simulations vs. cache hits, and total
#: simulated instructions — read by ``tools/bench_perf.py``.
TELEMETRY = {"simulated_runs": 0, "cached_runs": 0,
             "simulated_instructions": 0}


#: Where simulated runs append their compiled-trace rows while
#: :func:`collecting_traces` is active; ``None`` the rest of the time,
#: so long-lived processes keep nothing.
_TRACE_ROWS: ContextVar[list[dict] | None] = ContextVar(
    "repro_trace_rows", default=None)


#: ``(sim, cache)`` that ``None`` arguments of :func:`run_variant` and
#: :func:`run_specs` stand for; see :func:`run_defaults`.
_DEFAULTS: ContextVar[tuple[SimOptions, RunCache | None]] = ContextVar(
    "repro_run_defaults", default=(SimOptions(), None))


@contextmanager
def run_defaults(sim: SimOptions = SimOptions(),
                 cache: RunCache | None = None):
    """Install the engine options and run cache (``None`` = no cache)
    that runs inside the block use when their own ``sim``/``cache``
    argument is ``None``.  Outside every block they are
    ``SimOptions()`` and no cache."""
    token = _DEFAULTS.set((sim, cache))
    try:
        yield
    finally:
        _DEFAULTS.reset(token)


def _resolved(sim, cache) -> tuple[SimOptions, RunCache | None]:
    """``sim`` and ``cache`` with ``None`` taken from
    :func:`run_defaults`; ``cache=False`` means no cache."""
    default_sim, default_cache = _DEFAULTS.get()
    return (default_sim if sim is None else sim,
            default_cache if cache is None else cache or None)


def current_sim() -> SimOptions:
    """The engine options installed by the innermost
    :func:`run_defaults` block."""
    return _DEFAULTS.get()[0]


def reset_telemetry() -> None:
    """Zero the run telemetry counters."""
    for key in TELEMETRY:
        TELEMETRY[key] = 0


@contextmanager
def collecting_traces():
    """Collect per-trace rows from every run simulated in this process
    inside the block, each tagged with the run's workload/variant/
    machine — the raw material of ``repro bench --hot-report``.  Pooled
    workers and cache hits contribute nothing."""
    rows: list[dict] = []
    token = _TRACE_ROWS.set(rows)
    try:
        yield rows
    finally:
        _TRACE_ROWS.reset(token)


@dataclass
class VariantResult:
    """Measured outcome of one (workload, variant, machine) run."""

    workload: str
    variant: str
    machine: str
    cycles: float
    instructions: int
    loads: int
    prefetches: int
    iterations: int
    l1_hit_rate: float = 0.0
    dram_accesses: int = 0
    tlb_walks: int = 0
    #: Telemetry snapshot dict (see docs/TELEMETRY.md) when the run was
    #: made with telemetry enabled; ``None`` otherwise.  JSON-safe, so
    #: it round-trips through the disk cache with the rest of the row.
    telemetry: dict | None = None
    #: Windowed timeline snapshot (``repro-timeline-v1``) when the run
    #: was made with timeline sampling enabled; ``None`` otherwise.
    #: JSON-safe and cached alongside the row, like ``telemetry``.
    timeline: dict | None = None

    @property
    def cycles_per_iteration(self) -> float:
        """Cycles per loop iteration (workload-defined iteration)."""
        return self.cycles / self.iterations if self.iterations else 0.0


def run_variant(workload: Workload, variant: str, machine: MachineConfig,
                lookahead: int = 64,
                options: PrefetchOptions | None = None,
                validate: bool = True,
                cache: RunCache | bool | None = None,
                sim: SimOptions | None = None,
                **manual_knobs) -> VariantResult:
    """Build, execute, and validate one variant on one machine.

    :param cache: a :class:`RunCache`, ``False`` for none, or ``None``
        for the one :func:`run_defaults` installed.  On a hit,
        ``prepare`` still runs (it advances the workload's RNG, keeping
        later runs' inputs — and cache keys — identical to an uncached
        sequence) but simulation and validation are skipped.
    :param sim: the engine options, or ``None`` for the ones
        :func:`run_defaults` installed.  Telemetry and the timeline
        never change the measured cycles; their snapshots ride the
        result, and the whole value is part of the run's cache key.
    """
    with span("bench", "run_variant", workload=workload.name,
              variant=variant, machine=machine.name) as job:
        with span("bench", "build", workload=workload.name,
                  variant=variant):
            module = workload.build_variant(
                variant, lookahead=lookahead, options=options,
                **manual_knobs)
        sim, run_cache = _resolved(sim, cache)
        hit = key = None
        if run_cache is not None:
            # Keyed before prepare(): the RNG state at this point, plus
            # the built IR, pin down the run's inputs exactly.
            key = run_key(print_module(module), machine, workload,
                          validate, sim)
            hit = run_cache.get(key)
        memory = Memory(machine.line_size)
        with span("bench", "prepare", workload=workload.name):
            prepared = workload.prepare(memory)
        if hit is not None:
            try:
                out = VariantResult(**hit)
            except TypeError:
                # A row written by an incompatible schema (stale entry
                # surviving a code-hash collision, or a hand-edited
                # file) is a miss, not a crash.
                hit = None
            else:
                job["cached"] = True
                TELEMETRY["cached_runs"] += 1
                return out
        job["cached"] = False
        interp = Interpreter(
            module, memory, machine=machine, fastpath=sim.fastpath,
            telemetry=sim.telemetry,
            timeline=(TimelineRecorder(window=sim.timeline_window)
                      if sim.timeline_window is not None else None))
        with span("bench", "simulate", workload=workload.name,
                  variant=variant, machine=machine.name):
            result = interp.run(workload.entry, prepared.args)
        if validate:
            with span("bench", "validate", workload=workload.name):
                prepared.validate()
        ms = result.memory_system
        out = VariantResult(
            workload=workload.name,
            variant=variant,
            machine=machine.name,
            cycles=result.cycles,
            instructions=result.stats.instructions,
            loads=result.stats.loads,
            prefetches=result.stats.prefetches,
            iterations=prepared.iterations,
            l1_hit_rate=ms.l1.stats.hit_rate if ms else 0.0,
            dram_accesses=ms.dram.stats.accesses if ms else 0,
            tlb_walks=ms.tlb.stats.misses if ms else 0,
            telemetry=result.telemetry,
            timeline=result.timeline)
        TELEMETRY["simulated_runs"] += 1
        TELEMETRY["simulated_instructions"] += out.instructions
        trace_rows = _TRACE_ROWS.get()
        if trace_rows is not None:
            for row in interp.trace_report():
                row.update(workload=workload.name, variant=variant,
                           machine=machine.name)
                trace_rows.append(row)
        if run_cache is not None:
            run_cache.put(key, dataclasses.asdict(out))
        return out


@dataclass
class RunSpec:
    """One deferred :func:`run_variant` call, for :func:`run_specs`."""

    workload: Workload
    variant: str
    machine: MachineConfig
    lookahead: int = 64
    options: PrefetchOptions | None = None
    validate: bool = True
    sim: SimOptions | None = None
    manual_knobs: dict = field(default_factory=dict)

    def run(self, cache=None) -> VariantResult:
        """Execute this spec."""
        return run_variant(self.workload, self.variant, self.machine,
                           self.lookahead, self.options, self.validate,
                           cache=cache, sim=self.sim,
                           **self.manual_knobs)


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count: explicit, else the available CPUs."""
    if jobs is None:
        try:
            jobs = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            jobs = os.cpu_count() or 1
    return max(1, jobs)


def _run_group(payload) -> list:
    """Run one workload's specs serially, in order, under the
    defaults the submitting process resolved (pool worker, or inline)."""
    specs, sim, cache = payload
    with run_defaults(sim, cache):
        return [spec.run() for spec in specs]


def run_specs(specs: list[RunSpec], jobs: int | None = None,
              cache: RunCache | bool | None = None) -> list[VariantResult]:
    """Run many specs, fanning out over processes where safe.

    Specs sharing a workload *instance* form a group executed serially
    in submission order (``prepare`` draws from the instance's shared
    RNG, so order determines each run's inputs); distinct instances are
    independent and run in parallel.  Results come back in submission
    order and are bit-identical to a serial :func:`run_variant` loop.
    ``cache`` and every spec's ``sim`` left ``None`` resolve against
    :func:`run_defaults` here, in the calling process.
    """
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    groups: dict[int, list[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault(id(spec.workload), []).append(i)
    sim, run_cache = _resolved(None, cache)
    if jobs <= 1 or len(groups) <= 1 or len(specs) <= 1:
        return _run_group((specs, sim, run_cache))
    payloads = [([specs[i] for i in idxs], sim, run_cache)
                for idxs in groups.values()]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        return _run_group((specs, sim, run_cache))
    results: list = [None] * len(specs)
    with ctx.Pool(min(jobs, len(payloads))) as pool:
        for idxs, group in zip(groups.values(),
                               pool.map(_run_group, payloads)):
            for i, result in zip(idxs, group):
                results[i] = result
    # Child-side telemetry and in-memory cache entries do not propagate
    # back; disk entries do.
    return results


@dataclass
class SpeedupRow:
    """Speedups of the prefetched variants over plain, for one
    (workload, machine) pair."""

    workload: str
    machine: str
    baseline_cycles: float
    speedups: dict[str, float] = field(default_factory=dict)
    results: dict[str, VariantResult] = field(default_factory=dict)


def speedup_row(workload: Workload, machine: MachineConfig,
                variants: tuple[str, ...] = ("auto", "manual"),
                lookahead: int = 64, **kwargs) -> SpeedupRow:
    """Run plain + the requested variants; returns speedups over plain."""
    plain = run_variant(workload, "plain", machine, lookahead, **kwargs)
    row = SpeedupRow(workload=workload.name, machine=machine.name,
                     baseline_cycles=plain.cycles)
    row.results["plain"] = plain
    for variant in variants:
        result = run_variant(workload, variant, machine, lookahead,
                             **kwargs)
        row.results[variant] = result
        row.speedups[variant] = (plain.cycles / result.cycles
                                 if result.cycles else 0.0)
    return row


def geometric_mean(values: list[float]) -> float:
    """Geometric mean, as the paper uses for its summary speedups."""
    if not values:
        raise ValueError("geometric mean of no values")
    product = 1.0
    for v in values:
        if v <= 0:
            raise ValueError("geometric mean needs positive values")
        product *= v
    return product ** (1.0 / len(values))
