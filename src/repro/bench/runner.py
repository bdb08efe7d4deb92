"""Experiment runner: workload × variant × machine → cycles and stats.

Every figure's harness funnels through :func:`run_variant` (directly
or through :func:`run_specs`), Fig. 9's multicore runs included, so
results are produced identically everywhere: fresh module, one run
key, fresh memory per core, functional validation of every core's
architectural results, and cycle counts from the timed interpreter —
of one core, or of N cores sharing one DRAM channel, interleaved by
:func:`~repro.machine.multicore.run_multicore`.

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
from ..machine.cache import CacheStats
from ..machine.configs import MachineConfig
from ..machine.dram import DRAMChannel
from ..machine.interpreter import Interpreter
from ..machine.memory import Memory
from ..machine.multicore import QUANTUM, run_multicore
from ..obs.sinks import active, installed, span
from ..passes.prefetch import PrefetchOptions
from ..telemetry.timeline import TimelineRecorder
from ..workloads.base import Workload
from .cache import RunCache, run_key

#: Run telemetry: actual simulations vs. cache hits, and total
#: simulated instructions, with :func:`run_specs` workers' counts
#: merged back — read by ``perf/`` and ``bench --hot-report``.
TELEMETRY = {"simulated_runs": 0, "cached_runs": 0,
             "simulated_instructions": 0}


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


class TraceRows:
    """Sink of per-trace rows from every run simulated while it is
    installed (:func:`repro.obs.sinks.collecting`), each tagged with
    the run's workload, variant, machine, ``lookahead`` and ``knobs``
    (see :func:`_knobs`) and the ``core`` it ran on (``1/1`` for a
    one-core run) — the raw material of ``repro bench --hot-report``.
    Cache hits contribute nothing, and with no sink installed runs keep
    no rows."""

    def __init__(self):
        self.records: list[dict] = []


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


def run_variant(workload: Workload | list[Workload], variant: str,
                machine: MachineConfig, lookahead: int = 64,
                options: PrefetchOptions | None = None,
                validate: bool = True,
                cache: RunCache | bool | None = None,
                sim: SimOptions | None = None,
                **manual_knobs) -> VariantResult:
    """Build, execute, and validate one variant on one machine.

    :param workload: the instance one core runs, or a list of
        instances, one per core: the cores run side by side on
        ``machine``, each with its own caches, TLB and core model, all
        sharing one DRAM channel (Fig. 9).  The module is built from
        the first instance, so the list's instances should differ only
        in their inputs (their seeds).  The row of an N-core run has
        the fields of a one-core row: ``cycles`` is the makespan (the
        last core to finish); ``instructions``, ``loads``,
        ``prefetches``, ``iterations`` and ``tlb_walks`` are summed
        over cores; ``dram_accesses`` counts the one shared channel;
        ``l1_hit_rate`` pools every core's L1; ``telemetry`` and
        ``timeline`` are the first core's snapshots (the timeline
        sampled at every scheduling turn, so its ``sample_every`` is
        :data:`~repro.machine.multicore.QUANTUM`).  Every core's inputs
        are prepared and validated, and its trace rows name it
        (``2/4``: the second of four cores).
    :param cache: a :class:`RunCache`, ``False`` for none, or ``None``
        for the one :func:`run_defaults` installed.  The key is made
        before anything is built, from the build recipe (``variant``,
        ``lookahead``, ``options``, ``manual_knobs``) as given, the
        machine, the workload state with its RNG, ``validate`` and
        ``sim`` (see :func:`~repro.bench.cache.run_key`).  A miss
        builds the module once, after the probe, and stores the row
        together with the workload's RNG state after ``prepare`` (a
        list of states, one per instance, for a list).  A hit restores
        that RNG state — so later runs on the instance draw the inputs,
        and get the keys, of an uncached sequence — and returns the
        row: nothing is built (no ``build`` span, no ``pass`` spans, no
        pass remarks; ``repro explain`` builds its own module, see
        :func:`repro.remarks.join.collect_remarks`), no ``Memory`` is
        made and ``prepare``, simulation and validation do not run.
        The recipe stands in for the IR because the simulator code
        hash covers every file a build runs; a :class:`Workload`
        subclass defined outside those packages is keyed only by its
        class name and parameters, so an edit to its ``build`` keeps
        its stale entries.
    :param sim: the engine options, or ``None`` for the ones
        :func:`run_defaults` installed.  Telemetry and the timeline
        never change the measured cycles; their snapshots ride the
        result, and the whole value is part of the run's cache key.
    """
    single = isinstance(workload, Workload)
    instances = [workload] if single else workload
    name = instances[0].name
    with span("bench", "run_variant", workload=name, variant=variant,
              machine=machine.name) as job:
        sim, run_cache = _resolved(sim, cache)
        key = None
        if run_cache is not None:
            # Keyed before prepare(): the RNG state at this point, plus
            # the build recipe, pin down the run's module and inputs.
            key = run_key(variant, lookahead, options, manual_knobs,
                          machine, workload, validate, sim)
            out = _replay(run_cache.get(key), workload)
            if out is not None:
                job["cached"] = True
                TELEMETRY["cached_runs"] += 1
                return out
        job["cached"] = False
        with span("bench", "build", workload=name, variant=variant):
            module = instances[0].build_variant(
                variant, lookahead=lookahead, options=options,
                **manual_knobs)
        dram = DRAMChannel(machine.dram_latency, machine.dram_cycles_per_line,
                           machine.dram_contention_penalty)
        dram.set_sharers(len(instances))
        # An N-core run is driven at the scheduler's quantum, whatever
        # the recorder's own interval.
        sample_every = QUANTUM if len(instances) > 1 else None
        runs, interps = [], []
        for one in instances:
            memory = Memory(machine.line_size)
            with span("bench", "prepare", workload=name):
                runs.append(one.prepare(memory))
            interps.append(Interpreter(
                module, memory, machine=machine, dram=dram,
                fastpath=sim.fastpath, telemetry=sim.telemetry,
                timeline=(TimelineRecorder(window=sim.timeline_window,
                                           sample_every=sample_every)
                          if sim.timeline_window is not None else None)))
        entry = instances[0].entry
        with span("bench", "simulate", workload=name, variant=variant,
                  machine=machine.name):
            if len(interps) == 1:
                results = [interps[0].run(entry, runs[0].args)]
            else:
                results = run_multicore(interps, entry,
                                        [run.args for run in runs])
        if validate:
            for run in runs:
                with span("bench", "validate", workload=name):
                    run.validate()
        l1 = [r.memory_system.l1.stats for r in results]
        out = VariantResult(
            workload=name,
            variant=variant,
            machine=machine.name,
            cycles=max(r.cycles for r in results),
            instructions=sum(r.stats.instructions for r in results),
            loads=sum(r.stats.loads for r in results),
            prefetches=sum(r.stats.prefetches for r in results),
            iterations=sum(run.iterations for run in runs),
            l1_hit_rate=CacheStats(hits=sum(s.hits for s in l1),
                                   misses=sum(s.misses for s in l1)
                                   ).hit_rate,
            dram_accesses=results[0].memory_system.dram.stats.accesses,
            tlb_walks=sum(r.memory_system.tlb.stats.misses
                          for r in results),
            telemetry=results[0].telemetry,
            timeline=results[0].timeline)
        TELEMETRY["simulated_runs"] += 1
        TELEMETRY["simulated_instructions"] += out.instructions
        trace_rows = active(TraceRows)
        if trace_rows is not None:
            knobs = _knobs(options, manual_knobs)
            for core, interp in enumerate(interps, 1):
                for row in interp.trace_report():
                    row.update(workload=name, variant=variant,
                               machine=machine.name, lookahead=lookahead,
                               knobs=knobs, core=f"{core}/{len(interps)}")
                    trace_rows.records.append(row)
        if run_cache is not None:
            states = [one.rng.bit_generator.state for one in instances]
            run_cache.put(key, {
                "row": dataclasses.asdict(out),
                "rng": states[0] if single else states})
        return out


def _knobs(options: PrefetchOptions | None, manual_knobs: dict) -> str:
    """A run's manual knobs and the pass options that differ from
    their defaults, as ``name=value`` text; ``-`` for none."""
    knobs = dict(manual_knobs)
    if options is not None:
        default = PrefetchOptions()
        for f in dataclasses.fields(options):
            if getattr(options, f.name) != getattr(default, f.name):
                knobs[f.name] = getattr(options, f.name)
    return ", ".join(f"{k}={v}" for k, v in knobs.items()) or "-"


def _replay(entry: dict | None,
            workload: Workload | list[Workload]) -> VariantResult | None:
    """The row of a cache entry, with the RNG of ``workload`` (of each
    instance, for a list) moved to the state the entry's run left it
    in; ``None`` (a miss) for no entry or one this code did not write —
    an older layout, a hand-edited file.  ``entry`` is shared with the
    cache's in-memory layer: read only."""
    if entry is None:
        return None
    try:
        out = VariantResult(**entry["row"])
        if isinstance(workload, Workload):
            workload.rng.bit_generator.state = entry["rng"]
        else:
            _restore(workload, entry["rng"])
    except (KeyError, TypeError, ValueError):
        return None
    return out


def _restore(instances: list[Workload], states: list) -> None:
    """Move every instance's RNG to its state in ``states``, or (on
    a bad state) leave them all where they were and raise."""
    if len(states) != len(instances):
        raise ValueError("one RNG state per instance")
    before = [one.rng.bit_generator.state for one in instances]
    try:
        for one, state in zip(instances, states):
            one.rng.bit_generator.state = state
    except (KeyError, TypeError, ValueError):
        for one, state in zip(instances, before):
            one.rng.bit_generator.state = state
        raise


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
    defaults the submitting process resolved."""
    specs, sim, cache = payload
    with run_defaults(sim, cache):
        return [spec.run() for spec in specs]


def _run_forked(payload) -> tuple[list, dict]:
    """:func:`_run_group` in a forked worker, which holds copies of the
    caller's sinks and workload instance: each result comes back with
    what its run appended to each sink and added to :data:`TELEMETRY`,
    and the group with its instance's RNG state after the last run."""
    specs, sim, cache = payload
    sinks = installed()
    out = []
    with run_defaults(sim, cache):
        for spec in specs:
            marks = {kind: len(sink.records) for kind, sink in sinks.items()}
            counts = dict(TELEMETRY)
            result = spec.run()
            out.append((result,
                        {kind: sink.records[marks[kind]:]
                         for kind, sink in sinks.items()},
                        {k: TELEMETRY[k] - n for k, n in counts.items()}))
    return out, specs[0].workload.rng.bit_generator.state


def run_specs(specs: list[RunSpec], jobs: int | None = None,
              cache: RunCache | bool | None = None) -> list[VariantResult]:
    """Run many specs, fanning out over processes where safe.

    Specs sharing a workload *instance* form a group executed serially
    in submission order (``prepare`` draws from the instance's shared
    RNG, so order determines each run's inputs); distinct instances are
    independent and run in parallel.  Results come back in submission
    order and are bit-identical to a serial :func:`run_variant` loop;
    so do the records the runs append to the caller's sinks and the
    :data:`TELEMETRY` counts they add, merged spec by spec, and the
    state each instance's RNG is left in.
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
    ran: list = [None] * len(specs)
    with ctx.Pool(min(jobs, len(payloads))) as pool:
        for idxs, (group, rng) in zip(groups.values(),
                                      pool.map(_run_forked, payloads)):
            # As a cache hit does (see _replay): exact under the
            # prepare contract.
            specs[idxs[0]].workload.rng.bit_generator.state = rng
            for i, one in zip(idxs, group):
                ran[i] = one
    sinks = installed()
    for _, tails, counts in ran:
        for kind, tail in tails.items():
            sinks[kind].records.extend(tail)
        for key, n in counts.items():
            TELEMETRY[key] += n
    # Workers' in-memory cache entries stay behind; disk entries are
    # shared.
    return [result for result, _, _ in ran]


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
