"""Experiment runner: workload × variant × machine → cycles and stats.

Every figure's harness funnels through :func:`run_variant` /
:func:`speedup_table`, so results are produced identically everywhere:
fresh memory, fresh module, functional validation of the architectural
results, and cycle counts from the timed interpreter.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..envcfg import env_int
from ..ir import print_module
from ..machine.configs import MachineConfig
from ..machine.interpreter import Interpreter
from ..machine.memory import Memory
from ..passes.prefetch import PrefetchOptions
from ..telemetry import telemetry_enabled
from ..telemetry.spans import span
from ..telemetry.timeline import resolve_timeline
from ..workloads.base import Workload
from .cache import RunCache, resolve_run_cache, run_key

#: In-process telemetry: actual simulations vs. cache hits, and total
#: simulated instructions — read by ``tools/bench_perf.py``.
TELEMETRY = {"simulated_runs": 0, "cached_runs": 0,
             "simulated_instructions": 0}


def _make_metrics():
    from ..obs.metrics import SECONDS_BUCKETS, Registry
    registry = Registry()
    runs = registry.counter(
        "repro_bench_runs_total",
        "Bench variant runs by workload, variant, machine, and "
        "whether the disk cache answered.",
        labels=("workload", "variant", "machine", "cached"))
    stages = registry.histogram(
        "repro_bench_stage_seconds",
        "Wall time per bench pipeline stage "
        "(build, prepare, simulate, validate).",
        labels=("stage",), unit="seconds", buckets=SECONDS_BUCKETS)
    return registry, runs, stages


#: In-process labeled metrics over the same registry machinery the
#: serve path exposes (see docs/OBSERVABILITY.md).  ``repro bench
#: --obs-out FILE`` writes the Prometheus text exposition after a run.
METRICS, RUNS_COUNTER, STAGE_SECONDS = _make_metrics()

#: Where simulated runs append their compiled-trace rows while
#: :func:`collecting_traces` is active; ``None`` the rest of the time,
#: so long-lived processes keep nothing.
_TRACE_ROWS: list[dict] | None = None


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
    global _TRACE_ROWS
    saved, _TRACE_ROWS = _TRACE_ROWS, []
    try:
        yield _TRACE_ROWS
    finally:
        _TRACE_ROWS = saved


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
                telemetry: bool | None = None,
                timeline=None,
                **manual_knobs) -> VariantResult:
    """Build, execute, and validate one variant on one machine.

    :param cache: a :class:`RunCache`, ``True``/``False`` to force the
        disk cache on/off, or ``None`` to follow ``REPRO_SIM_CACHE``.
        On a hit, ``prepare`` still runs (it advances the workload's
        RNG, keeping later runs' inputs — and cache keys — identical to
        an uncached sequence) but simulation and validation are skipped.
    :param telemetry: force prefetch/cycle telemetry on or off for this
        run (``None`` = follow ``REPRO_SIM_TELEMETRY``).  Telemetry
        never changes the measured cycles; it adds the snapshot dict to
        the result (and to the run's cache key, so telemetry-on and
        telemetry-off entries never alias).
    :param timeline: a :class:`~repro.telemetry.TimelineRecorder`,
        ``True``/``False``, or ``None`` to follow
        ``REPRO_SIM_TIMELINE``.  Like telemetry, sampling never changes
        the measured cycles; the ``repro-timeline-v1`` snapshot rides
        the result (and the cache key) the same way.
    """
    import time as _time

    def _staged(stage, start):
        STAGE_SECONDS.labels(stage=stage).observe(
            _time.perf_counter() - start)

    def _finished(cached: bool):
        RUNS_COUNTER.labels(workload=workload.name, variant=variant,
                            machine=machine.name,
                            cached="true" if cached else "false").inc()

    with span("bench", "run_variant", workload=workload.name,
              variant=variant, machine=machine.name) as job:
        t0 = _time.perf_counter()
        with span("bench", "build", workload=workload.name,
                  variant=variant):
            module = workload.build_variant(
                variant, lookahead=lookahead, options=options,
                **manual_knobs)
        _staged("build", t0)
        run_cache = resolve_run_cache(cache)
        with_telemetry = telemetry_enabled(telemetry)
        recorder = resolve_timeline(timeline)
        hit = key = None
        if run_cache is not None:
            # Keyed before prepare(): the RNG state at this point, plus
            # the built IR, pin down the run's inputs exactly.
            key = run_key(print_module(module), machine, workload,
                          validate, telemetry=with_telemetry,
                          timeline=recorder is not None)
            hit = run_cache.get(key)
        memory = Memory(machine.line_size)
        t0 = _time.perf_counter()
        with span("bench", "prepare", workload=workload.name):
            prepared = workload.prepare(memory)
        _staged("prepare", t0)
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
                _finished(cached=True)
                return out
        job["cached"] = False
        interp = Interpreter(module, memory, machine=machine,
                             telemetry=with_telemetry,
                             timeline=recorder)
        t0 = _time.perf_counter()
        with span("bench", "simulate", workload=workload.name,
                  variant=variant, machine=machine.name):
            result = interp.run(workload.entry, prepared.args)
        _staged("simulate", t0)
        if validate:
            t0 = _time.perf_counter()
            with span("bench", "validate", workload=workload.name):
                prepared.validate()
            _staged("validate", t0)
        _finished(cached=False)
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
        if _TRACE_ROWS is not None:
            for row in interp.trace_report():
                row.update(workload=workload.name, variant=variant,
                           machine=machine.name)
                _TRACE_ROWS.append(row)
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
    telemetry: bool | None = None
    timeline: bool | None = None
    manual_knobs: dict = field(default_factory=dict)

    def run(self, cache=None) -> VariantResult:
        """Execute this spec."""
        return run_variant(self.workload, self.variant, self.machine,
                           self.lookahead, self.options, self.validate,
                           cache=cache, telemetry=self.telemetry,
                           timeline=self.timeline,
                           **self.manual_knobs)


#: Upper bound on ``REPRO_SIM_JOBS`` — more processes than this is
#: certainly a typo, not a machine.
MAX_JOBS = 4096


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count: explicit > ``REPRO_SIM_JOBS`` > available CPUs.

    ``REPRO_SIM_JOBS`` is validated like the other runtime knobs
    (:func:`repro.envcfg.env_int`): a non-integer or negative value
    warns and falls back to autodetection, an absurd one clamps to
    :data:`MAX_JOBS` — never a crash.
    """
    if jobs is None:
        jobs = env_int("REPRO_SIM_JOBS", 0, minimum=0,
                       maximum=MAX_JOBS) or None
    if jobs is None:
        try:
            jobs = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            jobs = os.cpu_count() or 1
    return max(1, jobs)


def _run_group(payload) -> list:
    """Pool worker: run one workload's specs serially, in order."""
    specs, cache = payload
    return [spec.run(cache=cache) for spec in specs]


def run_specs(specs: list[RunSpec], jobs: int | None = None,
              cache: RunCache | bool | None = None) -> list[VariantResult]:
    """Run many specs, fanning out over processes where safe.

    Specs sharing a workload *instance* form a group executed serially
    in submission order (``prepare`` draws from the instance's shared
    RNG, so order determines each run's inputs); distinct instances are
    independent and run in parallel.  Results come back in submission
    order and are bit-identical to a serial :func:`run_variant` loop.
    """
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    groups: dict[int, list[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault(id(spec.workload), []).append(i)
    run_cache = resolve_run_cache(cache)
    if jobs <= 1 or len(groups) <= 1 or len(specs) <= 1:
        return [spec.run(cache=run_cache) for spec in specs]
    payloads = [([specs[i] for i in idxs], run_cache)
                for idxs in groups.values()]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        return [spec.run(cache=run_cache) for spec in specs]
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
