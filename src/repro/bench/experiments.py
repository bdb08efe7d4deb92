"""One function per table/figure of the paper's evaluation (§6).

Each function runs the required simulations and returns plain data
structures; the catalogue :mod:`repro.bench.figures` renders them as
the text tables ``repro bench`` prints and the benchmark harness
archives under ``benchmarks/results/``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine.configs import (ALL_SYSTEMS, HASWELL, MachineConfig)
from ..passes.prefetch import PrefetchOptions
from ..workloads import (Graph500, IntegerSort, RandomAccess, hj2, hj8,
                         paper_benchmarks)
from ..workloads.base import Workload
from .runner import (RunSpec, VariantResult, geometric_mean, run_specs,
                     run_variant)

#: Look-ahead sweep used by Fig. 6.
LOOKAHEAD_SWEEP = (4, 8, 16, 32, 64, 128, 256)


def manual_knobs_for(workload: Workload,
                     machine: MachineConfig) -> dict:
    """Per-machine knobs for the 'best manual prefetches we could
    generate' (§6.1): the paper's manual schemes differ by target —
    inner-loop G500 prefetches only pay off on in-order cores."""
    if isinstance(workload, Graph500):
        return {"inner_parent_prefetch": machine.in_order}
    return {}


# -- Table 1 ---------------------------------------------------------------


def table1_rows() -> list[dict]:
    """The simulated system parameters (Table 1 + model parameters)."""
    rows = []
    for config in ALL_SYSTEMS:
        rows.append({
            "System": config.name,
            "GHz": config.freq_ghz,
            "Core": "in-order" if config.in_order else "out-of-order",
            "Width": config.issue_width,
            "Window": config.rob_size or "-",
            "MSHRs": config.mshrs,
            "Caches": " / ".join(
                f"{c.size_bytes // 1024}KiB" for c in config.caches),
            "DRAM lat": config.dram_latency,
            "cyc/line": config.dram_cycles_per_line,
            "TLB walks": config.tlb_max_walks,
            "Page": f"{1 << (config.page_bits - 10)}KiB",
        })
    return rows


# -- Fig. 2: prefetch schemes for IS on Haswell ------------------------------


def fig2_prefetch_schemes(lookahead: int = 64,
                          small: bool = False) -> dict[str, float]:
    """Speedups of the four Fig. 2 schemes for IS on Haswell."""
    workload = IntegerSort(num_keys=6000) if small else IntegerSort()
    plain = run_variant(workload, "plain", HASWELL)
    schemes = {
        "Intuitive": dict(lookahead=lookahead, include_stride=False),
        "Offset too small": dict(lookahead=4),
        "Offset too big": dict(lookahead=512),
        "Optimal": dict(lookahead=lookahead),
    }
    result = {}
    for name, knobs in schemes.items():
        run = run_variant(workload, "manual", HASWELL, **knobs)
        result[name] = plain.cycles / run.cycles
    return result


# -- Fig. 4: autogenerated vs manual across systems ----------------------------


@dataclass
class Fig4Row:
    """One benchmark's speedups on one machine."""

    benchmark: str
    machine: str
    auto: float
    manual: float
    icc: float | None = None
    plain: VariantResult | None = None
    auto_result: VariantResult | None = None


def fig4_system(machine: MachineConfig, include_icc: bool = False,
                benchmarks: list[Workload] | None = None,
                small: bool = False,
                jobs: int | None = None) -> list[Fig4Row]:
    """Fig. 4(a-d): speedups of auto/manual (and, for the Xeon Phi,
    ICC-generated) prefetching over no prefetching, per benchmark."""
    workloads = benchmarks or paper_benchmarks(small=small)
    specs = []
    for workload in workloads:
        specs.append(RunSpec(workload, "plain", machine))
        specs.append(RunSpec(workload, "auto", machine))
        specs.append(RunSpec(workload, "manual", machine,
                             manual_knobs=manual_knobs_for(workload,
                                                           machine)))
        if include_icc:
            specs.append(RunSpec(workload, "icc", machine))
    results = iter(run_specs(specs, jobs=jobs))
    rows = []
    for workload in workloads:
        plain, auto, manual = (next(results), next(results),
                               next(results))
        row = Fig4Row(
            benchmark=workload.name, machine=machine.name,
            auto=plain.cycles / auto.cycles,
            manual=plain.cycles / manual.cycles,
            plain=plain, auto_result=auto)
        if include_icc:
            row.icc = plain.cycles / next(results).cycles
        rows.append(row)
    return rows


def fig4_geomeans(rows: list[Fig4Row]) -> dict[str, float]:
    """The per-machine geometric means the paper headlines."""
    result = {"auto": geometric_mean([r.auto for r in rows]),
              "manual": geometric_mean([r.manual for r in rows])}
    if all(r.icc is not None for r in rows):
        result["icc"] = geometric_mean([r.icc for r in rows])
    return result


# -- Fig. 5: indirect-only vs indirect+stride ------------------------------


def fig5_stride_contribution(machine: MachineConfig = HASWELL,
                             small: bool = False,
                             jobs: int | None = None) -> list[dict]:
    """Adding the staggered stride prefetch to the indirect prefetch
    (Fig. 5), for the automated scheme on Haswell."""
    workloads = paper_benchmarks(small=small)
    specs = []
    for workload in workloads:
        specs.append(RunSpec(workload, "plain", machine))
        specs.append(RunSpec(
            workload, "auto", machine,
            options=PrefetchOptions(emit_stride_prefetch=False)))
        specs.append(RunSpec(workload, "auto", machine))
    results = iter(run_specs(specs, jobs=jobs))
    rows = []
    for workload in workloads:
        plain, indirect, both = (next(results), next(results),
                                 next(results))
        rows.append({
            "benchmark": workload.name,
            "indirect_only": plain.cycles / indirect.cycles,
            "indirect_plus_stride": plain.cycles / both.cycles,
        })
    return rows


# -- Fig. 6: look-ahead distance sweep -----------------------------------------


def fig6_lookahead_sweep(machines: tuple[MachineConfig, ...] = ALL_SYSTEMS,
                         sweep: tuple[int, ...] = LOOKAHEAD_SWEEP,
                         small: bool = False,
                         jobs: int | None = None
                         ) -> dict[tuple[str, str], dict[int, float]]:
    """Fig. 6: speedup against look-ahead constant ``c`` for IS, CG, RA
    and HJ-2 on every machine.

    The automated scheme is swept (its inserted code equals the paper's
    manual code for these benchmarks, with offsets scaling as eq. (1)).
    """
    from ..workloads import ConjugateGradient
    if small:
        benchmarks = [IntegerSort(num_keys=4000, num_buckets=1 << 16),
                      ConjugateGradient(nrows=300, row_nnz=10,
                                        x_size=1 << 13),
                      RandomAccess(nblocks=30, table_size=1 << 16),
                      hj2(num_probes=4000, num_buckets=1 << 14)]
    else:
        # Medium trip counts: the sweep needs 8 runs per benchmark and
        # machine, and curve shapes depend on working-set size (kept at
        # the defaults), not on trip count.
        benchmarks = [IntegerSort(num_keys=10_000),
                      ConjugateGradient(nrows=900),
                      RandomAccess(nblocks=70),
                      hj2(num_probes=8_000)]
    specs = []
    for workload in benchmarks:
        for machine in machines:
            specs.append(RunSpec(workload, "plain", machine))
            for c in sweep:
                specs.append(RunSpec(workload, "auto", machine,
                                     lookahead=c))
    outcomes = iter(run_specs(specs, jobs=jobs))
    results: dict[tuple[str, str], dict[int, float]] = {}
    for workload in benchmarks:
        for machine in machines:
            plain = next(outcomes)
            series = {}
            for c in sweep:
                series[c] = plain.cycles / next(outcomes).cycles
            results[(workload.name, machine.name)] = series
    return results


# -- Fig. 7: stagger depth for HJ-8 --------------------------------------------


def fig7_stagger_depth(machines: tuple[MachineConfig, ...] = ALL_SYSTEMS,
                       depths: tuple[int, ...] = (1, 2, 3, 4),
                       small: bool = False,
                       jobs: int | None = None
                       ) -> dict[str, dict[int, float]]:
    """Fig. 7: prefetching progressively more of HJ-8's four dependent
    loads, per machine."""
    specs = []
    for machine in machines:
        workload = hj8(num_probes=2000, num_buckets=1 << 12) if small \
            else hj8()
        specs.append(RunSpec(workload, "plain", machine))
        for depth in depths:
            specs.append(RunSpec(workload, "manual", machine,
                                 manual_knobs={"stagger_depth": depth}))
    outcomes = iter(run_specs(specs, jobs=jobs))
    results: dict[str, dict[int, float]] = {}
    for machine in machines:
        plain = next(outcomes)
        series = {}
        for depth in depths:
            series[depth] = plain.cycles / next(outcomes).cycles
        results[machine.name] = series
    return results


# -- Fig. 8: dynamic instruction overhead ----------------------------------------


def fig8_instruction_overhead(machine: MachineConfig = HASWELL,
                              small: bool = False) -> dict[str, float]:
    """Fig. 8: % extra dynamic instructions on Haswell with the best
    (fastest) prefetch scheme per benchmark."""
    overheads = {}
    for workload in paper_benchmarks(small=small):
        plain = run_variant(workload, "plain", machine)
        auto = run_variant(workload, "auto", machine)
        manual = run_variant(workload, "manual", machine,
                             **manual_knobs_for(workload, machine))
        best = auto if auto.cycles <= manual.cycles else manual
        overheads[workload.name] = 100.0 * (
            best.instructions / plain.instructions - 1.0)
    return overheads


# -- Fig. 9: multicore bandwidth -----------------------------------------------


def fig9_bandwidth(machine: MachineConfig = HASWELL,
                   cores: tuple[int, ...] = (1, 2, 4),
                   small: bool = False) -> dict[tuple[int, str], float]:
    """Fig. 9: normalised throughput of IS on 1/2/4 cores, with and
    without prefetching, sharing one DRAM channel.

    Normalisation: 1.0 = the per-unit-time work of a single core running
    without prefetching.  Core ``k`` sorts the keys of seed ``42 + k``.
    """
    size = {"num_keys": 8000} if small else {}

    def makespan(n_cores: int, variant: str) -> float:
        return run_variant([IntegerSort(**size, seed=42 + core)
                            for core in range(n_cores)],
                           variant, machine).cycles

    base = makespan(1, "plain")
    results = {}
    for n in cores:
        for variant, label in (("plain", "No Prefetching"),
                               ("auto", "Prefetching")):
            cycles = (base if (n, variant) == (1, "plain")
                    else makespan(n, variant))
            results[(n, label)] = n * base / cycles
    return results


# -- Fig. 10: transparent huge pages ------------------------------------------


def fig10_huge_pages(machine: MachineConfig = HASWELL,
                     small: bool = False) -> dict[str, dict[str, float]]:
    """Fig. 10: prefetch speedup with 4KiB vs 2MiB pages (IS, RA, HJ-2
    on Haswell), each normalised to no-prefetching under the *same*
    page policy."""
    if small:
        workloads = [IntegerSort(num_keys=6000),
                     RandomAccess(nblocks=40),
                     hj2(num_probes=6000)]
    else:
        workloads = [IntegerSort(), RandomAccess(), hj2()]
    results: dict[str, dict[str, float]] = {}
    for workload in workloads:
        row = {}
        for label, config in (("Small Pages", machine.with_small_pages()),
                              ("Huge Pages", machine.with_huge_pages())):
            plain = run_variant(workload, "plain", config)
            auto = run_variant(workload, "auto", config)
            row[label] = plain.cycles / auto.cycles
        results[workload.name] = row
    return results


# -- Ablations -------------------------------------------------------------------


def ablation_scheduling(machine: MachineConfig = HASWELL,
                        small: bool = False) -> dict[str, float]:
    """Eq. (1)'s staggered offsets vs a naive same-offset-for-all
    schedule, on HJ-8's deep chain (manual scheme, depth 3).

    With uniform offsets every re-walked intermediate load races the
    fill issued for it in the *same* iteration, so the staggering is
    what makes deep prefetching work.
    """
    workload = hj8(num_probes=2000, num_buckets=1 << 12) if small \
        else hj8()
    plain = run_variant(workload, "plain", machine)
    staggered = run_variant(workload, "manual", machine, stagger_depth=3)
    uniform = run_variant(workload, "manual", machine, stagger_depth=3,
                          uniform_offsets=True)
    return {
        "staggered (eq. 1)": plain.cycles / staggered.cycles,
        "uniform offsets": plain.cycles / uniform.cycles,
    }


def ablation_guard_cost(machine: MachineConfig = HASWELL,
                        small: bool = False) -> dict[str, float]:
    """Runtime cost of the min-clamp fault guard: auto prefetching with
    the clamp vs the (unsafe, slack-reliant) manual code without it."""
    workload = IntegerSort(num_keys=6000) if small else IntegerSort()
    plain = run_variant(workload, "plain", machine)
    auto = run_variant(workload, "auto", machine)       # clamped
    manual = run_variant(workload, "manual", machine)   # unclamped
    return {
        "with clamp (auto)": plain.cycles / auto.cycles,
        "without clamp (manual)": plain.cycles / manual.cycles,
    }
