"""The catalogue of the evaluation's tables: one :class:`Figure` per
table archived under ``benchmarks/results/``.

An entry names the table's ``repro bench`` target and its archive file,
runs its experiment from :mod:`repro.bench.experiments`, and renders
the result.  ``repro bench``, ``repro systems``, the pytest-benchmark
files under ``benchmarks/`` and ``tools/fill_experiments.py`` all read
:data:`FIGURES`, so a table has one title and one set of columns
wherever it is printed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..machine.configs import A53, A57, HASWELL, XEON_PHI, MachineConfig
from . import experiments as ex
from .reporting import format_series, format_table, telemetry_summary


@dataclass(frozen=True)
class Figure:
    """One archived table.

    :ivar name: its ``repro bench`` target.
    :ivar archive: its file name under ``benchmarks/results/``.
    :ivar run: ``run(small, jobs)`` runs the experiment and returns
        its data: ``small`` picks the quick sizes (ignored by Table 1)
        and ``jobs`` the worker processes of experiments that fan out
        over :func:`~repro.bench.runner.run_specs`.
    :ivar render: ``render(data)`` is the table's text.
    """

    name: str
    archive: str
    run: Callable[[bool, int | None], Any]
    render: Callable[[Any], str]

    def table(self, small: bool = False, jobs: int | None = None) -> str:
        """Run the experiment and render its table."""
        return self.render(self.run(small, jobs))


def _records(title: str, headers: list[str] | None = None):
    """Renderer of a list of dicts, one row each; the columns are
    ``headers``, else the first dict's keys."""
    def render(rows: list[dict]) -> str:
        return format_table(headers or list(rows[0]),
                            [list(row.values()) for row in rows], title)
    return render


def _pairs(title: str, headers: list[str]):
    """Renderer of ``{label: value}``, one row per label."""
    def render(data: dict) -> str:
        return format_table(headers, list(data.items()), title)
    return render


def _rows(title: str, first: str):
    """Renderer of ``{label: {column: value}}``, one row per label."""
    def render(data: dict) -> str:
        columns = list(next(iter(data.values())))
        return format_table(
            [first, *columns],
            [[label, *row.values()] for label, row in data.items()], title)
    return render


def _series(title: str, x_label: str):
    """Renderer of ``{name: {x: value}}``: one column per name, one row
    per x."""
    def render(data: dict) -> str:
        return format_series(title, x_label,
                             list(next(iter(data.values()))), data)
    return render


#: Fig. 4's ``repro bench`` targets and the machine each one pins.
FIG4_MACHINES = {"fig4a": HASWELL, "fig4b": A57, "fig4c": A53,
                 "fig4d": XEON_PHI}


def _fig4(name: str, machine: MachineConfig) -> Figure:
    """Fig. 4 on one machine; the Xeon Phi adds the ICC column.  With
    telemetry on, each auto run carries a snapshot, and its
    prefetch-outcome summary joins the speedups.  The archive is named
    after the target and the machine (``fig4d_xeon_phi.txt``)."""
    letter = name[-1]
    archive = f"{name}_{machine.name.lower().replace(' ', '_')}.txt"
    include_icc = machine is XEON_PHI
    columns = {"auto": "Autogenerated", "manual": "Manual"}
    if include_icc:
        columns["icc"] = "ICC-generated"

    def run(small, jobs):
        return ex.fig4_system(machine, include_icc=include_icc,
                              small=small, jobs=jobs)

    def render(rows: list[ex.Fig4Row]) -> str:
        geomeans = ex.fig4_geomeans(rows)
        headers = ["Benchmark", *columns.values()]
        body = [[r.benchmark, *(getattr(r, key) for key in columns)]
                for r in rows]
        tail = ["Geomean", *(geomeans[key] for key in columns)]
        summaries = [telemetry_summary(r.auto_result.telemetry
                                       if r.auto_result else None)
                     for r in rows]
        extra = next((list(s) for s in summaries if s), [])
        headers += [f"{h} (auto)" for h in extra]
        for row, summary in zip(body, summaries):
            row += [summary.get(h, "") for h in extra]
        tail += ["" for _ in extra]
        return format_table(headers, body + [tail],
                            f"Fig. 4({letter}): speedups on {machine.name}")

    return Figure(name, archive, run, render)


def _fig6(results: dict) -> str:
    """One look-ahead table per benchmark, machines as columns."""
    by_bench: dict[str, dict] = {}
    for (bench, machine), series in results.items():
        by_bench.setdefault(bench, {})[machine] = series
    return "\n".join(
        _series(f"Fig. 6: {bench} speedup vs look-ahead distance c",
                "c")(by_bench[bench])
        for bench in sorted(by_bench))


def _fig9(results: dict) -> str:
    """The two schemes as columns, core counts as rows."""
    series: dict[str, dict] = {}
    for (cores, label), value in results.items():
        series.setdefault(label, {})[cores] = value
    return _series("Fig. 9: IS normalised throughput vs core count "
                   "(Haswell)", "cores")(series)


#: Every archived table by ``repro bench`` target, in paper order.
FIGURES: dict[str, Figure] = {figure.name: figure for figure in (
    Figure("table1", "table1_systems.txt",
           lambda small, jobs: ex.table1_rows(),
           _records("Table 1: simulated systems")),
    Figure("fig2", "fig2_prefetch_schemes.txt",
           lambda small, jobs: ex.fig2_prefetch_schemes(small=small),
           _pairs("Fig. 2: IS prefetching schemes on Haswell",
                  ["Scheme", "Speedup"])),
    *(_fig4(name, machine) for name, machine in FIG4_MACHINES.items()),
    Figure("fig5", "fig5_stride_addition.txt",
           lambda small, jobs: ex.fig5_stride_contribution(small=small,
                                                           jobs=jobs),
           _records("Fig. 5: adding the stride prefetch (Haswell, "
                    "automated scheme)",
                    ["Benchmark", "Indirect Only", "Indirect + Stride"])),
    Figure("fig6", "fig6_lookahead.txt",
           lambda small, jobs: ex.fig6_lookahead_sweep(small=small,
                                                       jobs=jobs),
           _fig6),
    Figure("fig7", "fig7_stagger_depth.txt",
           lambda small, jobs: ex.fig7_stagger_depth(small=small,
                                                     jobs=jobs),
           _series("Fig. 7: HJ-8 speedup vs number of dependent loads "
                   "prefetched", "depth")),
    Figure("fig8", "fig8_instruction_overhead.txt",
           lambda small, jobs: ex.fig8_instruction_overhead(small=small),
           _pairs("Fig. 8: dynamic instruction overhead on Haswell "
                  "(best scheme)", ["Benchmark", "% extra instructions"])),
    Figure("fig9", "fig9_bandwidth.txt",
           lambda small, jobs: ex.fig9_bandwidth(small=small), _fig9),
    Figure("fig10", "fig10_hugepages.txt",
           lambda small, jobs: ex.fig10_huge_pages(small=small),
           _rows("Fig. 10: prefetch speedup vs page size (Haswell)",
                 "Benchmark")),
    Figure("ablation_scheduling", "ablation_scheduling.txt",
           lambda small, jobs: ex.ablation_scheduling(small=small),
           _pairs("Ablation: eq. (1) staggering vs uniform offsets "
                  "(Haswell)", ["Schedule", "HJ-8 speedup"])),
    Figure("ablation_guard_cost", "ablation_guard_cost.txt",
           lambda small, jobs: ex.ablation_guard_cost(small=small),
           _pairs("Ablation: cost of the min-clamp fault guard (Haswell)",
                  ["Variant", "IS speedup"])),
)}
