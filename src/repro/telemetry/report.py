"""Prefetch-effectiveness and timeline reports from telemetry snapshots.

Runs plain + prefetched variants with telemetry enabled and tabulates,
per (workload, machine): the speedup, the outcome of every software
prefetch (timely / late / early / redundant / dropped / unused), the
derived accuracy and timeliness ratios, and the change in memory-stall
cycles — the observability companion to the paper's Fig. 4 speedups.

:func:`timeline_rows` / :func:`render_timeline` are the flight
recorder's phase view: the same runs with windowed sampling on, shown
as one table per run with per-window IPC, MPKI, and timely/late splits.

Imported on demand by the CLI and ``tools/telemetry_report.py`` (not
from :mod:`repro.telemetry` itself) because it depends on
:mod:`repro.bench`, which depends back on the telemetry gate.
"""

from __future__ import annotations

import dataclasses

from ..bench.reporting import format_table
from ..bench.runner import RunSpec, current_sim, run_specs, run_variant
from ..machine.configs import ALL_SYSTEMS, MachineConfig
from ..workloads.base import Workload
from .timeline import DEFAULT_WINDOW_CYCLES

#: Columns of the rendered effectiveness table, in order.
COLUMNS = ["Benchmark", "Machine", "Speedup", "Issued", "Timely",
           "Late", "Early", "Redundant", "Dropped", "Unused",
           "Accuracy", "Timeliness", "Stall Δ%"]


def effectiveness_rows(workloads: list[Workload],
                       machines: tuple[MachineConfig, ...] = ALL_SYSTEMS,
                       variant: str = "auto",
                       lookahead: int = 64,
                       jobs: int | None = None,
                       cache=None) -> list[dict]:
    """Run ``plain`` and ``variant`` with telemetry on and summarise.

    One row per (workload, machine).  ``stall_delta_pct`` is the change
    in the core's memory-stall cycles (``cycles - instructions ×
    issue_cost``) from plain to the prefetched variant — negative means
    the prefetches removed stall time.
    """
    sim = dataclasses.replace(current_sim(), telemetry=True)
    specs = []
    for workload in workloads:
        for machine in machines:
            specs.append(RunSpec(workload, "plain", machine,
                                 lookahead=lookahead, sim=sim))
            specs.append(RunSpec(workload, variant, machine,
                                 lookahead=lookahead, sim=sim))
    results = iter(run_specs(specs, jobs=jobs, cache=cache))
    rows = []
    for workload in workloads:
        for machine in machines:
            plain, pref = next(results), next(results)
            tel = pref.telemetry or {}
            prefetch = tel.get("prefetch", {})
            outcomes = prefetch.get("outcomes", {})
            plain_core = ((plain.telemetry or {}).get("cycles", {})
                          .get("core") or {})
            pref_core = (tel.get("cycles", {}).get("core") or {})
            plain_stall = plain_core.get("stall_cycles", 0.0)
            pref_stall = pref_core.get("stall_cycles", 0.0)
            rows.append({
                "workload": workload.name,
                "machine": machine.name,
                "variant": variant,
                "speedup": (plain.cycles / pref.cycles
                            if pref.cycles else 0.0),
                "issued": prefetch.get("issued", 0),
                "outcomes": dict(outcomes),
                "accuracy": prefetch.get("accuracy", 0.0),
                "timeliness": prefetch.get("timeliness", 0.0),
                "late_wait_cycles": prefetch.get("late_wait_cycles",
                                                 0.0),
                "cycles_by_source": dict(tel.get("cycles", {})
                                         .get("by_source", {})),
                "stall_cycles_plain": plain_stall,
                "stall_cycles_prefetched": pref_stall,
                "stall_delta_pct": (100.0 * (pref_stall / plain_stall
                                             - 1.0)
                                    if plain_stall else 0.0),
            })
    return rows


def render_effectiveness(rows: list[dict],
                         title: str = "Prefetch effectiveness "
                                      "(telemetry)") -> str:
    """The effectiveness rows as an aligned text table."""
    body = []
    for row in rows:
        outcomes = row["outcomes"]
        body.append([
            row["workload"], row["machine"], row["speedup"],
            row["issued"],
            outcomes.get("timely", 0), outcomes.get("late", 0),
            outcomes.get("early", 0), outcomes.get("redundant", 0),
            outcomes.get("dropped", 0), outcomes.get("unused", 0),
            row["accuracy"], row["timeliness"],
            row["stall_delta_pct"],
        ])
    return format_table(COLUMNS, body, title)


def report_dict(rows: list[dict]) -> dict:
    """The rows wrapped in a schema-tagged, JSON-serialisable report."""
    return {"schema": "repro-telemetry-report-v1", "rows": rows}


def timeline_rows(workloads: list[Workload],
                  machine: MachineConfig,
                  variant: str = "auto",
                  lookahead: int = 64,
                  window: int = DEFAULT_WINDOW_CYCLES,
                  cache=None) -> list[dict]:
    """Run each workload with telemetry + timeline sampling enabled.

    Runs are **serial** (no worker pool): the flight recorder's span
    records live in-process, and forked workers would drop them.  The
    resulting ``repro-timeline-v1`` snapshot rides the row (from the
    live run or from the disk cache — the snapshot is cached with the
    result, keyed by the window among the other engine options).
    """
    sim = dataclasses.replace(current_sim(), telemetry=True,
                              timeline_window=window)
    rows = []
    for workload in workloads:
        result = run_variant(workload, variant, machine,
                             lookahead=lookahead, cache=cache, sim=sim)
        rows.append({
            "workload": workload.name,
            "machine": machine.name,
            "variant": variant,
            "cycles": result.cycles,
            "instructions": result.instructions,
            "timeline": result.timeline,
        })
    return rows


def render_timeline(rows: list[dict]) -> str:
    """The timeline rows as per-run phase tables.

    One table per (workload, machine) run; one line per window with the
    window's IPC, per-level MPKI, TLB misses, MSHR high-water, and the
    timely/late prefetch split for that window.
    """
    out = []
    for row in rows:
        timeline = row.get("timeline")
        title = (f"{row['workload']} on {row['machine']} "
                 f"({row['variant']}) — "
                 f"window {timeline['window_cycles']} cycles"
                 if timeline else
                 f"{row['workload']} on {row['machine']} "
                 f"({row['variant']})")
        if not timeline or not timeline.get("windows"):
            out.append(title + "\n(no timeline windows recorded)\n")
            continue
        levels = list(timeline["windows"][0]["levels"])
        headers = (["Win", "End cycle", "Instr", "IPC"]
                   + [f"{lv} MPKI" for lv in levels]
                   + ["TLB", "MSHR", "Timely", "Late", "Timely%"])
        body = []
        for w in timeline["windows"]:
            outcomes = w.get("outcomes") or {}
            timely = outcomes.get("timely", 0)
            late = outcomes.get("late", 0)
            split = timely + late
            body.append(
                [w["index"], int(w["end_cycle"]), w["instructions"],
                 w["ipc"]]
                + [w["levels"][lv]["mpki"] for lv in levels]
                + [w["tlb_misses"], w["mshr_high_water"], timely, late,
                   100.0 * timely / split if split else 0.0])
        out.append(format_table(headers, body, title))
    return "\n".join(out)


def timeline_report_dict(rows: list[dict]) -> dict:
    """Timeline rows wrapped in a schema-tagged report."""
    return {"schema": "repro-timeline-report-v1", "rows": rows}
