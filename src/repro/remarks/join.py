"""Join compile-time remarks with runtime prefetch outcomes.

The ``repro explain`` pipeline, per workload:

1. build the prefetched variant **with remarks collected** — the passes
   behave identically, so the module is byte-identical to an uncollected
   :meth:`~repro.workloads.base.Workload.build_variant` and the run
   cache and PC assignment line up;
2. predict each prefetch's runtime PC from its stable ``remark_id``
   (:func:`repro.machine.interpreter.static_prefetch_pcs`);
3. run ``plain`` and the variant with telemetry on — the runs of the
   effectiveness report (:func:`repro.telemetry.report.paired_runs`),
   on identical inputs;
4. join every ``PrefetchInserted`` / ``PrefetchHoisted`` /
   ``BaselinePrefetchInserted`` remark to the run's per-PC outcome bins.

Imported on demand (not from :mod:`repro.remarks` itself) because it
depends on :mod:`repro.bench`, which imports back into telemetry.
"""

from __future__ import annotations

from ..bench.reporting import format_table
from ..machine.configs import ALL_SYSTEMS, MachineConfig
from ..machine.interpreter import static_prefetch_pcs
from ..obs.sinks import collecting
from ..telemetry.outcomes import OUTCOMES
from ..telemetry.report import paired_runs
from ..workloads.base import Workload
from .emitter import RemarkEmitter
from .serialize import dumps_stream, remark_to_dict

#: Remark names that announce an inserted prefetch (carry a
#: ``prefetch_id``).
INSERTION_REMARKS = ("PrefetchInserted", "PrefetchHoisted",
                     "BaselinePrefetchInserted")

#: Columns of the rendered per-prefetch join table.
COLUMNS = ["Prefetch", "PC", "Covered", "Offset", "Timely", "Late",
           "Early", "Redundant", "Dropped", "Unused"]


def collect_remarks(workload: Workload, variant: str = "auto",
                    lookahead: int = 64, options=None) -> tuple:
    """Build ``variant`` with remarks on; returns (module, emitter)."""
    emitter = RemarkEmitter()
    with collecting(emitter):
        module = workload.build_variant(variant, lookahead=lookahead,
                                        options=options)
    return module, emitter


def explain_workload(workload: Workload, machine: MachineConfig,
                     plain_result, variant_result,
                     variant: str = "auto", lookahead: int = 64,
                     options=None) -> dict:
    """The compile-time ⋈ runtime join for one already-run workload.

    ``plain_result`` / ``variant_result`` are the telemetry-enabled
    :class:`~repro.bench.runner.VariantResult` rows of the same
    (workload, machine, variant, lookahead) combination.
    """
    module, emitter = collect_remarks(workload, variant,
                                      lookahead=lookahead,
                                      options=options)
    pcs = static_prefetch_pcs(module, workload.entry)
    telemetry = variant_result.telemetry or {}
    per_pc = telemetry.get("prefetch", {}).get("per_pc", {})
    prefetches = []
    for remark in emitter.records:
        if remark.name not in INSERTION_REMARKS:
            continue
        pc = pcs.get(remark.prefetch_id)
        bins = (per_pc.get(str(pc)) if pc is not None else None)
        prefetches.append({
            "prefetch_id": remark.prefetch_id,
            "function": remark.function,
            "pc": pc,
            "kind": remark.name,
            "remark": remark_to_dict(remark),
            "outcomes": dict(bins) if bins is not None
            else {o: 0 for o in OUTCOMES},
            "observed": bins is not None,
        })
    return {
        "workload": workload.name,
        "machine": machine.name,
        "variant": variant,
        "lookahead": lookahead,
        "entry": workload.entry,
        "speedup": (plain_result.cycles / variant_result.cycles
                    if variant_result.cycles else 0.0),
        "issued": telemetry.get("prefetch", {}).get("issued", 0),
        "num_remarks": len(emitter),
        "remarks_stream": dumps_stream(emitter.records),
        "prefetches": prefetches,
    }


def explain_rows(workloads: list[Workload],
                 machines: tuple[MachineConfig, ...] = ALL_SYSTEMS,
                 variant: str = "auto", lookahead: int = 64,
                 options=None, jobs: int | None = None,
                 cache=None) -> list[dict]:
    """One join row per (workload, machine), over the runs of
    :func:`repro.telemetry.report.paired_runs` — the same runs, on the
    same inputs, as ``repro stats``."""
    return [explain_workload(workload, machine, plain, pref,
                             variant=variant, lookahead=lookahead,
                             options=options)
            for (workload, machine), plain, pref in paired_runs(
                workloads, machines, variant, lookahead, options,
                jobs=jobs, cache=cache)]


def render_explain(rows: list[dict]) -> str:
    """The join rows as aligned text tables, one per workload."""
    out = []
    for row in rows:
        title = (f"{row['workload']} on {row['machine']} "
                 f"({row['variant']}, c={row['lookahead']}): "
                 f"speedup {row['speedup']:.2f}x, "
                 f"{len(row['prefetches'])} prefetches, "
                 f"{row['num_remarks']} remarks")
        body = []
        for pf in row["prefetches"]:
            remark = pf["remark"]
            args = remark.get("args", {})
            bins = pf["outcomes"]
            body.append([
                pf["prefetch_id"],
                pf["pc"] if pf["pc"] is not None else "?",
                args.get("covered_load", args.get("load", "")),
                args.get("offset", ""),
                bins.get("timely", 0), bins.get("late", 0),
                bins.get("early", 0), bins.get("redundant", 0),
                bins.get("dropped", 0), bins.get("unused", 0),
            ])
        out.append(format_table(COLUMNS, body, title))
    return "\n\n".join(out)


def report_dict(rows: list[dict]) -> dict:
    """The rows wrapped in a schema-tagged, JSON-serialisable report."""
    return {"schema": "repro-explain-v1", "rows": rows}
