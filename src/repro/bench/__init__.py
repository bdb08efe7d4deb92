"""Experiment harness regenerating every table and figure of §6.

See :mod:`repro.bench.experiments` for one entry point per figure,
:mod:`repro.bench.figures` for the catalogue that renders each table
(imported on its own: importing this package does not load it), and
``benchmarks/`` for the pytest-benchmark drivers that archive results.
"""

from .experiments import (ablation_guard_cost, ablation_scheduling,
                          fig2_prefetch_schemes, fig4_geomeans,
                          fig4_system, fig5_stride_contribution,
                          fig6_lookahead_sweep, fig7_stagger_depth,
                          fig8_instruction_overhead, fig9_bandwidth,
                          fig10_huge_pages, manual_knobs_for, table1_rows,
                          LOOKAHEAD_SWEEP)
from .reporting import format_series, format_table
from .runner import VariantResult, geometric_mean, run_variant

__all__ = [
    "ablation_guard_cost", "ablation_scheduling",
    "fig2_prefetch_schemes", "fig4_geomeans", "fig4_system",
    "fig5_stride_contribution", "fig6_lookahead_sweep",
    "fig7_stagger_depth", "fig8_instruction_overhead", "fig9_bandwidth",
    "fig10_huge_pages", "manual_knobs_for", "table1_rows",
    "LOOKAHEAD_SWEEP",
    "format_series", "format_table",
    "VariantResult", "geometric_mean", "run_variant",
]
