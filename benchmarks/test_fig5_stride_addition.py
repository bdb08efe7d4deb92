"""Fig. 5: staggered stride prefetches added to the indirect prefetch,
for the automated scheme on Haswell."""

from repro.bench import geometric_mean

from conftest import SMALL, archive, run_once


def test_fig5_stride_addition(benchmark, results_dir):
    rows = run_once(benchmark, "fig5")
    archive(results_dir, "fig5", rows)

    if SMALL:
        return
    both = geometric_mean([r["indirect_plus_stride"] for r in rows])
    indirect = geometric_mean([r["indirect_only"] for r in rows])
    # Despite the hardware stride prefetcher, adding the staggered
    # stride prefetch helps overall (paper: "performance improvements
    # are observed across the board").
    assert both >= indirect * 0.99
    improved = sum(1 for r in rows
                   if r["indirect_plus_stride"] >= r["indirect_only"])
    assert improved >= len(rows) - 2
