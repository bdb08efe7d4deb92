"""Fig. 2: manual prefetch schemes for IS on Haswell.

The paper's point: the intuitive single prefetch leaves performance on
the table; too-small and too-large offsets also underperform; the
optimal scheme staggers both prefetches at c = 64.
"""

from conftest import archive, run_once


def test_fig2_prefetch_schemes(benchmark, results_dir):
    # Full size in small mode too: the shape needs IS's full working
    # set.
    speedups = run_once(benchmark, "fig2", small=False)
    archive(results_dir, "fig2", speedups)

    # Shape: optimal wins; every scheme is ordered below it as in the
    # paper's bars.
    assert speedups["Optimal"] >= speedups["Intuitive"]
    assert speedups["Optimal"] > speedups["Offset too small"]
    assert speedups["Optimal"] > speedups["Offset too big"]
    # The optimal scheme shows a solid speedup (paper: 1.30x).
    assert speedups["Optimal"] > 1.1
    # A too-small offset barely prefetches anything in time.
    assert speedups["Offset too small"] < speedups["Optimal"] * 0.9
