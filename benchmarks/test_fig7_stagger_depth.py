"""Fig. 7: prefetching progressively more of HJ-8's dependent loads.

The paper: staggering deeper into the chain helps, but each level costs
quadratically more re-walked loads; on the authors' hardware the fourth
prefetch no longer paid for itself ("it is optimal to prefetch only the
first three").  Our simulator reproduces the rising shape of the first
three levels; the depth-3/4 crossover does not reproduce (the simulated
loop is leaner than the compiled original, so the fourth level's extra
instructions stay cheaper than the serial miss they remove — see
EXPERIMENTS.md).
"""

from conftest import SMALL, archive, run_once


def test_fig7_stagger_depth(benchmark, results_dir):
    results = run_once(benchmark, "fig7")
    archive(results_dir, "fig7", results)

    if SMALL:
        return
    for machine, series in results.items():
        # Staggering deeper into the chain keeps helping through the
        # third level on every machine, as in the paper.
        assert series[2] > series[1], (machine, series)
        assert series[3] > series[2], (machine, series)
        # Known deviation: the paper's depth-3/4 crossover does not
        # reproduce (depth 4 keeps winning in the simulator); we only
        # require depth 4 not to collapse.
        assert series[4] > series[1], (machine, series)
