"""Fig. 9: IS throughput on 1/2/4 Haswell cores sharing one DRAM
channel.

The paper: four concurrent copies achieve *less* total throughput than
one core running them back-to-back (normalised throughput below 1), yet
software prefetching still helps at every core count.
"""

from conftest import SMALL, archive, run_once

CORES = (1, 2, 4)


def test_fig9_bandwidth(benchmark, results_dir):
    results = run_once(benchmark, "fig9")
    archive(results_dir, "fig9", results)

    no_pf = {n: results[(n, "No Prefetching")] for n in CORES}
    pf = {n: results[(n, "Prefetching")] for n in CORES}
    # Single-core without prefetching is the normalisation baseline.
    assert abs(no_pf[1] - 1.0) < 0.01
    # Prefetching helps at every core count.
    for n in CORES:
        assert pf[n] > no_pf[n], results
    if SMALL:
        return
    # The shared memory system is the bottleneck: 4 cores without
    # prefetching fall below 1.0 (the paper's headline observation).
    assert no_pf[4] < 1.05, results
    # Scaling is far from linear in either mode.
    assert no_pf[4] < 2.0 and pf[4] < 4.0
