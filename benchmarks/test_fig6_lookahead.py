"""Fig. 6: speedup vs look-ahead distance c for IS, CG, RA and HJ-2 on
all four machines.

The paper's findings: the optimum is consistent across machines, c = 64
is close to optimal everywhere, and being generous (too early) costs far
less than being late.
"""

from conftest import SMALL, archive, run_once


def test_fig6_lookahead(benchmark, results_dir):
    results = run_once(benchmark, "fig6")
    archive(results_dir, "fig6", results)

    if SMALL:
        return
    for (bench, machine), series in results.items():
        best_c = max(series, key=series.get)
        best = series[best_c]
        at_64 = series[64]
        if bench == "RA":
            # Known structural difference: our RA variant clamps the
            # look-ahead within each 128-element block (the automated
            # pass's fault guard), so very large c degenerates to
            # prefetching the block's last line.  Check the
            # early-peak shape (in-order cores can peak at the very
            # smallest c: their long iterations make 4 iterations of
            # lead sufficient) and that c = 64 still wins.
            assert best_c <= 32, (bench, machine, series)
            assert at_64 > 1.25, (bench, machine, series)
            assert series[256] < best, (bench, machine, series)
            continue
        # c = 64 is close to optimal for every benchmark x machine
        # (paper: "Setting c = 64 is close to optimal for every
        # benchmark and microarchitecture combination").
        assert at_64 >= 0.72 * best, (bench, machine, series)
        # Too late (c = 4) hurts more than the largest distance tested:
        # "it is more detrimental to be too late issuing prefetches
        # than too early".
        assert series[4] <= series[256] * 1.3, (bench, machine, series)
