"""Fig. 10: prefetch speedup with transparent huge pages on vs off
(IS, RA, HJ-2 on Haswell), each normalised to no-prefetching under the
same page policy.

The paper: huge pages slightly shrink the prefetch win for IS and RA
(the TLB-warming side effect of prefetching matters less), trends stay
consistent, and gains remain positive everywhere.
"""

from conftest import SMALL, archive, run_once


def test_fig10_hugepages(benchmark, results_dir):
    results = run_once(benchmark, "fig10")
    archive(results_dir, "fig10", results)

    for name, row in results.items():
        # Prefetching helps under both page policies.
        assert row["Small Pages"] > 1.0, results
        assert row["Huge Pages"] > 1.0, results
    if SMALL:
        return
    # For IS and RA huge pages reduce the relative win (part of the
    # 4KiB-page win was free TLB warming).
    assert results["IS"]["Huge Pages"] <= \
        results["IS"]["Small Pages"] * 1.05, results
    assert results["RA"]["Huge Pages"] <= \
        results["RA"]["Small Pages"] * 1.05, results
