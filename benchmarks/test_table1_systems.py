"""Table 1: the four simulated systems and their model parameters."""

from conftest import archive, run_once


def test_table1_systems(benchmark, results_dir):
    rows = run_once(benchmark, "table1")
    archive(results_dir, "table1", rows)

    names = [r["System"] for r in rows]
    assert names == ["Haswell", "A57", "A53", "Xeon Phi"]
    cores = {r["System"]: r["Core"] for r in rows}
    assert cores["Haswell"] == "out-of-order"
    assert cores["A57"] == "out-of-order"
    assert cores["A53"] == "in-order"
    assert cores["Xeon Phi"] == "in-order"
    # The A57's single-page-walk limitation (§6.1) is modelled.
    assert next(r for r in rows if r["System"] == "A57")["TLB walks"] == 1
