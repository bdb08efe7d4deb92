"""Ablations of the design choices DESIGN.md calls out.

* eq. (1) staggered offsets vs a uniform offset for every prefetch in a
  chain;
* runtime cost of the min-clamp fault guard (clamped auto code vs the
  unclamped manual code that relies on allocation slack).
"""

from conftest import SMALL, archive, run_once


def test_ablation_scheduling(benchmark, results_dir):
    results = run_once(benchmark, "ablation_scheduling")
    archive(results_dir, "ablation_scheduling", results)
    if SMALL:
        return
    # Staggering is the point of eq. (1): with uniform offsets every
    # intermediate look-ahead load misses, shrinking the benefit.
    assert results["staggered (eq. 1)"] >= \
        results["uniform offsets"] * 0.98, results


def test_ablation_guard_cost(benchmark, results_dir):
    results = run_once(benchmark, "ablation_guard_cost")
    archive(results_dir, "ablation_guard_cost", results)
    # The clamp costs a couple of instructions per prefetch; the guarded
    # code must stay within a few percent of the unguarded manual code.
    clamped = results["with clamp (auto)"]
    unclamped = results["without clamp (manual)"]
    assert clamped > 1.0
    assert clamped >= unclamped * 0.85, results
