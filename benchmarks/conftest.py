"""Shared helpers for the figure-regeneration benchmarks.

Each benchmark runs its experiment exactly once (simulations are
deterministic), archives the resulting table under
``benchmarks/results/``, and asserts the qualitative shape the paper
reports.  Set ``REPRO_BENCH_SMALL=1`` to run scaled-down experiments
(used by CI smoke runs); the default sizes reproduce the shapes
described in EXPERIMENTS.md.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.bench.cache import RunCache
from repro.bench.runner import run_defaults
from repro.envcfg import SimOptions, cache_from_env

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Scaled-down mode for quick runs.
SMALL = os.environ.get("REPRO_BENCH_SMALL", "0") == "1"


@pytest.fixture(scope="session", autouse=True)
def sim_defaults():
    """Engine options from the environment, and the run-result disk
    cache on by default: re-running a figure with unchanged inputs (and
    unchanged simulator source — the key hashes it) replays archived
    results instead of re-simulating.  Override with REPRO_SIM_CACHE=0
    or a different REPRO_SIM_CACHE_DIR (default: ``.sim-cache`` at the
    repository root)."""
    root = cache_from_env(default=True, fallback=str(
        pathlib.Path(__file__).parent.parent / ".sim-cache"))
    with run_defaults(SimOptions.from_env(),
                      RunCache(root) if root else None):
        yield


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    """Directory where figure tables are archived."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def archive(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Write one figure's table (and echo it for -s runs)."""
    path = results_dir / name
    path.write_text(text)
    print(f"\n{text}")


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1)
