"""Shared helpers for the figure-regeneration benchmarks.

Each benchmark runs one entry of :data:`repro.bench.figures.FIGURES`
exactly once (simulations are deterministic), archives the table the
entry renders under ``benchmarks/results/`` — the text ``repro bench``
prints — and asserts the qualitative shape the paper reports.  Set
``REPRO_BENCH_SMALL=1`` to run scaled-down experiments (used by CI
smoke runs); the default sizes reproduce the shapes described in
EXPERIMENTS.md.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.bench.cache import RunCache
from repro.bench.figures import FIGURES
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


def run_once(benchmark, name: str, small: bool = SMALL):
    """Run catalogue entry ``name``'s experiment exactly once under
    pytest-benchmark timing; returns its data."""
    return benchmark.pedantic(FIGURES[name].run, args=(small, None),
                              rounds=1, iterations=1)


def archive(results_dir: pathlib.Path, name: str, data) -> None:
    """Write catalogue entry ``name``'s table of ``data`` to its
    archive file (and echo it for -s runs)."""
    figure = FIGURES[name]
    text = figure.render(data)
    (results_dir / figure.archive).write_text(text)
    print(f"\n{text}")
