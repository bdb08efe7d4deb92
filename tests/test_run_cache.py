"""Unit tests for the run-result disk cache (bench/cache.py).

Covers key stability and invalidation, cold/warm behaviour of
``run_variant``, corrupted-entry handling, scoped-default resolution,
the hit path's contract on all seven quick workloads (a hit restores
the RNG state its entry stored and runs no ``prepare``), and the
acceptance property: a second invocation of a figure benchmark with
unchanged inputs hits the disk cache and skips re-simulation.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.bench import runner
from repro.bench.cache import (RunCache, canonical_token, run_key,
                               simulator_code_hash)
from repro.bench.runner import (RunSpec, TELEMETRY, reset_telemetry,
                                run_defaults, run_specs, run_variant)
from repro.envcfg import SimOptions
from repro.ir import print_module
from repro.machine import A53, HASWELL
from repro.machine.memory import Memory
from repro.passes import PrefetchOptions
from repro.workloads import (IntegerSort, RandomAccess, paper_benchmarks,
                             workload_by_name)


def _ir(workload, variant="plain", **kwargs):
    return print_module(workload.build_variant(variant, **kwargs))


#: Default engine options, for keys where they do not matter.
SIM = SimOptions()


def small_is():
    return IntegerSort(num_keys=1500, num_buckets=1 << 12)


#: The seven quick workloads, by name; :func:`quick` makes a fresh one.
QUICK = [wl.name for wl in paper_benchmarks(small=True)]


def quick(name):
    return workload_by_name(name, small=True)


class TestRunKey:
    def test_stable_across_equal_instances(self):
        k1 = run_key(_ir(small_is()), HASWELL, small_is(), True, SIM)
        k2 = run_key(_ir(small_is()), HASWELL, small_is(), True, SIM)
        assert k1 == k2

    def test_ir_change_invalidates(self):
        wl = small_is()
        base = run_key(_ir(small_is()), HASWELL, wl, True, SIM)
        for kwargs in (dict(variant="auto"),
                       dict(variant="manual"),
                       dict(variant="auto", lookahead=16),
                       dict(variant="auto",
                            options=PrefetchOptions(
                                emit_stride_prefetch=False))):
            assert run_key(_ir(small_is(), **kwargs), HASWELL, wl,
                           True, SIM) != base

    def test_machine_and_params_invalidate(self):
        ir = _ir(small_is())
        wl = small_is()
        base = run_key(ir, HASWELL, wl, True, SIM)
        assert run_key(ir, A53, wl, True, SIM) != base
        assert run_key(ir, HASWELL.with_small_pages(), wl,
                       True, SIM) != base
        other = IntegerSort(num_keys=1501, num_buckets=1 << 12)
        assert run_key(ir, HASWELL, other, True, SIM) != base
        assert run_key(ir, HASWELL, wl, False, SIM) != base

    def test_every_sim_option_invalidates(self):
        ir, wl = _ir(small_is()), small_is()
        base = run_key(ir, HASWELL, wl, True, SIM)
        changed = {"fastpath": False, "telemetry": True,
                   "timeline_window": 5000}
        assert set(changed) == {f.name for f in
                                dataclasses.fields(SimOptions)}
        for name, value in changed.items():
            sim = dataclasses.replace(SIM, **{name: value})
            assert run_key(ir, HASWELL, wl, True, sim) != base, name

    def test_rng_advancement_invalidates(self):
        """After prepare() the shared RNG has moved, so a repeat run of
        the same instance is (correctly) a different run."""
        wl = small_is()
        ir = _ir(wl)
        before = run_key(ir, HASWELL, wl, True, SIM)
        wl.prepare(Memory())
        assert run_key(ir, HASWELL, wl, True, SIM) != before

    def test_canonical_token_arrays_and_rng(self):
        import numpy as np
        a = np.arange(10)
        assert canonical_token(a) == canonical_token(np.arange(10))
        assert canonical_token(a) != canonical_token(np.arange(11))
        r1, r2 = np.random.default_rng(7), np.random.default_rng(7)
        assert canonical_token(r1) == canonical_token(r2)
        r1.integers(0, 10)
        assert canonical_token(r1) != canonical_token(r2)

    def test_code_hash_is_cached_and_hex(self):
        assert simulator_code_hash() == simulator_code_hash()
        assert len(simulator_code_hash()) == 64

    def test_code_hash_covers_what_a_served_answer_imports(self):
        """A serve-store key is the request plus the code hash, not the
        IR: every ``repro`` package that computing an answer loads must
        be hashed, or stored answers outlive an edit to it.  Checked in
        a fresh process, after an optimized compile with remarks and a
        small simulate."""
        import subprocess
        import sys
        import textwrap
        from pathlib import Path

        from repro.bench.cache import _SIM_SOURCES
        allowed = {
            "obs": "wall-clock spans and metrics: never in a result",
            "bench": "writes the entries; ENGINE_VERSION covers it",
            "serve": "writes the entries; ENGINE_VERSION covers it",
        }
        script = textwrap.dedent("""
            import sys
            from repro.serve.protocol import execute_request, normalize_request
            source = ("void f(long* restrict k, long* restrict b, long n)"
                      " { for (long i = 0; i < n; i++) b[k[i]] += 1; }")
            for raw in ({"kind": "compile", "source": source,
                         "optimize": True, "include": ["remarks"]},
                        {"kind": "simulate", "workload": "is",
                         "small": True}):
                assert execute_request(
                    normalize_request(raw))["status"] == "ok"
            for name, module in sorted(sys.modules.items()):
                if (name.count(".") == 1 and name.startswith("repro.")
                        and hasattr(module, "__path__")):
                    print(name.split(".")[1])
        """)
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        packages = proc.stdout.split()
        assert "analysis" in packages and "remarks" in packages
        # Top-level modules (``repro.envcfg``) are not packages: the
        # options they parse reach keys as values (``SimOptions`` in a
        # run key, the request's fields in a serve key).
        unhashed = [name for name in packages
                    if name not in _SIM_SOURCES and name not in allowed]
        assert not unhashed, unhashed


class TestRunCacheStore:
    def test_roundtrip_and_counters(self, tmp_path):
        rc = RunCache(tmp_path)
        assert rc.get("ab" * 32) is None
        rc.put("ab" * 32, {"cycles": 1.5})
        assert rc.get("ab" * 32) == {"cycles": 1.5}
        # A second instance reads the same root from disk.
        rc2 = RunCache(tmp_path)
        assert rc2.get("ab" * 32) == {"cycles": 1.5}
        assert (rc.misses, rc.stores, rc2.hits) == (1, 1, 1)

    def test_corrupted_entry_is_a_miss(self, tmp_path):
        key = "cd" * 32
        RunCache(tmp_path).put(key, {"cycles": 2.0})
        rc = RunCache(tmp_path)  # nothing in memory: reads the disk
        rc._path(key).write_text("{not json")
        assert rc.get(key) is None
        rc._path(key).write_text(json.dumps([1, 2]))  # wrong shape
        assert rc.get(key) is None

    def test_resolve(self, tmp_path):
        """``cache=None`` is the scoped default (none outside every
        block), ``False`` is no cache, a store is itself."""
        scoped, own = RunCache(tmp_path / "a"), RunCache(tmp_path / "b")
        run_variant(small_is(), "plain", HASWELL)
        with run_defaults(cache=scoped):
            run_variant(small_is(), "plain", HASWELL)
            run_variant(small_is(), "plain", HASWELL, cache=False)
            run_variant(small_is(), "plain", HASWELL, cache=own)
        assert (scoped.stores, own.stores) == (1, 1)


class TestRunVariantCaching:
    def test_cold_then_warm(self, tmp_path):
        rc = RunCache(tmp_path)
        reset_telemetry()
        cold = run_variant(small_is(), "auto", HASWELL, cache=rc)
        assert TELEMETRY["simulated_runs"] == 1
        warm = run_variant(small_is(), "auto", HASWELL, cache=rc)
        assert TELEMETRY["simulated_runs"] == 1  # no re-simulation
        assert TELEMETRY["cached_runs"] == 1
        assert warm == cold
        assert rc.stores == 1

    def test_warm_result_matches_uncached(self, tmp_path):
        rc = RunCache(tmp_path)
        run_variant(small_is(), "auto", HASWELL, cache=rc)
        warm = run_variant(small_is(), "auto", HASWELL, cache=rc)
        uncached = run_variant(small_is(), "auto", HASWELL,
                               cache=False)
        assert warm == uncached

    def test_sequence_semantics_preserved(self, tmp_path):
        """A cached first run must leave the workload exactly where an
        uncached run would, so a plain → auto → manual sequence on one
        instance sees identical inputs, rows and run keys whether its
        first run missed or hit — on every quick workload."""
        def sequence(wl, rc):
            rows, keys = [], []
            for variant in ("plain", "auto", "manual"):
                keys.append(run_key(_ir(wl, variant), HASWELL, wl, True,
                                    SIM))
                rows.append(run_variant(
                    wl, variant, HASWELL,
                    cache=rc if variant == "plain" else False))
            return rows, keys

        for name in QUICK:
            rc = RunCache(tmp_path / name)
            missed = sequence(quick(name), rc)
            reset_telemetry()
            after_hit = sequence(quick(name), rc)
            assert TELEMETRY["cached_runs"] == 1, name
            assert after_hit == missed, name

    def test_run_specs_parallel_populates_shared_cache(self, tmp_path):
        rc = RunCache(tmp_path)
        wl1, wl2 = small_is(), RandomAccess(nblocks=15,
                                            table_size=1 << 12)
        specs = [RunSpec(wl1, "plain", HASWELL),
                 RunSpec(wl2, "plain", A53)]
        first = run_specs(specs, jobs=2, cache=rc)
        reset_telemetry()
        specs = [RunSpec(small_is(), "plain", HASWELL),
                 RunSpec(RandomAccess(nblocks=15, table_size=1 << 12),
                         "plain", A53)]
        second = run_specs(specs, jobs=1, cache=RunCache(tmp_path))
        assert second == first
        assert TELEMETRY["simulated_runs"] == 0
        assert TELEMETRY["cached_runs"] == 2


class TestHitPath:
    """The hit path's contract, on each quick workload: ``prepare``
    changes nothing but the RNG, so a hit may skip it and restore the
    RNG state its entry stored instead."""

    @pytest.mark.parametrize("name", QUICK)
    def test_prepare_changes_only_the_rng(self, name):
        wl = quick(name)

        def state():
            return {attr: canonical_token(value)
                    for attr, value in vars(wl).items() if attr != "rng"}

        before = state()
        wl.prepare(Memory())
        assert state() == before

    @pytest.mark.parametrize("name", QUICK)
    def test_hit_does_no_input_work(self, tmp_path, monkeypatch, name):
        """A hit calls no ``prepare`` and builds no ``Memory``, and
        leaves the RNG where the run that wrote the entry left it."""
        rc = RunCache(tmp_path)
        first = quick(name)
        cold = run_variant(first, "plain", HASWELL, cache=rc)

        def refuse(*args, **kwargs):
            raise AssertionError("input work on a cache hit")

        wl = quick(name)
        monkeypatch.setattr(type(wl), "prepare", refuse)
        monkeypatch.setattr(runner, "Memory", refuse)
        assert run_variant(wl, "plain", HASWELL, cache=rc) == cold
        assert canonical_token(wl.rng) == canonical_token(first.rng)

    @pytest.mark.parametrize("name", QUICK)
    def test_entry_without_rng_state_is_a_miss(self, tmp_path, name):
        """An entry in the layout written before the RNG state was
        stored (the bare row) re-simulates and is rewritten whole."""
        wl = quick(name)
        key = run_key(_ir(wl), HASWELL, wl, True, SIM)
        cold = run_variant(wl, "plain", HASWELL, cache=RunCache(tmp_path))
        entry = RunCache(tmp_path).get(key)
        assert set(entry) == {"row", "rng"}
        RunCache(tmp_path).put(key, entry["row"])
        reset_telemetry()
        again = run_variant(quick(name), "plain", HASWELL,
                            cache=RunCache(tmp_path))
        assert TELEMETRY["simulated_runs"] == 1
        assert TELEMETRY["cached_runs"] == 0
        assert again == cold
        assert RunCache(tmp_path).get(key) == entry

    @pytest.mark.parametrize("name", QUICK)
    def test_hits_leave_the_shared_entry_alone(self, tmp_path, name):
        """The in-memory layer hands every hit the same dict: two hits
        on one cache return equal rows and leave that dict as stored."""
        rc = RunCache(tmp_path)
        wl = quick(name)
        key = run_key(_ir(wl), HASWELL, wl, True, SIM)
        cold = run_variant(wl, "plain", HASWELL, cache=rc)
        stored = json.dumps(rc.get(key), sort_keys=True)
        reset_telemetry()
        hits = [run_variant(quick(name), "plain", HASWELL, cache=rc)
                for _ in range(2)]
        assert TELEMETRY["cached_runs"] == 2
        assert hits == [cold, cold]
        assert json.dumps(rc.get(key), sort_keys=True) == stored


class TestFigureLevelCaching:
    def test_second_figure_invocation_skips_simulation(self, tmp_path):
        """Acceptance: re-running a figure benchmark with unchanged
        inputs replays the disk cache and performs zero simulations."""
        from repro.bench.experiments import fig2_prefetch_schemes
        reset_telemetry()
        with run_defaults(cache=RunCache(tmp_path)):
            first = fig2_prefetch_schemes(small=True)
        assert TELEMETRY["simulated_runs"] == 5
        reset_telemetry()
        with run_defaults(cache=RunCache(tmp_path)):
            second = fig2_prefetch_schemes(small=True)
        assert TELEMETRY["simulated_runs"] == 0
        assert TELEMETRY["cached_runs"] == 5
        assert second == first
