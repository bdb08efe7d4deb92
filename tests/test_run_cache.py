"""Unit tests for the run-result disk cache (bench/cache.py).

Covers key stability and invalidation, cold/warm behaviour of
``run_variant``, corrupted-entry handling, scoped-default resolution,
and the acceptance property: a second invocation of a figure benchmark
with unchanged inputs hits the disk cache and skips re-simulation.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.bench.cache import (RunCache, canonical_token, run_key,
                               simulator_code_hash)
from repro.bench.runner import (RunSpec, TELEMETRY, reset_telemetry,
                                run_defaults, run_specs, run_variant)
from repro.envcfg import SimOptions
from repro.ir import print_module
from repro.machine import A53, HASWELL
from repro.passes import PrefetchOptions
from repro.workloads import IntegerSort, RandomAccess


def _ir(workload, variant="plain", **kwargs):
    return print_module(workload.build_variant(variant, **kwargs))


#: Default engine options, for keys where they do not matter.
SIM = SimOptions()


def small_is():
    return IntegerSort(num_keys=1500, num_buckets=1 << 12)


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
        from repro.machine.memory import Memory
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
        rc = RunCache(tmp_path)
        key = "cd" * 32
        rc.put(key, {"cycles": 2.0})
        rc._mem.clear()
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
        """A cached first run must leave the workload's RNG exactly
        where an uncached run would, so the *second* run on the same
        instance sees identical inputs either way."""
        rc = RunCache(tmp_path)
        wl = small_is()
        run_variant(wl, "plain", HASWELL, cache=rc)
        second_uncached = run_variant(wl, "auto", HASWELL, cache=False)

        wl = small_is()
        run_variant(wl, "plain", HASWELL, cache=rc)  # cache hit
        second_after_hit = run_variant(wl, "auto", HASWELL,
                                       cache=False)
        assert second_after_hit == second_uncached

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
