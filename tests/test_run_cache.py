"""Unit tests for the run-result disk cache (bench/cache.py).

Covers key stability and invalidation, config tokens kept by identity
(each equals what re-tokenising its value gives), the build recipe
standing in for the built IR (the build and the key are deterministic
across processes, the build mutates nothing and runs only hashed
code), cold/warm behaviour of ``run_variant``, corrupted-entry and
malformed-key handling, scoped-default resolution,
the hit path's contract on all seven quick workloads (a hit restores
the RNG state its entry stored, builds nothing and runs no
``prepare``), and the acceptance property: a second invocation of a
figure benchmark with unchanged inputs hits the disk cache and skips
re-simulation.
"""

from __future__ import annotations

import builtins
import copy
import dataclasses
import gc
import io
import json
import os
import subprocess
import sys
import textwrap
import threading
import weakref
from pathlib import Path

import pytest

from repro.bench import cache, runner
from repro.bench.cache import (RunCache, canonical_token, run_key,
                               simulator_code_hash)
from repro.bench.runner import (RunSpec, TELEMETRY, reset_telemetry,
                                run_defaults, run_specs, run_variant)
from repro.envcfg import SimOptions
from repro.machine import A53, HASWELL
from repro.machine.configs import CacheConfig, MachineConfig
from repro.machine.memory import Memory
from repro.passes import PrefetchOptions
from repro.serve.cas import ContentStore
from repro.workloads import (VARIANTS, IntegerSort, RandomAccess,
                             paper_benchmarks, workload_by_name)
from repro.workloads.base import Workload

from .test_bench_harness import _workload_classes

#: Default engine options, for keys where they do not matter.
SIM = SimOptions()


def _key(workload, variant="plain", machine=HASWELL, lookahead=64,
         options=None, validate=True, sim=SIM, **manual_knobs):
    """The key ``run_variant`` probes for the same arguments."""
    return run_key(variant, lookahead, options, manual_knobs, machine,
                   workload, validate, sim)


def small_is():
    return IntegerSort(num_keys=1500, num_buckets=1 << 12)


#: The seven quick workloads, by name; :func:`quick` makes a fresh one.
QUICK = [wl.name for wl in paper_benchmarks(small=True)]


def quick(name):
    return workload_by_name(name, small=True)


class TestRunKey:
    def test_stable_across_equal_instances(self):
        assert _key(small_is()) == _key(small_is())

    def test_every_build_argument_invalidates(self):
        """The recipe stands in for the built IR, so every argument
        ``build_variant`` receives is part of the key: each variant,
        the look-ahead, each pass option and a manual knob."""
        wl = small_is()
        assert len({_key(wl, variant) for variant in VARIANTS}) \
            == len(VARIANTS)
        assert _key(wl, "auto", lookahead=16) != _key(wl, "auto")
        base = _key(wl, "auto", options=PrefetchOptions())
        changed = {"lookahead": 16, "emit_stride_prefetch": False,
                   "allow_pure_calls": True, "enable_hoisting": True,
                   "require_canonical_iv": True}
        assert set(changed) == {f.name for f in
                                dataclasses.fields(PrefetchOptions)}
        for name, value in changed.items():
            options = PrefetchOptions(**{name: value})
            assert _key(wl, "auto", options=options) != base, name
        assert (_key(wl, "manual", include_stride=False)
                != _key(wl, "manual"))

    def test_recipe_is_hashed_as_given(self):
        """Recipes that build the same IR are not merged: a duplicate
        entry, never a wrong row."""
        wl = small_is()
        assert _key(wl, "plain", lookahead=4) != _key(wl, "plain")
        assert (_key(wl, "auto", options=PrefetchOptions(lookahead=64))
                != _key(wl, "auto"))

    def test_machine_and_params_invalidate(self):
        wl = small_is()
        base = _key(wl)
        assert _key(wl, machine=A53) != base
        assert _key(wl, machine=HASWELL.with_small_pages()) != base
        other = IntegerSort(num_keys=1501, num_buckets=1 << 12)
        assert _key(other) != base
        assert _key(wl, validate=False) != base

    def test_every_sim_option_invalidates(self):
        wl = small_is()
        base = _key(wl)
        changed = {"fastpath": False, "telemetry": True,
                   "timeline_window": 5000}
        assert set(changed) == {f.name for f in
                                dataclasses.fields(SimOptions)}
        for name, value in changed.items():
            sim = dataclasses.replace(SIM, **{name: value})
            assert _key(wl, sim=sim) != base, name

    def test_rng_advancement_invalidates(self):
        """After prepare() the shared RNG has moved, so a repeat run of
        the same instance is (correctly) a different run."""
        wl = small_is()
        before = _key(wl)
        wl.prepare(Memory())
        assert _key(wl) != before

    def test_canonical_token_arrays_and_rng(self):
        import numpy as np
        a = np.arange(10)
        assert canonical_token(a) == canonical_token(np.arange(10))
        assert canonical_token(a) != canonical_token(np.arange(11))
        r1, r2 = np.random.default_rng(7), np.random.default_rng(7)
        assert canonical_token(r1) == canonical_token(r2)
        r1.integers(0, 10)
        assert canonical_token(r1) != canonical_token(r2)

        def mt19937(flip):
            rng = np.random.Generator(np.random.MT19937(7))
            state = rng.bit_generator.state
            state["state"]["key"][300] ^= flip
            rng.bit_generator.state = state
            return rng

        # Its state is a 624-word array: printed under a small
        # threshold, two states that differ mid-array would read alike.
        with np.printoptions(threshold=10):
            assert canonical_token(mt19937(0)) == canonical_token(
                mt19937(0))
            assert canonical_token(mt19937(0)) != canonical_token(
                mt19937(1))

    def test_code_hash_is_cached_and_hex(self):
        assert simulator_code_hash() == simulator_code_hash()
        assert len(simulator_code_hash()) == 64

    def test_code_hash_covers_what_a_served_answer_imports(self):
        """A serve-store key is the request plus the code hash, not the
        IR: every ``repro`` package that computing an answer loads must
        be hashed, or stored answers outlive an edit to it.  Checked in
        a fresh process, after an optimized compile with remarks and a
        small simulate."""
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


def _fresh(value) -> str:
    """The token of ``value`` worked out anew: a deep copy is a new
    object, so no kept token can stand for it."""
    return canonical_token(copy.deepcopy(value))


@dataclasses.dataclass(frozen=True)
class _Holder:
    """A frozen dataclass whose fields can still change inside."""

    name: str
    inner: tuple


class TestConfigTokens:
    """A frozen config's token is kept by identity: every kept token
    must be the one re-tokenising its value gives."""

    @pytest.fixture(autouse=True)
    def _no_kept_tokens(self, monkeypatch):
        """Each test starts with an empty token memory, however full
        the tests before it left the module's."""
        monkeypatch.setattr(cache, "_TOKENS", {})

    @pytest.mark.parametrize("reverse", [False, True],
                             ids=["int-first", "float-first"])
    def test_equal_values_keep_their_own_tokens(self, reverse):
        """Values that compare equal but tokenise differently get their
        own tokens and their own run keys, whichever goes first."""
        def caches(latency):
            return dataclasses.replace(HASWELL, caches=(
                CacheConfig(32768, 8, latency),) + HASWELL.caches[1:])

        wl = small_is()
        pairs = [(CacheConfig(32768, 8, 4), CacheConfig(32768, 8, 4.0)),
                 (caches(4), caches(4.0)),
                 (HASWELL, dataclasses.replace(HASWELL,
                                               dram_latency=220.0))]
        for pair in pairs:
            first, second = reversed(pair) if reverse else pair
            assert first == second
            tokens = [canonical_token(first), canonical_token(second)]
            assert tokens == [_fresh(first), _fresh(second)]
            assert tokens[0] != tokens[1]
            if isinstance(first, MachineConfig):
                assert _key(wl, machine=first) != _key(wl, machine=second)

    def test_mutable_fields_are_tokenised_on_every_call(self):
        """A frozen dataclass that holds a list, directly or under a
        tuple or another frozen dataclass, is re-tokenised after the
        list changes."""
        items = [1]
        direct = _Holder("direct", (items,))
        nested = _Holder("nested", (_Holder("inner", (1, items)),))
        before = [canonical_token(direct), canonical_token(nested)]
        items.append(2)
        after = [canonical_token(direct), canonical_token(nested)]
        assert after == [_fresh(direct), _fresh(nested)]
        assert after[0] != before[0] and after[1] != before[1]

    def test_no_token_for_another_object(self):
        """Short-lived configs with distinct fields, each tokenised and
        dropped: CPython hands a dropped object's id to the next, so a
        token kept by bare id would answer for the wrong config."""
        for i in range(1000):
            config = CacheConfig(64 * (i + 1), 1 + i % 16, i % 7)
            assert canonical_token(config) == _fresh(config), i
            machine = dataclasses.replace(A53, mshrs=i)
            assert canonical_token(machine) == _fresh(machine), i
            del config, machine

    def test_token_memory_is_bounded(self):
        """After 10,000 distinct configs, the kept tokens, and the
        configs they keep alive, stay at the bound."""
        alive = []
        for i in range(10_000):
            config = CacheConfig(64 * (i + 1), 8, 4)
            canonical_token(config)
            alive.append(weakref.ref(config))
            del config
        gc.collect()
        assert len(cache._TOKENS) <= cache.TOKEN_MEMORY
        assert sum(ref() is not None for ref in alive) \
            <= cache.TOKEN_MEMORY

    def test_threads_share_the_token_memory(self):
        """Four threads tokenise their own short-lived configs and one
        shared machine under a 10 µs switch interval: every token is
        its value's, and the memory never passes its bound."""
        shared = dataclasses.replace(HASWELL)
        want = _fresh(shared)
        errors, done = [], []

        def work(seed):
            try:
                for i in range(1500):
                    config = CacheConfig(64 * (i + 1), 1 + seed, i % 7)
                    if (canonical_token(config) != _fresh(config)
                            or canonical_token(shared) != want
                            or len(cache._TOKENS) > cache.TOKEN_MEMORY):
                        errors.append((seed, i))
            except Exception as exc:  # else the thread dies unseen
                errors.append((seed, exc))
            else:
                done.append(seed)

        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sorted(done) == [0, 1, 2, 3]

    def test_shared_config_objects_are_tokenised_once(self, monkeypatch):
        """The machine and options of a run are tokenised once however
        many keys name them; a new object equal to one is tokenised
        anew."""
        wl = small_is()
        machine = dataclasses.replace(HASWELL)
        sim = dataclasses.replace(SIM)
        first = _key(wl, machine=machine, sim=sim)
        calls = []
        immutable = cache._immutable
        monkeypatch.setattr(cache, "_immutable",
                            lambda value: calls.append(value)
                            or immutable(value))
        assert _key(wl, machine=machine, sim=sim) == first
        assert calls == []
        assert _key(wl, machine=dataclasses.replace(machine),
                    sim=sim) == first
        assert calls


#: The recipe grid of :class:`TestRecipeKey`'s cross-process test: it
#: pads the heap with ``argv[1]`` objects, builds every recipe in grid
#: order or (``argv[2] == "reverse"``) backwards, and prints ``[label,
#: sha256 of the printed module, run key]`` for each, in grid order, as
#: JSON.  Each run key is made before its build, as ``run_variant``
#: makes it.
_BUILD_GRID = textwrap.dedent("""
    import hashlib, json, sys
    pad = [object() for _ in range(int(sys.argv[1]))]
    from repro.bench.cache import run_key
    from repro.bench.experiments import manual_knobs_for
    from repro.envcfg import SimOptions
    from repro.ir import print_module
    from repro.machine.configs import A57, ALL_SYSTEMS, HASWELL
    from repro.passes import PrefetchOptions
    from repro.workloads import IntegerSort, paper_benchmarks

    grid = []
    for size in ("small", "full"):
        for wl in paper_benchmarks(small=size == "small"):
            for c in (4, 64, 256):
                for variant in ("plain", "auto", "icc"):
                    grid.append((size, wl, variant, c, None, {}, HASWELL))
                for machine in ALL_SYSTEMS:
                    grid.append((size, wl, "manual", c, None,
                                 manual_knobs_for(wl, machine), machine))
            for options in (PrefetchOptions(emit_stride_prefetch=False),
                            PrefetchOptions(enable_hoisting=True)):
                grid.append((size, wl, "auto", 64, options, {}, HASWELL))
    # A machine made for its run, as Fig. 10's pages are, and a
    # two-core list of instances, as Fig. 9 runs.
    grid.append(("small", paper_benchmarks(small=True)[0], "auto", 64,
                 None, {}, A57.with_huge_pages()))
    grid.append(("small", [IntegerSort(num_keys=8000, seed=42 + core)
                           for core in range(2)], "auto", 64, None, {},
                 HASWELL))
    order = list(range(len(grid)))
    if sys.argv[2] == "reverse":
        order.reverse()
    out = [None] * len(grid)
    for i in order:
        size, wl, variant, c, options, knobs, machine = grid[i]
        key = run_key(variant, c, options, knobs, machine, wl, True,
                      SimOptions())
        first = wl[0] if isinstance(wl, list) else wl
        module = first.build_variant(variant, lookahead=c,
                                     options=options, **knobs)
        cores = len(wl) if isinstance(wl, list) else 1
        out[i] = [f"{size} {first.name}x{cores} {variant} c={c} "
                  f"{options} {knobs} {machine.name} "
                  f"page_bits={machine.page_bits}",
                  hashlib.sha256(print_module(module).encode()).hexdigest(),
                  key]
    print(json.dumps(out))
""")


class TestRecipeKey:
    """The key names the build recipe, not the module it builds: that
    is exact only while the build is a function of the recipe, the
    workload's state and the hashed source."""

    def test_printed_ir_agrees_across_processes(self):
        """Every suite workload, small and full size, built as each
        variant (manual with each system's knobs) at three look-aheads
        and with two non-default pass options, plus a huge-page machine
        and a two-core list, prints the same module and makes the same
        run key in processes with other hash seeds, heap layouts and
        build orders — and the same recipe twice in one process prints
        the same module."""
        src = Path(__file__).resolve().parent.parent / "src"
        procs = [subprocess.Popen(
            [sys.executable, "-c", _BUILD_GRID, str(pad), order],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(src),
                 "PYTHONHASHSEED": seed})
            for seed, pad, order in (("0", 0, "forward"),
                                     ("1", 100_003, "reverse"),
                                     ("12345", 7_919, "forward"))]
        grids = []
        try:
            for proc in procs:
                stdout, stderr = proc.communicate(timeout=300)
                assert proc.returncode == 0, stderr
                grids.append(json.loads(stdout))
        finally:
            for proc in procs:
                proc.kill()
                proc.wait()
        assert grids[1] == grids[0]
        assert grids[2] == grids[0]
        digests: dict[str, set] = {}
        for label, digest, _ in grids[0]:
            digests.setdefault(label, set()).add(digest)
        assert all(len(seen) == 1 for seen in digests.values())
        keys = [key for _, _, key in grids[0]]
        assert len(set(keys)) == len(keys)

    def test_build_mutates_nothing(self):
        """The key tokenises the workload before the build, so the
        build must leave its token (RNG included) as it found it."""
        for small in (True, False):
            for wl in paper_benchmarks(small=small):
                for variant in VARIANTS:
                    before = canonical_token(wl)
                    wl.build_variant(variant)
                    assert canonical_token(wl) == before, (wl.name,
                                                           variant)

    def test_code_hash_covers_every_build(self):
        """Every workload class is defined under a hashed package, so
        an edit to any ``build`` changes every key; a subclass defined
        elsewhere would be keyed by its name and parameters only."""
        from repro.bench.cache import _SIM_SOURCES
        hashed = {f"repro.{package}" for package in _SIM_SOURCES}
        outside = [f"{cls.__module__}.{cls.__qualname__}"
                   for cls in _workload_classes()
                   if ".".join(cls.__module__.split(".")[:2]) not in hashed]
        assert _workload_classes()
        assert not outside


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

    def test_malformed_key_is_a_miss_without_a_read(self, tmp_path,
                                                    monkeypatch):
        """A key that is not a full SHA-256 hexdigest, one that would
        leave the store root among them, reads as a miss before any
        file is opened."""
        (tmp_path / "secret.json").write_text('{"row": 1}')
        store = ContentStore(tmp_path / "store")

        def refuse(*args, **kwargs):
            raise AssertionError(f"opened {args[:1]} for a malformed key")

        for module in (builtins, io, os):
            monkeypatch.setattr(module, "open", refuse)
        keys = ["../secret", "ab/../../secret", "/etc/passwd",
                "AB" * 32, "ab" * 31, "ab" * 32 + "\n", "ab" * 33, "",
                None, 7, ["ab" * 32]]
        for key in keys:
            assert store.get(key) is None, key
        assert (store.hits, store.misses) == (0, len(keys))

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
                keys.append(_key(wl, variant))
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


def _refuse_build(*args, **kwargs):
    raise AssertionError("build on a cache hit")


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

    def test_hit_builds_nothing(self, tmp_path, monkeypatch):
        """The key is made from the recipe before any build, so a hit
        returns its row with ``build_variant`` refusing to run."""
        rc = RunCache(tmp_path)
        cold = run_variant(small_is(), "auto", HASWELL, cache=rc)
        monkeypatch.setattr(Workload, "build_variant", _refuse_build)
        reset_telemetry()
        assert run_variant(small_is(), "auto", HASWELL, cache=rc) == cold
        assert TELEMETRY["cached_runs"] == 1

    @pytest.mark.parametrize("name", QUICK)
    def test_entry_without_rng_state_is_a_miss(self, tmp_path, name):
        """An entry in the layout written before the RNG state was
        stored (the bare row) re-simulates and is rewritten whole."""
        wl = quick(name)
        key = _key(wl)
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
        key = _key(wl)
        cold = run_variant(wl, "plain", HASWELL, cache=rc)
        stored = json.dumps(rc.get(key), sort_keys=True)
        reset_telemetry()
        hits = [run_variant(quick(name), "plain", HASWELL, cache=rc)
                for _ in range(2)]
        assert TELEMETRY["cached_runs"] == 2
        assert hits == [cold, cold]
        assert json.dumps(rc.get(key), sort_keys=True) == stored


class TestMulticoreHitPath:
    """A run over a list of instances (one per core, as Fig. 9 makes)
    is one entry, keyed over every instance, that stores and restores
    every instance's RNG state."""

    @staticmethod
    def cores():
        return [IntegerSort(num_keys=1500, num_buckets=1 << 12,
                            seed=42 + core) for core in range(2)]

    def test_hit_restores_every_instance_rng(self, tmp_path, monkeypatch):
        """The pair's entry is its own (its key is neither instance's),
        and a hit on it moves both RNGs where the run left them."""
        rc = RunCache(tmp_path)
        first = self.cores()
        key = _key(first)
        assert key not in {_key(one) for one in first}
        cold = run_variant(first, "plain", HASWELL, cache=rc)
        assert rc.get(key)["row"] == dataclasses.asdict(cold)

        def refuse(*args, **kwargs):
            raise AssertionError("input work on a cache hit")

        again = self.cores()
        monkeypatch.setattr(IntegerSort, "prepare", refuse)
        monkeypatch.setattr(runner, "Memory", refuse)
        reset_telemetry()
        assert run_variant(again, "plain", HASWELL, cache=rc) == cold
        assert TELEMETRY["cached_runs"] == 1
        assert ([canonical_token(wl.rng) for wl in again]
                == [canonical_token(wl.rng) for wl in first])
        # Each instance drew its own inputs: both states moved.
        fresh = self.cores()
        for wl, untouched in zip(again, fresh):
            assert canonical_token(wl.rng) != canonical_token(untouched.rng)

    def test_hit_builds_nothing(self, tmp_path, monkeypatch):
        """Fig. 9's two-core hit returns its row without a build."""
        rc = RunCache(tmp_path)
        cold = run_variant(self.cores(), "auto", HASWELL, cache=rc)
        monkeypatch.setattr(Workload, "build_variant", _refuse_build)
        reset_telemetry()
        assert run_variant(self.cores(), "auto", HASWELL, cache=rc) == cold
        assert TELEMETRY["cached_runs"] == 1

    @pytest.mark.parametrize("damage", ["short", "bad state"])
    def test_bad_state_list_is_a_miss_that_moves_no_rng(self, tmp_path,
                                                        damage):
        """An entry whose state list does not fit the instances is a
        miss, and no instance's RNG moves before the run re-prepares
        it, so the rewritten entry is the one a clean run writes."""
        pair = self.cores()
        key = _key(pair)
        cold = run_variant(pair, "plain", HASWELL, cache=RunCache(tmp_path))
        entry = RunCache(tmp_path).get(key)
        states = entry["rng"]
        RunCache(tmp_path).put(key, {
            "row": entry["row"],
            "rng": states[:1] if damage == "short"
            else [states[0], {"bit_generator": "MT19937"}]})
        reset_telemetry()
        again = run_variant(self.cores(), "plain", HASWELL,
                            cache=RunCache(tmp_path))
        assert TELEMETRY["simulated_runs"] == 1
        assert again == cold
        assert RunCache(tmp_path).get(key) == entry


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
