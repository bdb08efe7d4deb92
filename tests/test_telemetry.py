"""Telemetry subsystem: outcome classification, cycle accounting,
export, and the non-interference contract with both engines."""

from __future__ import annotations

import dataclasses
import json

from repro.bench.cache import RunCache, run_key
from repro.bench.runner import run_defaults, run_variant
from repro.envcfg import SimOptions
from repro.machine import HASWELL
from repro.machine.system import MemorySystem
from repro.telemetry import TelemetryCollector, resolve_collector
from repro.telemetry.outcomes import OUTCOMES


def make_system(machine=HASWELL, **overrides):
    """A reference-path memory system with a collector attached."""
    config = dataclasses.replace(machine, **overrides) if overrides \
        else machine
    collector = TelemetryCollector()
    ms = MemorySystem(config, telemetry=collector)
    return ms, collector


class TestGating:
    def test_env_default_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_TELEMETRY", raising=False)
        assert SimOptions.from_env().telemetry is False
        assert SimOptions().telemetry is False

    def test_env_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_TELEMETRY", "1")
        assert SimOptions.from_env() == SimOptions(telemetry=True)

    def test_explicit_wins(self):
        """A run's own ``sim`` beats the scoped default, both ways."""
        from repro.workloads import hj2

        def run(**kwargs):
            return run_variant(hj2(num_probes=300, num_buckets=1 << 10),
                               "auto", HASWELL, cache=False, **kwargs)

        with run_defaults(SimOptions(telemetry=True)):
            assert run().telemetry is not None
            assert run(sim=SimOptions()).telemetry is None
        with run_defaults(SimOptions()):
            assert run(sim=SimOptions(telemetry=True)).telemetry \
                is not None

    def test_resolve_collector(self):
        assert resolve_collector(None) is None
        assert resolve_collector(False) is None
        assert isinstance(resolve_collector(True), TelemetryCollector)
        collector = TelemetryCollector()
        assert resolve_collector(collector) is collector

    def test_collector_disables_hot_line_memo(self):
        ms, _ = make_system()
        assert ms.fastpath is False
        assert MemorySystem(HASWELL, fastpath=True).fastpath is True


class TestClassification:
    """Drive the memory system directly and check each outcome bin."""

    def test_timely(self):
        ms, tel = make_system()
        accepted = ms.prefetch(pc=7, addr=0, time=0.0)
        assert accepted == 0.0  # the core never waits for the data
        assert tel._pending  # parked until the demand touch
        ms.load(pc=8, addr=8, time=10_000.0)  # same line, fill long done
        assert tel.outcome_counts["timely"] == 1
        assert tel.accuracy == 1.0 and tel.timeliness == 1.0
        assert tel.demand_hits_on_prefetch == 1
        assert tel.per_pc[7]["timely"] == 1
        assert tel.per_level == {"L1:timely": 1}

    def test_late_credits_partial_latency(self):
        ms, tel = make_system()
        ms.prefetch(pc=7, addr=0, time=0.0)
        ms.load(pc=8, addr=0, time=1.0)  # fill still in flight
        assert tel.outcome_counts["late"] == 1
        assert tel.timeliness == 0.0
        # The residual wait is what the demand load still paid.
        assert tel.late_wait_cycles > 0
        assert tel.per_level == {"L1:late": 1}

    def test_redundant(self):
        ms, tel = make_system()
        ms.prefetch(pc=7, addr=0, time=0.0)
        ms.prefetch(pc=7, addr=8, time=5_000.0)  # same line, resident
        assert tel.outcome_counts["redundant"] == 1
        assert tel.per_level == {"L1:redundant": 1}
        assert len(tel._pending) == 1  # the original is still parked

    def test_dropped_on_full_mshrs(self):
        ms, tel = make_system(mshrs=1)
        ms.prefetch(pc=1, addr=0, time=0.0)
        ms.prefetch(pc=2, addr=4096, time=1.0)  # MSHR still occupied
        assert tel.outcome_counts["dropped"] == 1
        assert tel.per_pc[2]["dropped"] == 1
        assert tel.cycles["prefetch_backpressure"] > 0

    def test_unused_at_finalize(self):
        ms, tel = make_system()
        ms.prefetch(pc=7, addr=0, time=0.0)
        tel.finalize(ms)
        assert tel.outcome_counts["unused"] == 1
        assert not tel._pending

    def test_early_when_evicted_before_finalize(self):
        ms, tel = make_system()
        ms.prefetch(pc=7, addr=0, time=0.0)
        ms.flush()  # line leaves the hierarchy untouched
        tel.finalize(ms)
        assert tel.outcome_counts["early"] == 1

    def test_early_on_demand_miss(self):
        tel = TelemetryCollector()
        tel.prefetch_issued(pc=7, line=3, time=0.0, fill_time=200.0)
        tel.demand_miss(line=3, t=900.0, done=1100.0)
        assert tel.outcome_counts["early"] == 1
        assert tel.cycles["DRAM"] == 200.0

    def test_stale_pending_resolved_as_early(self):
        tel = TelemetryCollector()
        tel.prefetch_issued(pc=7, line=3, time=0.0, fill_time=200.0)
        tel.prefetch_issued(pc=7, line=3, time=500.0, fill_time=700.0)
        assert tel.outcome_counts["early"] == 1
        assert len(tel._pending) == 1

    def test_translation_and_level_accounting(self):
        ms, tel = make_system()
        ms.load(pc=1, addr=0, time=0.0)  # cold: TLB walk + DRAM miss
        assert tel.cycles["TLB"] > 0
        assert tel.cycles["DRAM"] > 0
        ms.load(pc=1, addr=8, time=10_000.0)  # warm L1 hit
        assert tel.cycles.get("L1", 0) > 0

    def test_finalize_idempotent_and_core_account(self):
        class FakeCore:
            cycles = 100.0
            instructions = 80
            issue_cost = 0.25

        ms, tel = make_system()
        ms.prefetch(pc=7, addr=0, time=0.0)
        tel.finalize(ms, FakeCore())
        tel.finalize(ms, FakeCore())
        assert tel.outcome_counts["unused"] == 1  # not double-counted
        core = tel.snapshot()["cycles"]["core"]
        assert core["issue_cycles"] == 20.0
        assert core["stall_cycles"] == 80.0


class TestRingAndExport:
    def test_ring_bounded_but_counts_exact(self):
        tel = TelemetryCollector(capacity=4)
        for i in range(10):
            tel.prefetch_redundant(pc=1, line=i, time=float(i),
                                   level="L1")
        assert len(tel.events) == 4
        assert tel.events[0]["line"] == 6  # oldest evicted
        assert tel.outcome_counts["redundant"] == 10

    def test_snapshot_schema_and_json(self):
        ms, tel = make_system()
        ms.prefetch(pc=7, addr=0, time=0.0)
        ms.load(pc=8, addr=0, time=10_000.0)
        tel.finalize(ms)
        snap = json.loads(tel.to_json())
        assert snap["schema"] == "repro-telemetry-v1"
        assert set(snap["prefetch"]["outcomes"]) == set(OUTCOMES)
        assert snap["prefetch"]["issued"] == 1
        assert set(snap["memory"]) == {"memory", "caches", "tlb",
                                       "dram"}
        assert snap["events"][0]["outcome"] == "timely"


class TestSnapshotSurfaces:
    """Satellite: every stats object exports a uniform snapshot()."""

    def test_component_snapshots(self):
        ms = MemorySystem(HASWELL)
        ms.load(pc=1, addr=0, time=0.0)
        snap = ms.snapshot()
        assert snap["memory"]["demand_accesses"] == 1
        assert [c["name"] for c in snap["caches"]] == ["L1", "L2", "L3"]
        assert "hit_rate" in snap["caches"][0]["stats"]
        assert "accesses" in snap["tlb"]["stats"]
        assert snap["dram"]["stats"]["accesses"] >= 1
        json.dumps(snap)  # JSON-ready throughout


class TestRunnerIntegration:
    def make_workload(self):
        from repro.workloads import hj2
        return hj2(num_probes=800, num_buckets=1 << 11)

    def test_run_variant_attaches_snapshot(self):
        result = run_variant(self.make_workload(), "auto", HASWELL,
                             cache=False, sim=SimOptions(telemetry=True))
        snap = result.telemetry
        assert snap is not None
        assert snap["prefetch"]["issued"] == \
            sum(snap["prefetch"]["outcomes"].values())
        assert snap["cycles"]["core"]["cycles"] == result.cycles
        assert result.prefetches > 0

    def test_run_variant_off_by_default(self):
        result = run_variant(self.make_workload(), "auto", HASWELL,
                             cache=False)
        assert result.telemetry is None

    def test_run_key_separates_telemetry(self):
        wl = self.make_workload()
        ir = "func"
        on = run_key(ir, HASWELL, wl, True, SimOptions(telemetry=True))
        off = run_key(ir, HASWELL, wl, True, SimOptions(telemetry=False))
        assert on != off
        assert off == run_key(ir, HASWELL, wl, True, SimOptions())

    def test_snapshot_round_trips_through_disk_cache(self, tmp_path):
        cache = RunCache(tmp_path)
        on = SimOptions(telemetry=True)
        first = run_variant(self.make_workload(), "auto", HASWELL,
                            cache=cache, sim=on)
        again = run_variant(self.make_workload(), "auto", HASWELL,
                            cache=cache, sim=on)
        assert cache.hits == 1
        assert again.telemetry == first.telemetry
        assert again.cycles == first.cycles


class TestEffectivenessReport:
    def test_rows_and_rendering(self):
        from repro.telemetry.report import (effectiveness_rows,
                                            render_effectiveness,
                                            report_dict)
        from repro.workloads import hj2
        rows = effectiveness_rows(
            [hj2(num_probes=800, num_buckets=1 << 11)],
            machines=(HASWELL,), jobs=1, cache=False)
        (row,) = rows
        assert row["workload"] == "HJ-2"
        assert row["issued"] == sum(row["outcomes"].values())
        assert 0.0 <= row["accuracy"] <= 1.0
        text = render_effectiveness(rows)
        assert "HJ-2" in text and "Accuracy" in text
        json.dumps(report_dict(rows))
