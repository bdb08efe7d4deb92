"""Flight-recorder tests: windowed timelines, spans, Perfetto export.

The load-bearing property is **tier identity**: attaching a
:class:`TimelineRecorder` must not move a single simulated cycle or
telemetry aggregate under either engine (reference, or fused segments
plus the trace JIT) on any machine — sampling happens only at the
reference yield boundaries both engines share.  The rest asserts the
window bookkeeping, the cache key, span recording, and the determinism
of the Chrome trace-event export.
"""

from __future__ import annotations

import dataclasses
import io
import json
from types import SimpleNamespace

import pytest

from repro.envcfg import SimOptions
from repro.machine import A53, HASWELL, Interpreter
from repro.machine.memory import Memory
from repro.telemetry.perfetto import (PIPELINE_PID, SIM_PID,
                                      build_trace, canonical_json)
from repro.telemetry.spans import (SpanRecorder, active_recorder,
                                   instant, recording, span)
from repro.telemetry.timeline import TimelineRecorder, resolve_timeline

def snapshot(interp: Interpreter) -> dict:
    """Every observable counter of a finished run."""
    return {
        "cycles": interp.core.cycles,
        "core_instructions": interp.core.instructions,
        "run_stats": dataclasses.asdict(interp.stats),
        "memory_system": interp.memory_system.snapshot(),
    }


# ---------------------------------------------------------------------
# Unit tests against fake cores/hierarchies (pure window math).
# ---------------------------------------------------------------------

def _fake_machine(cycles=0.0, instructions=0, hits=0, misses=0,
                  tlb=0, dram=0, swpf=0, occupancy=0):
    core = SimpleNamespace(cycles=cycles, time=cycles,
                           instructions=instructions, issue_cost=0.25)
    cache = SimpleNamespace(
        name="L1", stats=SimpleNamespace(hits=hits, misses=misses))
    ms = SimpleNamespace(
        tlb=SimpleNamespace(stats=SimpleNamespace(misses=tlb)),
        dram=SimpleNamespace(stats=SimpleNamespace(accesses=dram)),
        stats=SimpleNamespace(sw_prefetches=swpf),
        caches=[cache],
        mshr_occupancy=lambda time: occupancy)
    return core, ms


class TestTimelineRecorderUnit:
    def test_windows_close_at_cycle_edges(self):
        rec = TimelineRecorder(window=1000)
        core, ms = _fake_machine(cycles=400.0, instructions=100)
        rec.sample(core, ms)
        assert rec.windows == []          # edge not reached yet
        core, ms = _fake_machine(cycles=1500.0, instructions=400,
                                 misses=7)
        rec.sample(core, ms)
        assert len(rec.windows) == 1
        (w,) = rec.windows
        assert w["start_cycle"] == 0.0
        assert w["end_cycle"] == 1500.0   # first boundary past the edge
        assert w["instructions"] == 400
        assert w["issue_cycles"] == 100.0  # 400 × 0.25
        assert w["stall_cycles"] == 1400.0
        assert w["levels"]["L1"]["misses"] == 7
        assert w["levels"]["L1"]["mpki"] == pytest.approx(17.5)

    def test_long_stall_spans_several_edges_in_one_window(self):
        rec = TimelineRecorder(window=1000)
        core, ms = _fake_machine(cycles=5500.0, instructions=10)
        rec.sample(core, ms)
        assert len(rec.windows) == 1      # one window, not five
        core, ms = _fake_machine(cycles=5800.0, instructions=20)
        rec.sample(core, ms)
        assert len(rec.windows) == 1      # next edge is 6000
        core, ms = _fake_machine(cycles=6100.0, instructions=30)
        rec.sample(core, ms)
        assert len(rec.windows) == 2
        assert rec.windows[1]["start_cycle"] == 5500.0
        assert rec.windows[1]["end_cycle"] == 6100.0

    def test_mshr_high_water_resets_per_window(self):
        rec = TimelineRecorder(window=1000)
        core, ms = _fake_machine(cycles=200.0, occupancy=9)
        rec.sample(core, ms)
        core, ms = _fake_machine(cycles=1200.0, instructions=5,
                                 occupancy=2)
        rec.sample(core, ms)
        assert rec.windows[0]["mshr_high_water"] == 9
        core, ms = _fake_machine(cycles=2400.0, instructions=9,
                                 occupancy=3)
        rec.sample(core, ms)
        assert rec.windows[1]["mshr_high_water"] == 3

    def test_finalize_closes_trailing_partial_window(self):
        rec = TimelineRecorder(window=1000)
        core, ms = _fake_machine(cycles=300.0, instructions=40)
        rec.finalize(core, ms)
        assert len(rec.windows) == 1
        rec.finalize(core, ms)            # idempotent
        assert len(rec.windows) == 1

    def test_finalize_on_empty_run_records_nothing(self):
        rec = TimelineRecorder(window=1000)
        core, ms = _fake_machine()
        rec.finalize(core, ms)
        assert rec.windows == []
        snap = rec.snapshot()
        assert snap["schema"] == "repro-timeline-v1"
        assert snap["totals"] == {"windows": 0, "cycles": 0.0,
                                  "instructions": 0}

    def test_outcome_bins_are_per_window_deltas(self):
        rec = TimelineRecorder(window=1000)
        tel = SimpleNamespace(outcome_counts={"timely": 5, "late": 1})
        core, ms = _fake_machine(cycles=1100.0, instructions=10)
        rec.sample(core, ms, tel)
        tel2 = SimpleNamespace(outcome_counts={"timely": 9, "late": 4})
        core, ms = _fake_machine(cycles=2200.0, instructions=20)
        rec.sample(core, ms, tel2)
        assert rec.windows[0]["outcomes"] == {"timely": 5, "late": 1}
        assert rec.windows[1]["outcomes"] == {"timely": 4, "late": 3}

    def test_invalid_window_argument_raises(self):
        with pytest.raises(ValueError):
            TimelineRecorder(window=-5)


class TestTimelineEnvGates:
    def test_disabled_by_default(self):
        assert SimOptions().timeline_window is None
        assert resolve_timeline(None) is None
        assert resolve_timeline(False) is None
        assert isinstance(resolve_timeline(True), TimelineRecorder)

    def test_explicit_argument_wins(self):
        """A run's own ``sim`` beats the scoped default."""
        from repro.bench.runner import run_defaults, run_variant
        from repro.workloads import IntegerSort

        def run(**kwargs):
            return run_variant(IntegerSort(num_keys=500,
                                           num_buckets=1 << 10),
                               "auto", HASWELL, cache=False, **kwargs)

        with run_defaults(SimOptions(timeline_window=2000)):
            assert run().timeline["window_cycles"] == 2000
            assert run(sim=SimOptions()).timeline is None

    def test_recorder_passes_through(self):
        rec = TimelineRecorder(window=2000)
        assert resolve_timeline(rec) is rec


# ---------------------------------------------------------------------
# The tier-identity matrix (acceptance criterion).
# ---------------------------------------------------------------------

class TestTimelineTierIdentity:
    """Simulated cycles and telemetry aggregates must be bit-identical
    with timeline sampling on vs off, under both engines on at least
    two machines."""

    @pytest.mark.parametrize("machine", (HASWELL, A53),
                             ids=lambda m: m.name)
    @pytest.mark.parametrize("variant", ("plain", "auto"))
    def test_matrix_integer_sort(self, machine, variant):
        from repro.workloads import IntegerSort
        snaps = {}
        telemetries = {}
        for fastpath in (False, True):
            for timeline in (False, True):
                wl = IntegerSort(num_keys=2000, num_buckets=1 << 14)
                module = wl.build_variant(variant)
                mem = Memory(machine.line_size)
                prepared = wl.prepare(mem)
                recorder = (TimelineRecorder(window=2000)
                            if timeline else None)
                interp = Interpreter(module, mem, machine=machine,
                                     fastpath=fastpath,
                                     telemetry=True,
                                     timeline=recorder)
                result = interp.run(wl.entry, prepared.args)
                prepared.validate()
                if timeline:
                    assert result.timeline is not None
                    assert result.timeline["windows"]
                else:
                    assert result.timeline is None
                key = (fastpath, timeline)
                snaps[key] = snapshot(interp)
                telemetries[key] = result.telemetry
        base = snaps[(False, False)]
        base_tel = telemetries[(False, False)]
        for combo, snap in snaps.items():
            assert snap == base, f"counters diverged at {combo}"
            assert telemetries[combo] == base_tel, (
                f"telemetry diverged at {combo}")

    @pytest.mark.parametrize("machine", (HASWELL, A53),
                             ids=lambda m: m.name)
    def test_windows_tile_the_run_exactly(self, machine):
        from repro.workloads import IntegerSort
        wl = IntegerSort(num_keys=2000, num_buckets=1 << 14)
        module = wl.build_variant("auto")
        mem = Memory(machine.line_size)
        prepared = wl.prepare(mem)
        interp = Interpreter(module, mem, machine=machine,
                             telemetry=True,
                             timeline=TimelineRecorder(window=2000))
        result = interp.run(wl.entry, prepared.args)
        windows = result.timeline["windows"]
        assert windows[0]["start_cycle"] == 0.0
        for prev, cur in zip(windows, windows[1:]):
            assert cur["start_cycle"] == prev["end_cycle"]
        assert windows[-1]["end_cycle"] == interp.core.cycles
        assert sum(w["instructions"] for w in windows) == \
            interp.core.instructions
        # With a collector attached, outcome bins are per-window and
        # sum to the aggregate counts.
        summed: dict = {}
        for w in windows:
            for outcome, n in (w["outcomes"] or {}).items():
                summed[outcome] = summed.get(outcome, 0) + n
        aggregate = result.telemetry["prefetch"]["outcomes"]
        for outcome, n in summed.items():
            assert aggregate[outcome] == n

    def test_sampling_interval_does_not_change_cycles(self):
        from repro.workloads import IntegerSort
        cycles = set()
        for sample_every in (500, 10_000):
            wl = IntegerSort(num_keys=2000, num_buckets=1 << 14)
            module = wl.build_variant("auto")
            mem = Memory(HASWELL.line_size)
            prepared = wl.prepare(mem)
            rec = TimelineRecorder(window=2000,
                                   sample_every=sample_every)
            interp = Interpreter(module, mem, machine=HASWELL,
                                 timeline=rec)
            interp.run(wl.entry, prepared.args)
            cycles.add(interp.core.cycles)
        assert len(cycles) == 1


# ---------------------------------------------------------------------
# Spans.
# ---------------------------------------------------------------------

class TestSpans:
    def test_no_recorder_is_a_noop(self):
        assert active_recorder() is None
        with span("bench", "x", a=1) as extra:
            extra["b"] = 2            # accepted, goes nowhere
        instant("bench", "y")         # no crash

    def test_span_records_with_merged_args(self):
        rec = SpanRecorder()
        with recording(rec):
            assert active_recorder() is rec
            with span("cache", "probe", key="abc") as s:
                s["hit"] = True
            instant("tracejit", "TraceCompiled", ops=7)
        assert active_recorder() is None
        (sp,) = rec.spans()
        assert sp["category"] == "cache"
        assert sp["name"] == "probe"
        assert sp["args"] == {"key": "abc", "hit": True}
        assert sp["dur_us"] >= 0
        (inst,) = [r for r in rec.records if r["type"] == "instant"]
        assert inst["name"] == "TraceCompiled"
        assert inst["args"] == {"ops": 7}

    def test_nested_spans_record_in_completion_order(self):
        rec = SpanRecorder()
        with recording(rec):
            with span("bench", "outer"):
                with span("bench", "inner"):
                    pass
        names = [r["name"] for r in rec.spans()]
        assert names == ["inner", "outer"]

    def test_gathered_coroutines_keep_their_own_sinks(self):
        """Each asyncio task sees only the recorder and the remark
        emitter its own context installed, across its awaits."""
        import asyncio

        from repro.remarks import RemarkEmitter, collecting, emit

        async def request(name):
            recorder, emitter = SpanRecorder(), RemarkEmitter()
            with recording(recorder), collecting(emitter):
                await asyncio.sleep(0)
                with span("serve", f"{name}.probe"):
                    emit("analysis", name, "PassExecuted")
                await asyncio.sleep(0)
                with span("serve", f"{name}.wait"):
                    await asyncio.sleep(0)
                    emit("analysis", name, "PassExecuted")
            return ([r["name"] for r in recorder.records],
                    [r.pass_name for r in emitter])

        async def both():
            return await asyncio.gather(request("a"), request("b"))

        (a_spans, a_remarks), (b_spans, b_remarks) = asyncio.run(both())
        assert a_spans == ["a.probe", "a.wait"]
        assert b_spans == ["b.probe", "b.wait"]
        assert a_remarks == ["a", "a"]
        assert b_remarks == ["b", "b"]
        assert active_recorder() is None

    def test_pass_manager_records_pass_spans(self):
        from repro.frontend import compile_source
        from repro.passes import DeadCodeEliminationPass, PassManager
        src = ("void f(long* restrict a, long n) {"
               " for (long i = 0; i < n; i++) a[i] = i; }")
        rec = SpanRecorder()
        with recording(rec):
            module = compile_source(src)
            pm = PassManager().add(DeadCodeEliminationPass())
            pm.run(module)
        assert [s["name"] for s in rec.spans("frontend")] \
            == ["compile_source"]
        (pass_span,) = rec.spans("pass")
        assert pass_span["name"] == DeadCodeEliminationPass().name
        assert pass_span["args"]["insts_before"] >= \
            pass_span["args"]["insts_after"]

    def test_run_variant_emits_bench_and_cache_spans(self, tmp_path):
        from repro.bench.cache import RunCache
        from repro.bench.runner import run_variant
        from repro.workloads import IntegerSort
        cache = RunCache(tmp_path / "cache")
        rec = SpanRecorder()
        with recording(rec):
            wl = IntegerSort(num_keys=500, num_buckets=1 << 10)
            run_variant(wl, "plain", HASWELL, cache=cache)
        names = [s["name"] for s in rec.spans("bench")]
        for expected in ("build", "prepare", "simulate", "validate",
                         "run_variant"):
            assert expected in names
        job = [s for s in rec.spans("bench")
               if s["name"] == "run_variant"][0]
        assert job["args"]["cached"] is False
        probe = [s for s in rec.spans("cache")
                 if s["name"] == "probe"][0]
        assert probe["args"]["hit"] is False
        assert [s["name"] for s in rec.spans("cache")].count("store") \
            == 1


# ---------------------------------------------------------------------
# Cache interaction.
# ---------------------------------------------------------------------

class TestTimelineCacheInteraction:
    def test_run_key_separates_timeline_on_off(self):
        from repro.bench.cache import run_key
        from repro.workloads import IntegerSort
        wl = IntegerSort(num_keys=500, num_buckets=1 << 10)
        base = run_key("ir", HASWELL, wl, True, SimOptions())
        on = SimOptions(timeline_window=2000)
        assert run_key("ir", HASWELL, wl, True, on) != base
        assert run_key("ir", HASWELL, wl, True,
                       SimOptions(timeline_window=None)) == base

    def test_window_is_part_of_the_key(self, tmp_path):
        """A cached run at one window must not answer another."""
        from repro.bench.cache import RunCache
        from repro.telemetry.report import timeline_rows
        from repro.workloads import IntegerSort
        cache = RunCache(tmp_path)
        for window in (5000, 20000):
            (row,) = timeline_rows(
                [IntegerSort(num_keys=2000, num_buckets=1 << 14)],
                HASWELL, window=window, cache=cache)
            assert row["timeline"]["window_cycles"] == window

    def test_timeline_snapshot_rides_the_disk_cache(self, tmp_path):
        from repro.bench.cache import RunCache
        from repro.bench.runner import run_variant
        from repro.workloads import IntegerSort

        def run(cache):
            wl = IntegerSort(num_keys=500, num_buckets=1 << 10)
            return run_variant(wl, "auto", HASWELL, cache=cache,
                               sim=SimOptions(timeline_window=2000))

        cache = RunCache(tmp_path / "cache")
        first = run(cache)
        assert cache.stores == 1
        second = run(RunCache(tmp_path / "cache"))  # cold memory layer
        assert second.timeline == first.timeline
        assert second.timeline["windows"]


# ---------------------------------------------------------------------
# Perfetto export + CLI.
# ---------------------------------------------------------------------

def run_cli(*argv):
    from repro.cli import main
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestPerfettoExport:
    def _rows(self):
        from repro.telemetry.report import timeline_rows
        from repro.workloads import IntegerSort
        wl = IntegerSort(num_keys=500, num_buckets=1 << 10)
        return timeline_rows([wl], HASWELL, window=2000, cache=False)

    def test_trace_structure(self):
        rec = SpanRecorder()
        with recording(rec):
            rows = self._rows()
        trace = build_trace(rows, rec, meta={"machine": "Haswell"})
        assert trace["otherData"]["schema"] == "repro-timeline-trace-v1"
        assert trace["otherData"]["machine"] == "Haswell"
        events = trace["traceEvents"]
        pids = {e["pid"] for e in events}
        assert pids == {SIM_PID, PIPELINE_PID}
        counters = [e for e in events if e["ph"] == "C"]
        assert counters and all(e["pid"] == SIM_PID for e in counters)
        metric_names = {e["name"] for e in counters}
        assert any("IPC" in n for n in metric_names)
        assert any("MPKI" in n for n in metric_names)
        pipeline_spans = [e for e in events if e["ph"] == "X"
                          and e["pid"] == PIPELINE_PID]
        assert pipeline_spans

    def test_canonical_json_zeroes_only_wall_clock(self):
        rec = SpanRecorder()
        with recording(rec):
            rows = self._rows()
        trace = build_trace(rows, rec)
        canon = json.loads(canonical_json(trace))
        for event in canon["traceEvents"]:
            if event["pid"] == PIPELINE_PID:
                assert event.get("ts", 0) == 0
                assert event.get("dur", 0) == 0
        sim_ts = [e["ts"] for e in canon["traceEvents"]
                  if e["pid"] == SIM_PID and "ts" in e]
        assert any(ts > 0 for ts in sim_ts)  # simulated time survives
        # Canonicalization must not mutate the input document.
        assert any(e.get("ts") for e in trace["traceEvents"]
                   if e["pid"] == PIPELINE_PID)

    def test_two_cli_runs_are_byte_identical_canonically(self,
                                                         tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, _ = run_cli("timeline", "is", "--small", "--window",
                              "5000", "--perfetto", str(path))
            assert code == 0
        traces = [json.loads(p.read_text()) for p in paths]
        assert canonical_json(traces[0]) == canonical_json(traces[1])


class TestTimelineCli:
    def test_phase_table_output(self):
        code, out = run_cli("timeline", "is", "--small", "--window",
                            "5000")
        assert code == 0
        for column in ("Win", "IPC", "L1 MPKI", "TLB", "MSHR",
                       "Timely", "Late"):
            assert column in out
        assert "IS on Haswell" in out

    def test_json_report_schema(self):
        code, out = run_cli("timeline", "ra", "--small", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == "repro-timeline-report-v1"
        (row,) = report["rows"]
        assert row["workload"] == "RA"
        assert row["timeline"]["schema"] == "repro-timeline-v1"

    def test_fig4_target_pins_machine(self):
        code, out = run_cli("timeline", "fig4c", "--small", "--window",
                            "20000")
        assert code == 0
        assert "on A53" in out

    def test_invalid_window_exits_2(self, capsys):
        code, _ = run_cli("timeline", "is", "--window", "-5")
        assert code == 2
        assert "--window must be positive" in capsys.readouterr().err
