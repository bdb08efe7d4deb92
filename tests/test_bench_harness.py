"""Tests for the experiment harness: runner, reporting, small figures."""

import pytest

from repro.bench import (fig2_prefetch_schemes, format_series,
                         format_table, geometric_mean, manual_knobs_for,
                         run_variant, table1_rows)
from repro.machine import A53, HASWELL
from repro.workloads import Graph500, IntegerSort, RandomAccess, hj2


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(["Name", "Value"],
                            [["alpha", 1.2345], ["b", 2]])
        lines = text.splitlines()
        assert lines[0].startswith("Name")
        assert "1.23" in text  # floats rendered to 2 decimals
        # Columns align: separators in the same position on all rows.
        assert len({line.index("|") for line in lines
                    if "|" in line}) == 1

    def test_format_table_title(self):
        text = format_table(["x"], [[1]], "My Title")
        assert text.startswith("My Title\n========")

    def test_format_series(self):
        text = format_series("T", "c", [1, 2],
                             {"A": {1: 0.5, 2: 1.5},
                              "B": {1: 2.0}})
        assert "0.50" in text and "1.50" in text and "2.00" in text
        lines = text.splitlines()
        assert lines[2].split("|")[0].strip() == "c"


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_single_element(self):
        assert geometric_mean([3.0]) == 3.0

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


class TestRunner:
    def test_run_variant_validates_and_counts(self):
        workload = IntegerSort(num_keys=800, num_buckets=1 << 12)
        result = run_variant(workload, "auto", HASWELL)
        assert result.workload == "IS"
        assert result.machine == "Haswell"
        assert result.cycles > 0
        assert result.prefetches == 2 * 800
        assert result.iterations == 800
        assert result.cycles_per_iteration == pytest.approx(
            result.cycles / 800)

    def test_manual_knobs_for_graph500(self):
        g = Graph500(scale=5, edge_factor=4)
        assert manual_knobs_for(g, HASWELL) == \
            {"inner_parent_prefetch": False}
        assert manual_knobs_for(g, A53) == \
            {"inner_parent_prefetch": True}
        assert manual_knobs_for(IntegerSort(), HASWELL) == {}

    def test_table1_rows_complete(self):
        rows = table1_rows()
        assert len(rows) == 4
        assert all("Caches" in r for r in rows)


class TestRunSpecsObservations:
    """Forked ``run_specs`` workers hand back what their runs observed:
    at ``jobs=2`` every sink the caller installed reads as the serial
    loop leaves it, even with two instances' specs interleaved."""

    @staticmethod
    def observe(jobs):
        from repro.bench.runner import (TELEMETRY, RunSpec, TraceRows,
                                        run_specs)
        from repro.obs.sinks import SpanRecorder, collecting
        from repro.remarks import (RemarkEmitter, canonical_stream,
                                   dumps_stream)
        keys = IntegerSort(num_keys=800, num_buckets=1 << 12)
        table = RandomAccess(nblocks=15, table_size=1 << 12)
        specs = [RunSpec(wl, variant, HASWELL)
                 for variant in ("plain", "auto") for wl in (keys, table)]
        before = dict(TELEMETRY)
        recorder, emitter, rows = SpanRecorder(), RemarkEmitter(), TraceRows()
        with collecting(recorder, emitter, rows):
            results = run_specs(specs, jobs=jobs, cache=False)
        return {
            "results": results,
            # PassExecuted's wall_us zeroed.
            "remarks": canonical_stream(dumps_stream(emitter.records)),
            "rows": rows.records,
            "telemetry": {k: TELEMETRY[k] - n for k, n in before.items()},
            # Everything but the wall-clock timestamps.
            "spans": [(r["type"], r["category"], r["name"], r["args"])
                      for r in recorder.records],
        }

    def test_jobs_2_observes_what_jobs_1_does(self):
        serial, forked = self.observe(1), self.observe(2)
        assert serial["telemetry"] == {
            "simulated_runs": 4, "cached_runs": 0,
            "simulated_instructions": sum(
                r.instructions for r in serial["results"])}
        assert serial["rows"] and serial["remarks"].count("\n") > 4
        assert [s[2] for s in serial["spans"]].count("run_variant") == 4
        for sink in serial:
            assert forked[sink] == serial[sink], sink

    def test_jobs_2_leaves_instance_rngs_where_jobs_1_does(self):
        """Forked groups hand back their instance's RNG state, so a
        later run on the instance draws the inputs it would after a
        serial loop."""
        from repro.bench.runner import RunSpec, run_specs

        def later(jobs):
            keys = IntegerSort(num_keys=800, num_buckets=1 << 12)
            table = RandomAccess(nblocks=4, table_size=1 << 12)
            run_specs([RunSpec(keys, "plain", HASWELL),
                       RunSpec(table, "plain", HASWELL)],
                      jobs=jobs, cache=False)
            return (run_variant(keys, "plain", HASWELL,
                                cache=False).cycles,
                    table.rng.bit_generator.state)

        assert later(2) == later(1)


class TestDeterminism:
    def test_identical_runs_identical_cycles(self):
        def once():
            return run_variant(
                IntegerSort(num_keys=500, num_buckets=1 << 12),
                "auto", HASWELL).cycles
        assert once() == once()

    def test_variants_share_inputs(self):
        # plain and auto see the same generated keys (same workload
        # seed), so the comparison is apples-to-apples.
        wl_a = IntegerSort(num_keys=500, num_buckets=1 << 12, seed=9)
        wl_b = IntegerSort(num_keys=500, num_buckets=1 << 12, seed=9)
        a = run_variant(wl_a, "plain", HASWELL)
        b = run_variant(wl_b, "plain", HASWELL)
        assert a.cycles == b.cycles
