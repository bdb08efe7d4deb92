"""Tests for the ``python -m repro`` command-line driver."""

import io

import pytest

from repro.cli import main
from repro.ir import parse_module, verify_module

SOURCE = """
void histogram(long* restrict keys, long* restrict buckets, long n) {
    for (long i = 0; i < n; i++)
        buckets[keys[i]] += 1;
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "kernel.c"
    path.write_text(SOURCE)
    return str(path)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestCompileCommand:
    def test_plain_compile_prints_ir(self, source_file):
        code, out = run_cli("compile", source_file)
        assert code == 0
        assert "func @histogram" in out
        assert "prefetch" not in out

    def test_prefetch_flag_inserts_prefetches(self, source_file):
        code, out = run_cli("compile", source_file, "--prefetch")
        assert code == 0
        assert "prefetched %cur" in out
        assert out.count("prefetch i64*") == 2

    def test_lookahead_flag(self, source_file):
        code, out = run_cli("compile", source_file, "--prefetch",
                            "--lookahead", "128")
        assert code == 0
        assert "%i, 128" in out
        assert "%i, 64" in out  # 128/2 for the indirect prefetch

    def test_no_stride_flag(self, source_file):
        code, out = run_cli("compile", source_file, "--prefetch",
                            "--no-stride")
        assert out.count("prefetch i64*") == 1

    def test_emitted_ir_reparses(self, source_file, tmp_path):
        target = tmp_path / "out.ir"
        code, out = run_cli("compile", source_file, "--prefetch", "-O",
                            "--emit-ir", str(target))
        assert code == 0
        module = parse_module(target.read_text())
        verify_module(module)

    def test_optimize_pipeline_runs(self, source_file):
        code, out = run_cli("compile", source_file, "--prefetch", "-O")
        assert code == 0
        # LICM hoisted the clamp bound out of the loop body.
        ir = out[out.index("func @"):]
        entry_block = ir.split("for.cond:")[0]
        assert "pf.bound" in entry_block

    def test_missing_file_error(self, tmp_path):
        code, _ = run_cli("compile", str(tmp_path / "nope.c"))
        assert code == 1

    def test_syntax_error_reported(self, tmp_path):
        bad = tmp_path / "bad.c"
        bad.write_text("void f( {")
        code, _ = run_cli("compile", str(bad))
        assert code == 1

    @pytest.mark.usefixtures("broken_prefetch_pass")
    def test_compiler_bug_labelled_internal(self, source_file, capsys):
        code, _ = run_cli("compile", source_file, "--prefetch")
        assert code == 1
        assert "internal error: RuntimeError: injected pass failure" in \
            capsys.readouterr().err


class TestSystemsCommand:
    def test_lists_all_machines(self):
        code, out = run_cli("systems")
        assert code == 0
        for name in ("Haswell", "A57", "A53", "Xeon Phi"):
            assert name in out


class TestVersionFlag:
    def test_version_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert out.split()[1][0].isdigit()


class TestBenchErrors:
    def test_unknown_figure_exits_2_with_message(self, capsys):
        code, out = run_cli("bench", "fig99")
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert "unknown bench target 'fig99'" in err
        assert "fig4a" in err  # lists the available figures


class TestUniformUnknownTargets:
    """bench/stats/explain/timeline share one unknown-target message
    shape (``error: unknown <cmd> target '<t>'; expected ...``) and
    exit code 2."""

    @pytest.mark.parametrize("command",
                             ("stats", "explain", "timeline"))
    def test_workload_commands_share_stats_message(self, command,
                                                   capsys):
        code, out = run_cli(command, "nonesuch")
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert f"unknown {command} target 'nonesuch'" in err
        assert ("expected a workload name (is, cg, ra, hj2, hj8, "
                "g500-s16, g500-s21), 'quick', or fig4a-fig4d") in err

    def test_bench_message_has_the_same_shape(self, capsys):
        code, _ = run_cli("bench", "nonesuch")
        assert code == 2
        err = capsys.readouterr().err
        assert "error: unknown bench target 'nonesuch'; expected " \
            in err

    @pytest.mark.parametrize("command", ("explain", "timeline"))
    def test_unknown_machine_exits_2(self, command, capsys):
        code, _ = run_cli(command, "is", "--machine", "Pentium")
        assert code == 2
        assert "unknown machine" in capsys.readouterr().err


class TestBadRunFlags:
    """A bad ``--lookahead``, ``--variant`` or ``--jobs`` is a usage
    error: argparse exits 2 with one error line, before anything
    compiles or runs."""

    @staticmethod
    def assert_usage_error(argv, flag, capsys, entry=main):
        with pytest.raises(SystemExit) as exc:
            entry(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = [line for line in err.splitlines() if "error:" in line]
        assert f"error: argument {flag}: " in line

    @pytest.mark.parametrize("value", ("0", "-5"))
    def test_compile_lookahead(self, value, source_file, capsys):
        self.assert_usage_error(
            ["compile", source_file, "--prefetch", "--lookahead", value],
            "--lookahead", capsys)

    @pytest.mark.parametrize("command,flag,value", [
        (command, flag, value)
        for command in ("stats", "explain", "timeline", "submit")
        for flag, value in (("--lookahead", "0"), ("--lookahead", "-5"),
                            ("--variant", "nope"))] + [
        (command, "--jobs", value)
        for command in ("bench", "stats", "explain")
        for value in ("0", "-3")])
    def test_run_commands(self, command, flag, value, capsys):
        self.assert_usage_error([command, "is", "--small", flag, value],
                                flag, capsys)

    @pytest.mark.parametrize("value", ("0", "-3"))
    def test_telemetry_report_jobs(self, value, monkeypatch, tmp_path,
                                   capsys):
        """``tools/telemetry_report.py`` takes the CLI's ``--jobs``."""
        import importlib.util
        from pathlib import Path

        from repro.bench import runner

        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(runner, "run_variant", no_run)
        path = (Path(__file__).resolve().parent.parent / "tools"
                / "telemetry_report.py")
        spec = importlib.util.spec_from_file_location("telemetry_report",
                                                      path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        self.assert_usage_error(
            ["--quick", "--jobs", value, "--output-dir", str(tmp_path)],
            "--jobs", capsys, entry=tool.main)
        assert not any(tmp_path.iterdir())


class TestBenchHotReport:
    def test_hot_report_prints_traces_and_remarks(self):
        code, out = run_cli("bench", "fig2", "--small", "--hot-report",
                            "--hot-top", "5")
        assert code == 0
        assert "Fig. 2: IS prefetching schemes" in out
        assert "Hottest traces" in out
        # The trace table carries per-trace provenance columns…
        for column in ("workload", "function", "iterations",
                       "% sim"):
            assert column in out
        # …under a title with the traced share, then the deopt counts
        # and the remark stream.
        assert "% on traces)" in out
        assert "TraceDeopt by stage/reason: " in out
        assert "Trace-JIT remarks (repro-remarks-v1):" in out
        assert "TraceCompiled" in out

    def test_hot_report_counts_coverage_and_deopts(self):
        """fig4c (every quick workload on A53, BFS included) runs
        nearly all of its instructions on traces, and no trace is
        discarded."""
        import re
        code, out = run_cli("bench", "fig4c", "--small", "--hot-report")
        assert code == 0
        share = re.search(r"instructions, ([0-9.]+)% on traces\)", out)
        assert share and float(share.group(1)) >= 97.0
        (deopts,) = re.findall(r"TraceDeopt by stage/reason: (.*)", out)
        assert "low-yield" not in deopts

    def test_hot_report_rows_name_their_run(self):
        """fig2 runs one IS instance five times, four of them manual
        schemes that differ only in ``c`` or ``include_stride``: each
        trace row names its run's look-ahead and knobs, so no two rows
        read the same."""
        code, out = run_cli("bench", "fig2", "--small", "--no-cache",
                            "--hot-report", "--jobs", "1",
                            "--hot-top", "100")
        assert code == 0
        lines = out.splitlines()
        start = next(i for i, line in enumerate(lines)
                     if line.startswith("Hottest traces")) + 4
        rows = lines[start:lines.index("", start)]
        assert len(rows) >= 5
        assert len(set(rows)) == len(rows), rows
        assert any("| include_stride=False |" in row for row in rows)

    def test_hot_report_same_at_jobs_2(self):
        """Forked workers hand back their trace rows, remarks and
        instruction counts: the report reads the same at any
        ``--jobs``."""
        serial = run_cli("bench", "fig5", "--small", "--hot-report",
                         "--jobs", "1")
        forked = run_cli("bench", "fig5", "--small", "--hot-report",
                         "--jobs", "2")
        assert serial[0] == 0 and "top 10 of" in serial[1]
        assert forked == serial

    def test_trace_rows_kept_only_while_collecting(self):
        """Runs outside a ``TraceRows`` sink (every run but a hot
        report's) keep no trace rows, so long-lived processes do not
        accumulate them."""
        from repro.bench import runner
        from repro.machine import HASWELL
        from repro.obs.sinks import active, collecting
        from repro.workloads import IntegerSort
        with collecting(runner.TraceRows()) as rows:
            runner.run_variant(IntegerSort(num_keys=2000,
                                           num_buckets=1 << 14),
                               "auto", HASWELL, cache=False)
        assert rows.records
        assert rows.records[0]["workload"] == "IS"
        assert active(runner.TraceRows) is None


class TestBenchPrintsTheArchive:
    """``repro bench`` and ``repro systems`` print each table in the
    layout its ``benchmarks/results/`` file holds: the same text for
    Table 1, and the same titles and columns at ``--small``."""

    @staticmethod
    def archived(name):
        from pathlib import Path

        from repro.bench.figures import FIGURES
        return (Path(__file__).resolve().parent.parent / "benchmarks"
                / "results" / FIGURES[name].archive).read_text()

    def test_table1_text(self):
        for argv in (("systems",), ("bench", "table1")):
            code, out = run_cli(*argv)
            assert code == 0
            assert out == self.archived("table1") + "\n"

    @pytest.mark.parametrize("name", ("fig2", "fig9"))
    def test_titles_and_columns(self, name):
        from repro.bench.reporting import headings
        code, out = run_cli("bench", name, "--small", "--no-cache")
        assert code == 0
        assert headings(out) == headings(self.archived(name))


class TestBenchObsOut:
    """``repro bench --obs-out`` writes one invocation's run counter
    and stage histograms in the Prometheus text format."""

    RUNS_HEADER = (
        "# HELP repro_bench_runs_total Bench variant runs by workload, "
        "variant, machine, and whether the disk cache answered.\n"
        "# TYPE repro_bench_runs_total counter\n")
    STAGES_HEADER = (
        "# HELP repro_bench_stage_seconds Wall time per bench pipeline "
        "stage (build, prepare, simulate, validate).\n"
        "# TYPE repro_bench_stage_seconds histogram\n")

    @staticmethod
    def _bench(*argv):
        """``repro bench`` in a fresh process, so an ``--obs-out`` file
        holds that invocation's runs and nothing an earlier test ran;
        returns its stdout."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(__file__).resolve().parent.parent / "src"),
            env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from repro.cli import main; "
             "sys.exit(main(sys.argv[1:]))",
             "bench", *argv],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def _samples(self, path):
        """The exposition's run-counter samples, as ``(labels,
        value)``, and its stage-histogram counts by stage."""
        import re

        text = path.read_text()
        assert self.RUNS_HEADER in text
        assert self.STAGES_HEADER in text
        sample = re.compile(r"^(\w+)\{([^}]*)\} (\S+)$")
        runs, counts = [], {}
        for line in text.splitlines():
            match = sample.match(line)
            if match is None:
                continue
            name, labels, value = match.groups()
            labels = dict(re.findall(r'(\w+)="([^"]*)"', labels))
            if name == "repro_bench_runs_total":
                runs.append((labels, float(value)))
            elif name == "repro_bench_stage_seconds_count":
                counts[labels["stage"]] = float(value)
        return runs, counts

    def test_fig2_runs_and_stage_counts(self, tmp_path):
        path = tmp_path / "bench.prom"
        self._bench("fig2", "--small", "--no-cache", "--jobs", "1",
                    "--obs-out", str(path))
        runs, counts = self._samples(path)
        assert sum(value for _, value in runs) == 5
        assert all(set(labels) == {"cached", "machine", "variant",
                                   "workload"} for labels, _ in runs)
        assert counts == {"build": 5, "prepare": 5, "simulate": 5,
                          "validate": 5}

    def test_warm_fig2_rerun_does_no_input_work(self, tmp_path):
        """Run twice into one cache directory, the second invocation
        prints the same table with every run a hit that only builds:
        no ``prepare``, ``simulate`` or ``validate`` stage."""
        store, path = str(tmp_path / "cache"), tmp_path / "warm.prom"
        cold = self._bench("fig2", "--small", "--jobs", "1",
                           "--cache-dir", store)
        warm = self._bench("fig2", "--small", "--jobs", "1",
                           "--cache-dir", store, "--obs-out", str(path))
        assert warm == cold
        runs, counts = self._samples(path)
        assert sum(value for _, value in runs) == 5
        assert {labels["cached"] for labels, _ in runs} == {"true"}
        assert counts == {"build": 5}

    def test_fig5_samples_same_at_jobs_2(self, tmp_path):
        """fig5 runs seven workload instances through ``run_specs``,
        which forks at ``--jobs 2``; the workers hand their spans back,
        so both expositions hold the same samples."""
        seen = []
        for jobs in ("1", "2"):
            path = tmp_path / f"fig5-{jobs}.prom"
            table = self._bench("fig5", "--small", "--no-cache", "--jobs",
                                jobs, "--obs-out", str(path))
            seen.append((table, *self._samples(path)))
        assert seen[1] == seen[0]
        _, runs, counts = seen[0]
        assert sum(value for _, value in runs) == 21
        assert counts == {"build": 21, "prepare": 21, "simulate": 21,
                          "validate": 21}

    def test_warm_fig5_rerun_at_jobs_2(self, tmp_path):
        """The warm re-run's hits, made in forked workers, reach the
        exposition as only ``cached="true"`` build work."""
        store, path = str(tmp_path / "cache"), tmp_path / "warm.prom"
        cold = self._bench("fig5", "--small", "--jobs", "2",
                           "--cache-dir", store)
        warm = self._bench("fig5", "--small", "--jobs", "2",
                           "--cache-dir", store, "--obs-out", str(path))
        assert warm == cold
        runs, counts = self._samples(path)
        assert sum(value for _, value in runs) == 21
        assert {labels["cached"] for labels, _ in runs} == {"true"}
        assert counts == {"build": 21}

    def test_hot_report_writes_obs_out(self, tmp_path):
        """``--hot-report`` with ``--obs-out`` prints the report and
        writes the exposition of its uncached runs."""
        path = tmp_path / "hot.prom"
        out = self._bench("fig2", "--small", "--hot-report", "--obs-out",
                          str(path))
        assert "Hottest traces" in out
        runs, counts = self._samples(path)
        assert sum(value for _, value in runs) == 5
        assert {labels["cached"] for labels, _ in runs} == {"false"}
        assert counts == {"build": 5, "prepare": 5, "simulate": 5,
                          "validate": 5}


class TestBenchOptionScope:
    """Cache flags and environment options belong to one invocation:
    they reach its runs and nothing else."""

    def test_cache_flags_do_not_outlive_their_run(self, tmp_path,
                                                  monkeypatch):
        import os
        for name in ("REPRO_SIM_CACHE", "REPRO_SIM_CACHE_DIR"):
            monkeypatch.delenv(name, raising=False)
        before = dict(os.environ)
        for argv in (("fig8", "--no-cache"), ("fig2", "--hot-report"),
                     ("fig8", "--cache-dir", str(tmp_path))):
            code, _ = run_cli("bench", argv[0], "--small", *argv[1:])
            assert code == 0
            assert dict(os.environ) == before
        assert list(tmp_path.rglob("*.json"))

    def test_telemetry_env_adds_fig4_columns(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_TELEMETRY", "1")
        code, out = run_cli("bench", "fig4a", "--small", "--no-cache")
        assert code == 0
        assert "Pf issued (auto)" in out

    def test_reference_engine_env_compiles_no_traces(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_FASTPATH", "0")
        code, out = run_cli("bench", "fig2", "--small", "--hot-report")
        assert code == 0
        assert "top 0 of 0" in out


class TestStatsCommand:
    def test_unknown_target_exits_2(self, capsys):
        code, _ = run_cli("stats", "nonesuch")
        assert code == 2
        assert "unknown stats target" in capsys.readouterr().err

    def test_unknown_machine_exits_2(self, capsys):
        code, _ = run_cli("stats", "is", "--machine", "Pentium")
        assert code == 2
        assert "unknown machine" in capsys.readouterr().err

    def test_single_workload_table(self):
        code, out = run_cli("stats", "hj2", "--small", "--jobs", "1",
                            "--machine", "A53")
        assert code == 0
        assert "HJ-2" in out and "A53" in out
        for column in ("Timely", "Late", "Early", "Redundant",
                       "Dropped", "Unused", "Accuracy", "Stall"):
            assert column in out

    def test_json_output_parses(self):
        import json
        code, out = run_cli("stats", "ra", "--small", "--jobs", "1",
                            "--json")
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == "repro-telemetry-report-v1"
        (row,) = report["rows"]
        assert row["workload"] == "RA"
        assert row["machine"] == "Haswell"
        assert set(row["outcomes"]) == {"timely", "late", "early",
                                        "redundant", "dropped",
                                        "unused"}
        assert row["issued"] == sum(row["outcomes"].values())
