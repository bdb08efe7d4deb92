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


class TestBenchHotReport:
    def test_hot_report_prints_traces_and_remarks(self):
        code, out = run_cli("bench", "fig2", "--small", "--hot-report",
                            "--hot-top", "5")
        assert code == 0
        assert "Fig. 2: prefetch schemes" in out
        assert "Hottest traces" in out
        # The trace table carries per-trace provenance columns…
        for column in ("workload", "function", "iterations",
                       "% sim"):
            assert column in out
        # …and the remark stream section follows.
        assert "Trace-JIT remarks (repro-remarks-v1):" in out
        assert "TraceCompiled" in out

    def test_trace_rows_kept_only_while_collecting(self):
        """Runs outside ``collecting_traces`` (every run but a hot
        report's) keep no trace rows, so long-lived processes do not
        accumulate them."""
        from repro.bench import runner
        from repro.machine import HASWELL
        from repro.workloads import IntegerSort
        with runner.collecting_traces() as rows:
            runner.run_variant(IntegerSort(num_keys=2000,
                                           num_buckets=1 << 14),
                               "auto", HASWELL, cache=False)
        assert rows
        assert rows[0]["workload"] == "IS"
        assert runner._TRACE_ROWS.get() is None


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

    def test_fig2_runs_and_stage_counts(self, tmp_path):
        import os
        import re
        import subprocess
        import sys
        from pathlib import Path

        # A fresh process, so the file holds this invocation's runs
        # and nothing an earlier test ran.
        path = tmp_path / "bench.prom"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(__file__).resolve().parent.parent / "src"),
            env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from repro.cli import main; "
             "sys.exit(main(sys.argv[1:]))",
             "bench", "fig2", "--small", "--no-cache", "--jobs", "1",
             "--obs-out", str(path)],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
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
        assert sum(value for _, value in runs) == 5
        assert all(set(labels) == {"cached", "machine", "variant",
                                   "workload"} for labels, _ in runs)
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
