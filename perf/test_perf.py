"""Tests of the benchmark itself: ``python -m pytest perf -q``.

They use the ``--smoke`` sizes and finish well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workload  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT) -> tuple[int, str]:
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--seed", "3", "--smoke",
         "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _grid(seed: int) -> str:
    """Canonical text of the seeded spec list, workload state included."""
    from repro.bench.cache import canonical_token
    return json.dumps([(r.label, canonical_token(r.spec))
                       for r in inputs.figs_grid(seed)])


def _mix(seed: int) -> inputs.ServeMix:
    return inputs.serve_mix(seed, 3000)


# -- seeded inputs -------------------------------------------------------------


def test_same_seed_gives_identical_inputs():
    assert _grid(5) == _grid(5)
    assert inputs.compile_corpus(5, 300) == inputs.compile_corpus(5, 300)
    assert _mix(5) == _mix(5)


def test_other_seed_gives_other_inputs():
    assert _grid(5) != _grid(6)
    assert inputs.compile_corpus(5, 300) != inputs.compile_corpus(6, 300)
    assert _mix(5) != _mix(6)


def test_blocks_are_balanced_across_seeds():
    def shape(seed):
        corpus = inputs.compile_corpus(seed, 400)
        return (sorted((k.family, k.loops) for k in corpus),
                sum(" restrict" in k.source for k in corpus),
                sum(k.error is not None for k in corpus))

    assert shape(1) == shape(2)
    assert shape(1)[1:] == (320, 20)
    mix = inputs.serve_mix(1, 2500)
    fresh = [mix.schedule.index(j) for j in range(len(mix.jobs))]
    assert fresh == list(range(0, 2500, 25))
    # Each serve block introduces every simulation pair once.
    per_block = inputs.SERVE_BLOCK // inputs.FRESH_EVERY
    pairs = sorted((w, m) for w in inputs.SERVE_WORKLOADS
                   for m in inputs.SERVE_MACHINES)
    for block in range(3):
        jobs = mix.jobs[block * per_block:(block + 1) * per_block]
        assert sorted((j["workload"], j["machine"]) for j in jobs
                      if j["kind"] == "simulate") == pairs


def test_grid_samples_every_system_and_option_axis():
    cells = inputs._grid_cells()
    for seed in (1, 2):
        runs = inputs.figs_grid(seed)
        assert {r.figure for r in runs} == {
            "fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig10"}
        assert {r.spec.machine.name for r in runs} == {
            "Haswell", "A57", "A53", "Xeon Phi"}
        # Every cell is sampled, its plain run first.
        assert sorted({r.cell for r in runs}) == list(range(len(cells)))
        firsts = [r for i, r in enumerate(runs)
                  if i == 0 or runs[i - 1].cell != r.cell]
        assert all(r.option == "plain" for r in firsts)
    # The seed picks the options.
    assert len({tuple(r.option for r in inputs.figs_grid(seed))
                for seed in range(1, 6)}) > 1


# -- statistics and the comparison rule --------------------------------------


def test_supported_percentile_needs_ten_samples_beyond():
    assert run.supported_percentile(1000) == 99.0
    assert run.supported_percentile(999) == 95.0
    assert run.supported_percentile(98) == 75.0
    assert run.supported_percentile(5) == 0.0


@pytest.mark.parametrize("change, expected", [
    ([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0],
     "unchanged"),
    ([8.0, 8.1, 7.9, 8.0, 8.2, 7.8, 8.0, 8.1, 7.9, 8.0], "improved"),
    ([12.0, 12.1, 11.9, 12.0, 12.2, 11.8, 12.0, 12.1, 11.9, 12.0],
     "regressed"),
    ([5.0, 15.0, 5.0, 15.0, 10.0, 5.0, 15.0, 5.0, 15.0, 10.0],
     "unresolved"),
])
def test_verdicts(change, expected):
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(parent, change, "lower", 0.1)["verdict"] == \
        expected


def test_wide_spread_still_resolves_when_every_run_wins():
    parent = [10.0, 14.0] * 5
    change = [5.0, 6.0] * 5
    assert compare.verdict(parent, change, "lower", 0.05)["verdict"] == \
        "improved"


def test_regression_is_reported_even_when_spread_is_wide():
    parent = [10.0, 14.0] * 5
    change = [20.0, 28.0] * 5
    assert compare.verdict(parent, change, "lower", 0.1)["verdict"] == \
        "regressed"


def test_improvement_needs_ten_pairs():
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9]
    change = [8.0, 8.1, 7.9, 8.0, 8.2, 7.8, 8.0, 8.1, 7.9]
    assert compare.verdict(parent, change, "lower", 0.1)["verdict"] == \
        "unresolved"


def _result(name, seed, value, digest="d"):
    return {"workload": name, "seed": seed, "trace": 0,
            "summary": {"sim_digest": digest},
            "metrics": {"ops_per_s": {"value": value, "unit": "1/s"}}}


def test_runs_pair_by_seed_and_order():
    parent = [_result("w", 1, 10.0), _result("w", 2, 20.0),
              _result("w", 1, 11.0)]
    change = [_result("w", 2, 21.0), _result("w", 1, 12.0)]
    pairs, alone = compare.pair_runs(parent, change)
    assert [(p["metrics"]["ops_per_s"]["value"],
             c["metrics"]["ops_per_s"]["value"]) for p, c in pairs] == \
        [(10.0, 12.0), (20.0, 21.0)]
    assert alone == [("parent", "w", 1, 1)]


def test_changed_modelled_result_fails_the_comparison(tmp_path):
    for side, digest in (("parent", "a"), ("change", "b")):
        (tmp_path / side).mkdir()
        runs = [_result("w", seed, 10.0, digest if seed == 3 else "a")
                for seed in range(1, 11)]
        (tmp_path / side / "r.json").write_text(json.dumps({"runs": runs}))
    assert compare.main([str(tmp_path / "parent"),
                         str(tmp_path / "change")]) == 1
    assert compare.exact_mismatches(
        {"parent": [_result("w", 3, 1.0, "a")],
         "change": [_result("w", 3, 1.0, "b")]}) == [
        "w seed 3: sim_digest b (change) != a (parent)"]


def test_self_check_needs_agreement_within_the_bound_either_way():
    parent = [10.0, 10.1, 9.9, 10.0, 10.2]
    rows = []
    for metric, change in (("ops_per_s", [11.0, 11.1, 10.9, 11.0, 11.2]),
                           ("op_p50_ms", [13.0, 13.1, 12.9, 13.0, 13.2]),
                           ("setup_s", [5.0, 15.0, 5.0, 15.0, 10.0])):
        row = compare.verdict(parent, change, "lower", 0.2)
        row.update(workload="w", metric=metric, bound=0.2)
        rows.append(row)
    # 10% apart agrees (it reads "regressed" only beyond the bound);
    # 30% apart does not; nor does a spread beyond the bound, set-up
    # time's included.
    assert [p.split(":")[0] for p in compare.disagreements(rows)] == \
        ["w op_p50_ms", "w setup_s"]


# -- the catalogue ---------------------------------------------------------------


def test_catalogue_matches_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_untraced_run_prints_every_end_to_end_metric():
    code, stdout = _run("--workload", "compile", "--trace", "0")
    assert code == 0, stdout
    result = _last_json(stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_serve_run_prints_every_per_layer_metric():
    code, stdout = _run("--workload", "serve", "--trace", "1")
    assert code == 0, stdout
    metrics = _last_json(stdout)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == run.PER_LAYER
    assert metrics["serve.calls"]["value"] > 0
    assert metrics["serve.cas_hit_ratio"]["value"] > 0.5


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "compile",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# -- workloads and tracing -----------------------------------------------------------


def test_latency_is_the_median_run_on_the_nominal_host():
    nominal = hostspeed.NOMINAL_S
    half_speed = hostspeed.corrected(2.0, 2 * nominal)
    assert 1.0 < half_speed < 2.0
    phase = workload.Phase()
    phase.record("a", 9.0, nominal)
    phase.record("a", 2.0, 2 * nominal)
    phase.record("a", 0.5, nominal)
    phase.record("b", 0.5, nominal)
    assert phase.latencies() == {"a": half_speed, "b": 0.5}


def test_reference_averages_the_samples_in_and_around_an_interval(
        monkeypatch):
    monkeypatch.setattr(hostspeed, "_times", [0.0, 1.0, 2.0, 3.0, 4.0])
    monkeypatch.setattr(hostspeed, "_loops", [1.0, 2.0, 3.0, 4.0, 5.0])
    assert hostspeed.reference(1.5, 2.5) == 3.0    # 2.0 and 3.0 ... 4.0
    assert hostspeed.reference(2.2, 2.4) == 3.5    # none inside
    assert hostspeed.reference(4.5, 5.0) == 5.0    # none after


def test_sampling_runs_inside_an_operation_and_leaves_its_clock():
    before = len(hostspeed._loops)
    with hostspeed.sampling():
        start, spent = hostspeed.clock(), hostspeed.spent_s()
        deadline = time.thread_time() + 0.1
        while time.thread_time() < deadline:
            pass
        end = hostspeed.clock()
    assert len(hostspeed._loops) - before >= 5
    assert hostspeed.spent_s() > spent
    # The samples' own time is not the operation's.
    assert end - start < 0.1


def test_beside_samples_while_the_block_waits():
    with hostspeed.beside() as seen:
        time.sleep(0.1)
    assert len(seen["loops"]) >= 3
    assert 0 < seen["spent_s"] < 0.1


def test_wrong_output_is_counted_not_raised(tmp_path):
    load = workload.Compile(1, True, str(tmp_path))
    load.prepare()
    valid = next(k for k in load.corpus if k.error is None)
    load.corpus = [valid, inputs.Kernel(valid.source, valid.family,
                                        valid.loops, "LexError")]
    phase = load.measure(work=2)
    assert phase.attempted == 2
    assert phase.failures == [
        f"kernel 1 ({valid.family}, {valid.loops} loops): "
        f"expected LexError, compiled"]


def test_traced_spans_cover_every_layer_and_nest(tmp_path):
    figs = workload.Figs(1, True, str(tmp_path), warm=False)
    figs.prepare()
    kernels = workload.Compile(1, True, str(tmp_path))
    kernels.prepare()
    tracer = tr.Tracer()
    with tracer.installed():
        untraced, traced = figs.measure_paired(0.0, tracer)
        kernels.measure_paired(0.5, tracer)
        with tracer.span("harness", "requests"):
            start = time.perf_counter()
            tracer.add("serve", "simulate", start, time.perf_counter(),
                       track=1)
    assert untraced.runs.keys() == traced.runs.keys()
    assert not untraced.failures and not traced.failures
    spans = tracer.spans
    # Only the traced lane records: Interpreter.__init__ and .run once
    # per traced spec.
    assert sum(s.layer == "machine" for s in spans) == 2 * len(traced.runs)
    for span in spans:
        assert span.end >= span.start
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
    table = tr.layer_table(spans)
    for layer in tr.LAYERS:
        assert table[layer]["calls"] > 0, layer
        assert table[layer]["self_s"] >= 0
    total = sum(table[layer]["self_s"] for layer in tr.LAYERS)
    assert total == pytest.approx(table["wall_s"], rel=1e-6)
    assert tracer.counts["passes.prefetches_inserted"] > 0
    assert tracer.counts["frontend.rejected"] > 0
    # Uninstalled: the originals are back.
    from repro.bench import runner
    assert not hasattr(runner.run_specs, "__wrapped__")


def test_self_time_subtracts_overlapping_children():
    spans = [tr.Span("harness", "root", 0.0, 10.0, None),
             tr.Span("serve", "a", 1.0, 4.0, 0, 1),
             tr.Span("serve", "b", 3.0, 6.0, 0, 2)]
    table = tr.layer_table(spans)
    assert table["serve"]["self_s"] == pytest.approx(5.0)
    assert table["harness"]["self_s"] == pytest.approx(5.0)
    assert table["serve"]["calls"] == 2
