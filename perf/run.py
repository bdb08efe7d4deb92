#!/usr/bin/env python3
"""The repository's benchmark: four seeded workloads, end to end and per layer.

    python3 perf/run.py --workload {figs-cold|figs-warm|compile|serve|all}
        --seed N [--seconds S] [--trace 0|1] [--trace-out T.json]
        [--out RESULT.json] [--smoke]

An untraced run (``--trace 0``) measures the workload for ``--seconds``
and prints the end-to-end metrics; a traced run (``--trace 1``) times
every operation both untraced and with spans around every layer
boundary, and prints the per-layer metrics.  The last line of standard
output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a wrong output is
counted in ``failed`` and makes the exit code 1.  Ambient ``REPRO_*``
variables are removed before ``repro`` is imported, so the shipped
default engine is what gets measured, and every time is corrected for
the host's speed (perf/hostspeed.py).  See perf/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import hostspeed

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
WORKLOADS = ("figs-cold", "figs-warm", "compile", "serve")
#: Set-ups per run; ``setup_s`` is their median.  A server start, timed
#: in wall time across three processes, varies most: ``serve`` makes
#: three times as many, and measures one closed-loop round after every
#: third.
SETUPS = 9
SERVER_STARTS = 15
ROUNDS = 5
#: Requests the first serve round makes at least: p99 then has ten
#: samples beyond it.
P99_OPERATIONS = 1000
#: Untraced runs make at least this many passes over the specs of the
#: grid and the kernels of the corpus; each one's latency is the median
#: of its runs, corrected for the host's speed.
REPEATS = 3

#: End-to-end metrics (untraced runs), every workload: name → unit.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics (traced runs), every workload: name → unit.
PER_LAYER = {}
for _layer in ("bench", "workloads", "passes", "ir", "frontend", "cache",
               "machine", "serve", "harness"):
    PER_LAYER.update({f"{_layer}.calls": "count",
                      f"{_layer}.self_s": "s",
                      f"{_layer}.share": "ratio"})
PER_LAYER.update({
    "machine.ns_per_inst": "ns",
    "machine.share.interp": "ratio",
    "machine.share.memsys": "ratio",
    "machine.share.hwprefetch": "ratio",
    "machine.share.core": "ratio",
    "machine.sim_insts": "count",
    "machine.l1_hit_rate": "ratio",
    "machine.dram_accesses": "count",
    "machine.tlb_walks": "count",
    "machine.sw_prefetches": "count",
    "machine.auto_speedup_gmean": "x",
    "workloads.build_s": "s",
    "workloads.prepare_s": "s",
    "workloads.validate_s": "s",
    "passes.prefetches_inserted": "count",
    "passes.accept_ratio": "ratio",
    "ir.print_s": "s",
    "ir.verify_s": "s",
    "ir.parse_s": "s",
    "frontend.rejected": "count",
    "cache.hit_ratio": "ratio",
    "cache.key_s": "s",
    "cache.get_s": "s",
    "cache.put_s": "s",
    "serve.hit_p50_ms": "ms",
    "serve.hit_p99_ms": "ms",
    "serve.fresh_p50_ms": "ms",
    "serve.fresh_overhead_p50_ms": "ms",
    "serve.coalesced": "count",
    "serve.jobs_per_request": "ratio",
    "serve.cas_hit_ratio": "ratio",
    "serve.shed": "count",
    "serve.worker_restarts": "count",
    "trace.overhead": "ratio",
})


def scrub_env() -> list[str]:
    """Remove ambient ``REPRO_*`` variables (children inherit the rest)."""
    removed = sorted(name for name in os.environ
                     if name.startswith("REPRO_"))
    for name in removed:
        del os.environ[name]
    return removed


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_stamp() -> dict:
    return {"python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_sha": git_sha()}


def quantile_ms(ordered: list[float], pct: float) -> float:
    from repro.obs.metrics import nearest_rank
    return nearest_rank(ordered, pct) * 1e3


def supported_percentile(n: int) -> float:
    """Highest of the usual percentiles with at least ten samples
    beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - pct / 100) >= 10:
            return pct
    return 0.0


def peak_rss_mb(own_kib: int) -> float:
    """Peak resident set, MiB, of this process (``own_kib``, read before
    the untimed checks, which run references in-process) and of every
    waited-for child (set-up probes, servers, their workers)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kib, children) / 1024


def server_setup(load) -> tuple[float, float]:
    """Seconds a server start takes (wall time, as it spans processes,
    less the sampling's own), with the reference loop time sampled
    beside it."""
    with hostspeed.beside() as seen:
        seconds = load.setup()
    return (seconds - seen["spent_s"],
            statistics.fmean(seen["loops"] or [hostspeed.sample()]))


def probe_setup(name: str, seed: int, smoke: bool) -> tuple[float, float]:
    """One cold start: a fresh interpreter imports the layers the
    workload uses, builds its inputs and runs one warm-up operation.
    Returns the CPU seconds it used and the reference loop time it saw
    (see :func:`cold_start`)."""
    command = [sys.executable, str(PERF / "run.py"), "--probe",
               "--workload", name, "--seed", str(seed)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    if done.returncode:
        raise RuntimeError(f"set-up probe failed: {done.stderr[-400:]}")
    answer = json.loads(done.stdout.strip().splitlines()[-1])
    return answer["cpu_s"], answer["reference_s"]


def cold_start(args, workdir: str) -> None:
    """The body of a set-up probe: prints the process's CPU seconds
    (interpreter start included, sampling left out) and the mean
    reference loop time over them."""
    import workload

    start = hostspeed.clock()
    with hostspeed.sampling():
        hostspeed.sample()
        workload.make(args.workload, args.seed, args.smoke,
                      workdir).warm_up()
    end = hostspeed.clock()
    print(json.dumps({
        "cpu_s": time.process_time() - hostspeed.spent_s(),
        "reference_s": hostspeed.reference(start, end)}))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(name, summary, tracer, untraced, traced,
              shares) -> tuple[dict, dict]:
    """Every per-layer metric of one traced run (0 where the workload
    does not exercise the layer), and the layer table."""
    import tracer as tr

    spans = tracer.spans
    table = tr.layer_table(spans)
    counts = tracer.counts
    values = {}
    for layer in tr.LAYERS:
        row = table[layer]
        values[f"{layer}.calls"] = row["calls"]
        values[f"{layer}.self_s"] = row["self_s"]
        values[f"{layer}.share"] = row["share"]

    def busy(predicate) -> float:
        return tr.covered((s.start, s.end) for s in spans if predicate(s))

    values["machine.ns_per_inst"] = _ratio(
        table["machine"]["busy_s"] * 1e9, counts["machine.sim_insts"])
    for part in tr.PARTS:
        values[f"machine.share.{part}"] = shares.get(part, 0.0)
    for key in ("sim_insts", "l1_hit_rate", "dram_accesses", "tlb_walks",
                "sw_prefetches", "auto_speedup_gmean"):
        values[f"machine.{key}"] = summary.get(key, 0)
    values["workloads.build_s"] = busy(
        lambda s: s.layer == "workloads"
        and s.name.endswith((".build", ".build_manual")))
    values["workloads.prepare_s"] = busy(
        lambda s: s.name.endswith(".prepare"))
    values["workloads.validate_s"] = busy(lambda s: s.name == "validate")
    values["passes.prefetches_inserted"] = counts[
        "passes.prefetches_inserted"]
    values["passes.accept_ratio"] = _ratio(counts["passes.accepted"],
                                           counts["passes.considered"])
    values["ir.print_s"] = busy(lambda s: s.name == "print_module")
    values["ir.verify_s"] = busy(lambda s: s.name == "verify_module")
    values["ir.parse_s"] = busy(lambda s: s.name == "parse_module")
    values["frontend.rejected"] = counts["frontend.rejected"]
    values["cache.hit_ratio"] = _ratio(counts["cache.hits"],
                                       counts["cache.probes"])
    values["cache.key_s"] = busy(lambda s: s.name == "run_key")
    values["cache.get_s"] = busy(lambda s: s.name.endswith(".get"))
    values["cache.put_s"] = busy(lambda s: s.name.endswith(".put"))
    values.update(serve_layer(traced) if name == "serve" else
                  {key: 0 for key in PER_LAYER if key.startswith("serve.")
                   and key not in values})
    before, after = untraced.latencies(), traced.latencies()
    values["trace.overhead"] = statistics.median(
        after[key] / before[key] for key in after if before.get(key)) - 1
    return values, table


def serve_layer(phase) -> dict:
    """Serve numbers from each answer's ``cached``/``coalesced``/
    ``wall_ms`` and from exact ``/metrics`` counters."""
    records = phase.extras["records"]
    hits = sorted(r[0] for r in records if r[2])
    fresh = [r for r in records if not r[2] and not r[3] and r[4]]
    fresh_s = sorted(r[0] for r in fresh)
    overhead = sorted(r[0] - r[4] / 1e3 for r in fresh)
    n = len(records)

    def delta(*path) -> int:
        total = 0
        for a, b in phase.extras["metrics"]:
            for key in path:
                a, b = a[key], b[key]
            total += b - a
        return total

    return {
        "serve.hit_p50_ms": quantile_ms(hits, 50),
        "serve.hit_p99_ms": quantile_ms(hits, 99),
        "serve.fresh_p50_ms": quantile_ms(fresh_s, 50),
        "serve.fresh_overhead_p50_ms": quantile_ms(overhead, 50),
        "serve.coalesced": sum(1 for r in records if r[3]),
        "serve.jobs_per_request": _ratio(delta("jobs", "executed"), n),
        "serve.cas_hit_ratio": _ratio(delta("cas", "hits"), n),
        "serve.shed": delta("jobs", "shed"),
        "serve.worker_restarts": delta("workers", "restarts"),
    }


def run_workload(name: str, args, workdir: str) -> dict:
    import tracer as tr
    import workload

    load = workload.make(name, args.seed, args.smoke, workdir)
    rounds, setups = [], []
    try:
        info = load.prepare()
        if load.concurrent:
            # A fresh server per round; the first round runs for its
            # share of the time and the others replay its requests, so
            # every request has one latency per round.
            # A traced run needs one server.
            work = None
            for start in range(1, 2 if args.trace else SERVER_STARTS + 1):
                setups.append(server_setup(load))
                if not args.trace and start % (SERVER_STARTS // ROUNDS) == 0:
                    rounds.append(load.measure(
                        seconds=args.seconds / ROUNDS, work=work,
                        minimum=P99_OPERATIONS))
                    work = rounds[-1].work
        else:
            # Set-ups before and after the timed phase: the host's speed
            # drifts over seconds, and their median should span it.
            setups = [probe_setup(name, args.seed, args.smoke)
                      for _ in range(SETUPS // 2 + 1)]
            if not args.trace:
                with hostspeed.sampling():
                    rounds.append(load.measure(seconds=args.seconds,
                                               repeats=REPEATS))
            setups += [probe_setup(name, args.seed, args.smoke)
                       for _ in range(SETUPS // 2)]
        if args.trace:
            tracer = tr.Tracer()
            with tracer.installed(), (nullcontext() if load.concurrent
                                      else hostspeed.sampling()):
                untraced, traced = load.measure_paired(args.seconds / 2,
                                                       tracer)
            rounds += [untraced, traced]
            shares = {}
            if name == "figs-cold":
                with tr.profiling_machine() as profiler:
                    rounds.append(load.measure(work=1))
                shares = tr.machine_shares(profiler)
        own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        failures = [f for phase in rounds for f in phase.failures]
        if load.concurrent:
            failures += load.verify()
        summary = load.summary()
    finally:
        load.close()

    timed = workload.Phase()
    for phase in (rounds if load.concurrent and not args.trace
                  else rounds[:1]):
        timed.merge(phase)
    ops = sorted(timed.latencies().values())
    attempted = sum(phase.attempted for phase in rounds)
    setup_s = [hostspeed.corrected(*sample) for sample in setups]
    result = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_samples_s": setup_s,
        "operations": len(ops), "wall_s": timed.wall_s,
        "supported_percentile": supported_percentile(len(ops)),
        "attempted": attempted, "failed": len(failures),
        "failed_frac": _ratio(len(failures), attempted),
        "failures": failures[:20], "summary": summary, "info": info,
    }
    if not args.trace:
        # Each operation's latency is the median of its corrected runs.
        # The throughput is operations over the sum of their latencies,
        # times the operations in flight (Little's law for a closed loop).
        values = {
            "setup_s": statistics.median(setup_s),
            "ops_per_s": load.connections * _ratio(len(ops), sum(ops)),
            "op_p50_ms": quantile_ms(ops, 50),
            "op_p99_ms": quantile_ms(ops, 99),
            "peak_rss_mb": peak_rss_mb(own_kib),
        }
        units = END_TO_END
    else:
        values, table = per_layer(name, summary, tracer, untraced,
                                  traced, shares)
        result["layers"] = {k: v for k, v in table.items()
                            if k != "wall_s"}
        result["traced_wall_s"] = table["wall_s"]
        units = PER_LAYER
        if args.trace_out:
            path = Path(args.trace_out)
            if args.workload == "all":
                path = path.with_name(f"{path.stem}-{name}{path.suffix}")
            path.write_text(json.dumps(tr.chrome_trace(tracer.spans)))
            result["trace_file"] = str(path)
    result["metrics"] = {key: {"value": values[key], "unit": unit}
                         for key, unit in units.items()}
    return result


def report(result: dict) -> None:
    """Human-readable lines for one workload."""
    name = result["workload"]
    print(f"[{name}] operations={result['operations']} "
          f"wall={result['wall_s']:.3f}s (p"
          f"{result['supported_percentile']:g} is the highest percentile "
          f"with >=10 samples beyond it)")
    print(f"[{name}] set-up samples: "
          + ", ".join(f"{s:.3f}s" for s in result["setup_samples_s"]))
    for key, value in sorted(result["info"].items()):
        print(f"[{name}] {key} = {value}")
    for key, value in sorted(result["summary"].items()):
        print(f"[{name}] {key} = {value}")
    if "layers" in result:
        wall = result["traced_wall_s"]
        print(f"[{name}] layer      calls     busy_s     self_s  share "
              f"(traced wall {wall:.3f}s)")
        for layer, row in result["layers"].items():
            print(f"[{name}] {layer:10s} {row['calls']:6d} "
                  f"{row['busy_s']:10.4f} {row['self_s']:10.4f} "
                  f"{row['share']:6.3f}")
    for key, metric in result["metrics"].items():
        print(f"[{name}] {key} = {metric['value']} {metric['unit']}")
    print(f"[{name}] attempted={result['attempted']} "
          f"failed={result['failed']} "
          f"failed_frac={result['failed_frac']}")
    for failure in result["failures"]:
        print(f"[{name}] FAILED: {failure}")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (dev 1, held-out 2)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="timed phase length per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write the traced spans as Chrome "
                             "trace-event JSON")
    parser.add_argument("--out", metavar="PATH",
                        help="write the full result as JSON (input of "
                             "perf/compare.py)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the tests")
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    removed = scrub_env()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    (ROOT / ".perf-work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=ROOT / ".perf-work")
    tempfile.tempdir = workdir
    try:
        if args.probe:
            cold_start(args, workdir)
            return 0
        return benchmark(args, removed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".perf-work").rmdir()
        except OSError:
            pass  # another run still uses it


def benchmark(args, removed: list[str], workdir: str) -> int:
    host = host_stamp()
    host["cpu"] = hostspeed.pin()
    load_before = os.getloadavg()
    print(f"perf: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"perf: python={host['python']} platform={host['platform']} "
          f"nproc={host['nproc']} git={host['git_sha']} "
          f"pinned to cpu {host['cpu']}")
    print("perf: removed REPRO_* variables: "
          + (", ".join(removed) if removed else "(none)"))
    print(f"perf: loadavg before = {load_before}")
    if load_before[0] > host["nproc"]:
        print(f"perf: WARNING load {load_before[0]:.2f} exceeds nproc "
              f"{host['nproc']}; timings are unreliable")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args, workdir))
            report(results[-1])
    except Exception:
        traceback.print_exc()
        return 1

    load_after = os.getloadavg()
    print(f"perf: loadavg after = {load_after}")
    host["reference_loop"] = hostspeed.summary()
    print(f"perf: reference loop {host['reference_loop']['fastest_us']:.0f}"
          f" us fastest, {host['reference_loop']['median_us']:.0f} us "
          f"median over {host['reference_loop']['samples']} samples "
          f"(times are for a host at {hostspeed.NOMINAL_S * 1e6:.0f} us)")
    if load_after[0] > host["nproc"]:
        print(f"perf: WARNING load {load_after[0]:.2f} exceeds nproc "
              f"{host['nproc']}; timings are unreliable")
    for result in results:
        result.update(host=host, removed_env=removed,
                      loadavg=[load_before, load_after])
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": results}, indent=1))
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{key}": metric for r in results
                   for key, metric in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
