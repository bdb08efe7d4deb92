"""Command-line driver: compile C-like source, run passes, inspect IR.

Usage::

    python -m repro compile kernel.c --prefetch --print-ir
    python -m repro compile kernel.c --prefetch -O --emit-ir out.ir
    python -m repro systems

``compile`` parses and lowers a C-like file (see
:mod:`repro.frontend`), optionally runs the automatic indirect-prefetch
pass (printing its report) and the -O cleanup pipeline, and emits the
textual IR.  ``systems`` prints the simulated Table 1 machines.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from .bench.reporting import format_table
from .envcfg import SimOptions, cache_dir_from_env, cache_from_env
from .frontend import SOURCE_ERRORS, compile_source
from .ir import print_module
from .passes import compile_pipeline
from .serve.protocol import TIERS
from .telemetry.timeline import DEFAULT_WINDOW_CYCLES
from .workloads import VARIANTS


def _version() -> str:
    """Package version from installed metadata, else the source tree."""
    try:
        from importlib.metadata import version
        return version("repro")
    except Exception:
        from . import __version__
        return __version__


def at_least_one(text: str) -> int:
    """Type of ``--lookahead`` and ``--jobs``: an integer >= 1 — the
    precondition :func:`repro.passes.prefetch.scheduling.schedule_chain`
    enforces, and a worker count."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"must be an integer >= 1, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Software prefetching for indirect memory accesses "
                    "(CGO 2017) — compiler driver")
    parser.add_argument(
        "--version", action="version", version=f"repro {_version()}")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags several commands share: one definition, checked at parse time.
    lookahead = argparse.ArgumentParser(add_help=False)
    lookahead.add_argument(
        "--lookahead", type=at_least_one, default=64, metavar="C",
        help="look-ahead constant c of eq. (1) (default 64)")
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument(
        "--jobs", type=at_least_one, default=None, metavar="N",
        help="worker processes for independent runs "
             "(default: the available CPUs)")
    variant = argparse.ArgumentParser(add_help=False)
    variant.add_argument(
        "--variant", default="auto", choices=VARIANTS,
        help="variant to run (default auto)")
    target = argparse.ArgumentParser(add_help=False)
    target.add_argument(
        "target",
        help="workload name (is, cg, ra, hj2, hj8, g500-s16, g500-s21), "
             "'quick' for the whole suite, or fig4a-d for one machine's "
             "suite")
    target.add_argument(
        "--machine", default=None, metavar="NAME",
        help="machine to simulate (default Haswell; ignored for "
             "fig4a-d targets, which pin their machine)")
    target.add_argument(
        "--small", action="store_true",
        help="scaled-down workloads (quick smoke sizes)")

    compile_cmd = sub.add_parser(
        "compile", parents=[lookahead],
        help="compile a C-like source file to IR")
    compile_cmd.add_argument("source", help="input source file")
    compile_cmd.add_argument(
        "--prefetch", action="store_true",
        help="run the automatic indirect-prefetch pass")
    compile_cmd.add_argument(
        "--no-stride", action="store_true",
        help="omit the staggered stride prefetch (Fig. 5's "
             "indirect-only mode)")
    compile_cmd.add_argument(
        "--hoist", action="store_true",
        help="enable prefetch loop hoisting (§4.6)")
    compile_cmd.add_argument(
        "-O", "--optimize", action="store_true",
        help="run the cleanup pipeline (simplifycfg, licm, cse, dce)")
    compile_cmd.add_argument(
        "--print-ir", action="store_true",
        help="print the final IR to stdout")
    compile_cmd.add_argument(
        "--emit-ir", metavar="FILE", help="write the final IR to FILE")

    sub.add_parser("systems", help="print the simulated machines")

    bench_cmd = sub.add_parser(
        "bench", parents=[jobs],
        help="run one figure's experiment and print its table")
    bench_cmd.add_argument(
        "figure",
        help="which table to print (table1, fig2, fig4a-d, fig5-fig10, "
             "ablation_scheduling, ablation_guard_cost)")
    bench_cmd.add_argument(
        "--small", action="store_true",
        help="scaled-down workloads (quick smoke sizes)")
    bench_cmd.add_argument(
        "--no-cache", action="store_true",
        help="disable the run-result disk cache")
    bench_cmd.add_argument(
        "--cache-dir", metavar="DIR",
        help="cache root (default: REPRO_SIM_CACHE_DIR or .sim-cache)")
    bench_cmd.add_argument(
        "--hot-report", action="store_true",
        help="run the figure with the disk cache off and print the "
             "hottest compiled traces and their TraceCompiled/TraceDeopt "
             "remarks")
    bench_cmd.add_argument(
        "--hot-top", type=int, default=10, metavar="N",
        help="rows in the --hot-report table (default 10)")
    bench_cmd.add_argument(
        "--obs-out", metavar="FILE",
        help="after the run, write the bench metrics registry "
             "(per-run counters, per-stage wall-time histograms) as "
             "Prometheus text exposition to FILE")

    stats_cmd = sub.add_parser(
        "stats", parents=[variant, lookahead, jobs, target],
        help="prefetch-telemetry report for a workload or figure")
    stats_cmd.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable JSON report instead of a table")

    explain_cmd = sub.add_parser(
        "explain", parents=[variant, lookahead, jobs, target],
        help="join compile-time prefetch remarks with runtime outcomes")
    explain_cmd.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable JSON report instead of tables")
    explain_cmd.add_argument(
        "--remarks-out", metavar="FILE",
        help="also write the per-workload remark streams as JSON")

    timeline_cmd = sub.add_parser(
        "timeline", parents=[variant, lookahead, target],
        help="flight-recorder phase report (windowed time series) for "
             "a workload or figure")
    timeline_cmd.add_argument(
        "--window", type=int, default=DEFAULT_WINDOW_CYCLES,
        metavar="CYCLES",
        help=f"window width in simulated cycles (default "
             f"{DEFAULT_WINDOW_CYCLES})")
    timeline_cmd.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable JSON report instead of tables")
    timeline_cmd.add_argument(
        "--perfetto", metavar="FILE",
        help="write the runs as Chrome trace-event JSON (loadable at "
             "ui.perfetto.dev) to FILE")

    serve_cmd = sub.add_parser(
        "serve",
        help="run the multi-tenant compile-and-simulate HTTP service")
    serve_cmd.add_argument(
        "--host", default="127.0.0.1", help="bind address")
    serve_cmd.add_argument(
        "--port", type=int, default=8787,
        help="bind port (0 = pick a free one; default 8787)")
    serve_cmd.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="simulation worker processes (default: "
             "REPRO_SERVE_WORKERS or the available CPUs)")
    serve_cmd.add_argument(
        "--queue", type=int, default=64, metavar="N",
        help="max distinct jobs in flight before shedding with 429 "
             "(default 64)")
    serve_cmd.add_argument(
        "--timeout", type=float, default=300.0, metavar="S",
        help="per-request execution deadline in seconds; a blown "
             "deadline answers 504 and recycles the worker "
             "(default 300)")
    serve_cmd.add_argument(
        "--cache-dir", metavar="DIR",
        help="content-addressed result store root (default: "
             "REPRO_SIM_CACHE_DIR or .serve-cas)")
    serve_cmd.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="CAS byte budget; LRU garbage collection runs "
             "opportunistically past it (default: unbounded)")
    serve_cmd.add_argument(
        "--log-format", default="text",
        choices=("text", "json", "off"),
        help="structured access/event log format, on stderr "
             "(default text; json = one repro-serve-log-v1 object "
             "per line)")
    serve_cmd.add_argument(
        "--trace-buffer", type=int, default=256, metavar="N",
        help="request traces kept for GET /v1/trace/<id> "
             "(default 256)")
    serve_cmd.add_argument(
        "--debug", action="store_true", help=argparse.SUPPRESS)

    submit_cmd = sub.add_parser(
        "submit", parents=[variant, lookahead],
        help="submit one job to a running repro serve")
    submit_cmd.add_argument(
        "target", nargs="?",
        help="workload name (is, cg, ra, hj2, hj8, g500-s16, "
             "g500-s21); omit when using --source")
    submit_cmd.add_argument(
        "--source", metavar="FILE",
        help="compile request: C-like kernel source file instead of a "
             "simulation target")
    submit_cmd.add_argument(
        "--host", default="127.0.0.1", help="server address")
    submit_cmd.add_argument(
        "--port", type=int, default=8787, help="server port")
    submit_cmd.add_argument(
        "--machine", default="Haswell", metavar="NAME",
        help="machine to simulate (default Haswell)")
    submit_cmd.add_argument(
        "--small", action="store_true",
        help="scaled-down workload (quick smoke sizes)")
    submit_cmd.add_argument(
        "--tier", default="auto", choices=TIERS,
        help="execution tier for the worker (default auto)")
    submit_cmd.add_argument(
        "--include", default="", metavar="LIST",
        help="comma-separated extras to return: "
             "telemetry,remarks,timeline,spans")
    submit_cmd.add_argument(
        "--no-validate", action="store_true",
        help="skip functional validation of the results")
    submit_cmd.add_argument(
        "-O", "--optimize", action="store_true",
        help="compile requests: run the -O cleanup pipeline")
    submit_cmd.add_argument(
        "--no-prefetch", action="store_true",
        help="compile requests: skip the indirect-prefetch pass")
    submit_cmd.add_argument(
        "--metrics", action="store_true",
        help="fetch /metrics instead of submitting a job")
    submit_cmd.add_argument(
        "--trace-out", metavar="FILE",
        help="after the job answers, fetch its cross-process span "
             "tree (GET /v1/trace/<request_id>) and write it as "
             "Chrome trace-event JSON loadable at ui.perfetto.dev")

    top_cmd = sub.add_parser(
        "top",
        help="live terminal dashboard over a running repro serve "
             "(polls GET /metrics)")
    top_cmd.add_argument(
        "--host", default="127.0.0.1", help="server address")
    top_cmd.add_argument(
        "--port", type=int, default=8787, help="server port")
    top_cmd.add_argument(
        "--interval", type=float, default=2.0, metavar="S",
        help="poll interval in seconds (default 2)")
    top_cmd.add_argument(
        "--once", action="store_true",
        help="print a single frame and exit (scripts, smoke checks)")

    cache_cmd = sub.add_parser(
        "cache", help="inspect and garbage-collect the result store")
    cache_sub = cache_cmd.add_subparsers(dest="cache_command",
                                         required=True)
    gc_cmd = cache_sub.add_parser(
        "gc", help="evict least-recently-used entries over a byte "
                   "budget (works on any run-cache/CAS root)")
    gc_cmd.add_argument(
        "--max-bytes", type=int, default=256 << 20, metavar="N",
        help="byte budget to trim the store to (default 256 MiB)")
    gc_cmd.add_argument(
        "--dry-run", action="store_true",
        help="report what would be evicted without deleting")
    gc_cmd.add_argument(
        "--cache-dir", metavar="DIR",
        help="store root (default: REPRO_SIM_CACHE_DIR or .sim-cache)")
    return parser


def _cmd_compile(args: argparse.Namespace, out) -> int:
    try:
        with open(args.source) as handle:
            source = handle.read()
    except OSError as exc:
        print(f"error: cannot read {args.source}: {exc}",
              file=sys.stderr)
        return 1
    try:
        module = compile_source(source, name=args.source)
        report = compile_pipeline(
            module, prefetch=args.prefetch, optimize=args.optimize,
            lookahead=args.lookahead, stride=not args.no_stride,
            hoist=args.hoist)
        if report is not None:
            print(report.summary(), file=out)
        text = print_module(module)
    except SOURCE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    if args.emit_ir:
        with open(args.emit_ir, "w") as handle:
            handle.write(text)
    if args.print_ir or not args.emit_ir:
        print(text, file=out)
    return 0


def _bench_hot_report(figure, args: argparse.Namespace, out) -> None:
    """Run one table's experiment and print the hottest compiled
    traces: the run they came from (its look-ahead ``c`` and the knobs
    that differ from their defaults included), loop header, iteration
    count and share of the simulated instructions, under a title
    giving the share that ran on traces; then
    ``TraceDeopt`` counts by stage and reason, and the trace JIT's
    remark stream."""
    from collections import Counter

    from .bench.runner import TELEMETRY, TraceRows, reset_telemetry
    from .obs.sinks import collecting
    from .remarks import RemarkEmitter, render_remarks
    reset_telemetry()
    emitter, traces = RemarkEmitter(), TraceRows()
    # _run_cache installs no cache here: cached runs execute nothing.
    with collecting(emitter, traces):
        table = figure.table(args.small, args.jobs)
    print(table, file=out)
    total = TELEMETRY["simulated_instructions"]
    rows = traces.records
    rows.sort(key=lambda r: r["instructions"], reverse=True)
    top = rows[:max(args.hot_top, 0)]
    headers = ["workload", "variant", "c", "knobs", "machine",
               "function", "loop", "iterations", "instructions", "% sim"]
    body = [[r["workload"], r["variant"], r["lookahead"], r["knobs"],
             r["machine"], r["function"], r["header"], r["iterations"],
             r["instructions"],
             (f"{100.0 * r['instructions'] / total:.1f}%"
              if total else "-")]
            for r in top]
    traced = sum(r["instructions"] for r in rows)
    share = f", {100.0 * traced / total:.1f}% on traces" if total else ""
    print(format_table(
        headers, body,
        f"Hottest traces — top {len(top)} of {len(rows)} "
        f"({total} simulated instructions{share})"), file=out)
    trace_remarks = [r for r in emitter
                     if r.name in ("TraceCompiled", "TraceDeopt")]
    deopts = Counter(f"{r.arg('stage')}/{r.arg('reason')}"
                     for r in trace_remarks if r.name == "TraceDeopt")
    print("TraceDeopt by stage/reason: " + (", ".join(
        f"{key} {n}" for key, n in sorted(deopts.items())) or "none"),
        file=out)
    print(render_remarks(trace_remarks,
                         title="Trace-JIT remarks (repro-remarks-v1):"),
          file=out)


def _cmd_bench(args: argparse.Namespace, out) -> int:
    from .bench.figures import FIGURES
    figure = FIGURES.get(args.figure.lower())
    if figure is None:
        return _unknown_target(
            "bench", args.figure, "a table (" + ", ".join(FIGURES) + ")")
    from contextlib import nullcontext

    from .obs.sinks import SpanRecorder, collecting
    recorder = SpanRecorder()
    with collecting(recorder) if args.obs_out else nullcontext():
        if args.hot_report:
            _bench_hot_report(figure, args, out)
        else:
            print(figure.table(args.small, args.jobs), file=out)
    if args.obs_out:
        with open(args.obs_out, "w") as handle:
            handle.write(_bench_metrics(recorder).render_prometheus())
        print(f"wrote bench metrics exposition to {args.obs_out}",
              file=sys.stderr)
    return 0


def _bench_metrics(recorder):
    """The ``--obs-out`` registry, built from one run's ``bench``
    spans: a counter of the ``run_variant`` spans and a histogram of
    the stage spans inside them."""
    from .obs.metrics import SECONDS_BUCKETS, Registry
    registry = Registry()
    runs = registry.counter(
        "repro_bench_runs_total",
        "Bench variant runs by workload, variant, machine, and "
        "whether the disk cache answered.",
        labels=("workload", "variant", "machine", "cached"))
    stages = registry.histogram(
        "repro_bench_stage_seconds",
        "Wall time per bench pipeline stage "
        "(build, prepare, simulate, validate).",
        labels=("stage",), unit="seconds", buckets=SECONDS_BUCKETS)
    for record in recorder.spans("bench"):
        args = record["args"]
        if record["name"] == "run_variant":
            runs.labels(workload=args["workload"],
                        variant=args["variant"], machine=args["machine"],
                        cached="true" if args["cached"] else "false").inc()
        else:
            stages.labels(stage=record["name"]).observe(
                record["dur_us"] / 1e6)
    return registry


#: fig4 letters pin their machine (paper Table 1 names).
_FIG4_MACHINES = {"fig4a": "Haswell", "fig4b": "A57", "fig4c": "A53",
                  "fig4d": "Xeon Phi"}

#: What the workload-target commands accept, for error messages.
_WORKLOAD_EXPECTED = ("a workload name (is, cg, ra, hj2, hj8, "
                      "g500-s16, g500-s21), 'quick', or fig4a-fig4d")


def _unknown_target(command: str, target: str, expected: str) -> int:
    """Print the uniform unknown-target error; returns exit code 2.

    Every subcommand that takes a figure/workload target (``bench``,
    ``stats``, ``explain``, ``timeline``) reports failures through this
    one helper so the message shape — and the exit code — never drift.
    """
    print(f"error: unknown {command} target '{target}'; expected "
          f"{expected}", file=sys.stderr)
    return 2


def _stats_workloads(target: str, small: bool):
    """Workloads selected by a ``stats`` target, or ``None``.

    ``quick`` / a fig4 letter → the whole suite; otherwise one workload
    matched by name (case- and punctuation-insensitive, so ``hj2``
    finds HJ-2).
    """
    from .workloads import canonical_name, paper_benchmarks
    suite = paper_benchmarks(small=small)
    if target in ("quick", "suite", "all") or target in _FIG4_MACHINES:
        return suite
    matches = [w for w in suite
               if canonical_name(w.name) == canonical_name(target)]
    return matches or None


def _resolve_target(command: str, args: argparse.Namespace):
    """Shared workload-target resolution for stats/explain/timeline.

    Returns ``(workloads, machine)``; or ``None`` with the uniform
    error already printed (exit code 2 is the caller's job).
    """
    from .machine.configs import system_by_name
    target = args.target.lower()
    workloads = _stats_workloads(target, args.small)
    if workloads is None:
        _unknown_target(command, args.target, _WORKLOAD_EXPECTED)
        return None
    machine_name = _FIG4_MACHINES.get(target, args.machine or "Haswell")
    try:
        machine = system_by_name(machine_name)
    except KeyError:
        print(f"error: unknown machine '{machine_name}'",
              file=sys.stderr)
        return None
    return workloads, machine


def _cmd_stats(args: argparse.Namespace, out) -> int:
    import json

    from .telemetry.report import (effectiveness_rows, render_effectiveness,
                                   report_dict)
    resolved = _resolve_target("stats", args)
    if resolved is None:
        return 2
    workloads, machine = resolved
    rows = effectiveness_rows(workloads, machines=(machine,),
                              variant=args.variant,
                              lookahead=args.lookahead, jobs=args.jobs)
    if args.json:
        print(json.dumps(report_dict(rows), indent=2), file=out)
    else:
        print(render_effectiveness(
            rows, title=f"Prefetch effectiveness — {args.variant} on "
                        f"{machine.name}"), file=out)
    return 0


def _cmd_explain(args: argparse.Namespace, out) -> int:
    import json

    from .remarks.join import explain_rows, render_explain, report_dict
    resolved = _resolve_target("explain", args)
    if resolved is None:
        return 2
    workloads, machine = resolved
    rows = explain_rows(workloads, machines=(machine,),
                        variant=args.variant,
                        lookahead=args.lookahead, jobs=args.jobs)
    if args.remarks_out:
        streams = {row["workload"]: row["remarks_stream"]
                   for row in rows}
        with open(args.remarks_out, "w") as handle:
            json.dump({"schema": "repro-explain-remarks-v1",
                       "machine": machine.name,
                       "variant": args.variant,
                       "workloads": streams}, handle, indent=2)
            handle.write("\n")
    if args.json:
        print(json.dumps(report_dict(rows), indent=2), file=out)
    else:
        print(render_explain(rows), file=out)
    return 0


def _cmd_timeline(args: argparse.Namespace, out) -> int:
    import json

    from .telemetry.perfetto import build_trace
    from .telemetry.report import (render_timeline, timeline_report_dict,
                                   timeline_rows)
    from .obs.sinks import SpanRecorder, collecting
    resolved = _resolve_target("timeline", args)
    if resolved is None:
        return 2
    workloads, machine = resolved
    if args.window <= 0:
        print(f"error: --window must be positive (got {args.window})",
              file=sys.stderr)
        return 2
    # Runs are serial: the Perfetto pipeline track puts each span
    # category on one thread, where parallel runs' spans would overlap.
    recorder = SpanRecorder()
    with collecting(recorder):
        rows = timeline_rows(workloads, machine, variant=args.variant,
                             lookahead=args.lookahead,
                             window=args.window)
    if args.perfetto:
        trace = build_trace(rows, recorder,
                            meta={"machine": machine.name,
                                  "variant": args.variant})
        with open(args.perfetto, "w") as handle:
            json.dump(trace, handle, indent=1)
            handle.write("\n")
    if args.json:
        print(json.dumps(timeline_report_dict(rows), indent=2),
              file=out)
    else:
        print(render_timeline(rows), file=out)
    return 0


def _cmd_serve(args: argparse.Namespace, out) -> int:
    import asyncio

    from .serve.server import DEFAULT_STORE_DIR, ServeConfig, serve_forever
    config = ServeConfig(
        host=args.host, port=args.port, workers=args.workers,
        queue_limit=args.queue, timeout_s=args.timeout,
        cache_dir=args.cache_dir or cache_dir_from_env(DEFAULT_STORE_DIR),
        cas_max_bytes=args.max_bytes,
        debug=args.debug, log_format=args.log_format,
        trace_capacity=args.trace_buffer)
    if config.queue_limit < 1 or config.timeout_s <= 0:
        print("error: --queue must be >= 1 and --timeout > 0",
              file=sys.stderr)
        return 2
    try:
        asyncio.run(serve_forever(config))
    except KeyboardInterrupt:
        print("repro serve: shutting down", file=sys.stderr)
    return 0


def _cmd_submit(args: argparse.Namespace, out) -> int:
    import json

    from .serve.client import ServeHTTPError, get_metrics, submit
    if args.metrics:
        try:
            print(json.dumps(get_metrics(args.host, args.port),
                             indent=2), file=out)
        except (OSError, ServeHTTPError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0
    include = [part for part in args.include.split(",") if part]
    if args.source:
        try:
            with open(args.source) as handle:
                source = handle.read()
        except OSError as exc:
            print(f"error: cannot read {args.source}: {exc}",
                  file=sys.stderr)
            return 1
        request = {"kind": "compile", "source": source,
                   "prefetch": not args.no_prefetch,
                   "optimize": args.optimize,
                   "lookahead": args.lookahead, "include": include}
    elif args.target:
        request = {"kind": "simulate", "workload": args.target,
                   "small": args.small, "variant": args.variant,
                   "machine": args.machine,
                   "lookahead": args.lookahead, "tier": args.tier,
                   "validate": not args.no_validate,
                   "include": include}
    else:
        print("error: submit needs a workload target or --source",
              file=sys.stderr)
        return 2
    try:
        payload = submit(args.host, args.port, request)
    except ServeHTTPError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot reach {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    print(json.dumps(payload, indent=2), file=out)
    if args.trace_out:
        from .serve.client import get_trace
        request_id = payload.get("request_id")
        if not request_id:
            print("error: answer carries no request_id; cannot fetch "
                  "a trace", file=sys.stderr)
            return 1
        try:
            trace = get_trace(args.host, args.port, request_id)
        except (OSError, ServeHTTPError) as exc:
            print(f"error: cannot fetch trace {request_id}: {exc}",
                  file=sys.stderr)
            return 1
        with open(args.trace_out, "w") as handle:
            json.dump(trace, handle, indent=1)
        print(f"wrote request trace {request_id} to {args.trace_out} "
              f"(load at ui.perfetto.dev)", file=sys.stderr)
    return 0


def _cmd_top(args: argparse.Namespace, out) -> int:
    from .obs.top import run_top
    if args.interval <= 0:
        print("error: --interval must be > 0", file=sys.stderr)
        return 2
    return run_top(args.host, args.port, interval_s=args.interval,
                   once=args.once, out=out)


def _cmd_cache(args: argparse.Namespace, out) -> int:
    from .serve.cas import ContentStore
    root = args.cache_dir or cache_dir_from_env()
    store = ContentStore(root)
    if args.max_bytes < 0:
        print("error: --max-bytes must be >= 0", file=sys.stderr)
        return 2
    report = store.gc(args.max_bytes, dry_run=args.dry_run)
    verb = "would evict" if args.dry_run else "evicted"
    print(f"cache gc {root}: {report['entries']} entries, "
          f"{report['bytes']} bytes; {verb} "
          f"{len(report['removed'])} entries "
          f"({report['removed_bytes']} bytes), keeping "
          f"{report['kept_bytes']} bytes", file=out)
    for key in report["removed"]:
        print(f"  {verb} {key}", file=out)
    return 0


def _cmd_systems(out) -> int:
    from .bench.figures import FIGURES
    print(FIGURES["table1"].table(), file=out)
    return 0


#: Commands that simulate, under :func:`_run_cache` and the engine
#: options of the environment.
_SIMULATING = {"bench": _cmd_bench, "stats": _cmd_stats,
               "explain": _cmd_explain, "timeline": _cmd_timeline}


def _run_cache(args: argparse.Namespace):
    """The run cache a simulating command installs, or ``None``.

    ``REPRO_SIM_CACHE`` turns it on or off — on by default for
    ``bench``, off for the report commands; ``bench --no-cache`` and
    ``--hot-report`` turn it off, and ``bench --cache-dir`` (else
    ``REPRO_SIM_CACHE_DIR``) moves it.
    """
    from .bench.cache import RunCache
    bench = args.command == "bench"
    if bench and (args.no_cache or args.hot_report):
        return None
    root = cache_from_env(default=bench)
    if root is None:
        return None
    return RunCache((args.cache_dir if bench else None) or root)


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    if args.command == "compile":
        return _cmd_compile(args, out)
    if args.command == "systems":
        return _cmd_systems(out)
    if args.command in _SIMULATING:
        from .bench.runner import run_defaults
        with run_defaults(SimOptions.from_env(), _run_cache(args)):
            return _SIMULATING[args.command](args, out)
    if args.command == "serve":
        return _cmd_serve(args, out)
    if args.command == "submit":
        return _cmd_submit(args, out)
    if args.command == "top":
        return _cmd_top(args, out)
    if args.command == "cache":
        return _cmd_cache(args, out)
    return 2  # pragma: no cover - argparse enforces the choices
