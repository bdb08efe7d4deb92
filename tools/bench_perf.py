#!/usr/bin/env python
"""Benchmark-suite throughput harness: fast engine vs slow reference.

Times the figure experiments under both engines and writes
``BENCH_sim_throughput.json``:

* **slow** — the reference engine (per-instruction interpreter and full
  hierarchy walks), no result cache;
* **fast cold** — the fast engine (fused segments, hot-line memo and
  the trace JIT compiling hot loops), **no result cache** (cold phases
  always bypass the disk cache, so every figure's time reflects real
  simulation — previously Fig. 8 appeared ~90x faster cold because it
  re-used Fig. 4(a)'s cached runs);
* **populate / warm** — the shipped configuration (fast engine + disk
  cache) run twice: once against an empty cache, then again fully warm,
  i.e. the steady-state "re-run after changing nothing" developer loop.

Each phase records wall time and simulated instructions per figure, so
the report carries instructions/s for both engines plus the per-figure
speedup ratio ``engine_speedup_cold`` (slow / fast cold).

``--check BASELINE.json`` re-validates the speedup *ratios* against a
committed baseline (20% tolerance by default).  Ratios — not absolute
seconds — are compared because both sides of each ratio are measured on
the same machine in the same invocation, which makes the check portable
across differently-provisioned CI runners.

Usage::

    PYTHONPATH=src python tools/bench_perf.py --quick
    PYTHONPATH=src python tools/bench_perf.py --quick \
        --figures fig2,fig5,fig8 --check BENCH_sim_throughput.json
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: Ratio metrics validated by ``--check`` (per figure and suite-wide).
CHECK_METRICS = ("engine_speedup_cold",)


def build_suite(small: bool, jobs: int):
    """The timed figure experiments (Fig. 9 is excluded: multicore runs
    share a DRAM channel and are neither cached nor parallelised)."""
    from repro.bench import experiments as E
    from repro.machine import A53, A57, HASWELL, XEON_PHI
    suite = [
        ("fig2", lambda: E.fig2_prefetch_schemes(small=small)),
        ("fig4a", lambda: E.fig4_system(HASWELL, small=small,
                                        jobs=jobs)),
        ("fig4b", lambda: E.fig4_system(A57, small=small, jobs=jobs)),
        ("fig4c", lambda: E.fig4_system(A53, small=small, jobs=jobs)),
        ("fig4d", lambda: E.fig4_system(XEON_PHI, include_icc=True,
                                        small=small, jobs=jobs)),
        ("fig5", lambda: E.fig5_stride_contribution(small=small,
                                                    jobs=jobs)),
        ("fig6", lambda: E.fig6_lookahead_sweep(small=small,
                                                jobs=jobs)),
        ("fig7", lambda: E.fig7_stagger_depth(small=small, jobs=jobs)),
        ("fig8", lambda: E.fig8_instruction_overhead(small=small)),
        ("fig10", lambda: E.fig10_huge_pages(small=small)),
    ]
    return suite


def run_phase(suite, fastpath: bool, cache_dir: str | None) -> dict:
    """Run every figure once under one engine configuration.

    Returns per-figure wall seconds and simulated-instruction deltas
    (the latter are zero for runs served from the disk cache).
    """
    from repro.bench.cache import RunCache
    from repro.bench.runner import TELEMETRY, reset_telemetry, run_defaults
    from repro.envcfg import SimOptions
    cache = RunCache(cache_dir) if cache_dir is not None else None
    reset_telemetry()
    walls = {}
    insts = {}
    total = 0.0
    with run_defaults(SimOptions(fastpath=fastpath), cache):
        for name, fn in suite:
            before = TELEMETRY["simulated_instructions"]
            t0 = time.perf_counter()
            fn()
            walls[name] = round(time.perf_counter() - t0, 3)
            insts[name] = TELEMETRY["simulated_instructions"] - before
            total += walls[name]
            print(f"  {name:6s} {walls[name]:8.2f}s", flush=True)
    return {"figures": walls, "instructions": insts,
            "total_s": round(total, 3), "telemetry": dict(TELEMETRY)}


def host_metadata() -> dict:
    """Who/where/when stamp for the report.

    The bench trajectory is only comparable across boxes when each
    report says what produced it: interpreter version, platform, CPU
    count, the measured commit, and a UTC timestamp.
    """
    import datetime
    import platform
    import subprocess
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent.parent,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
        "timestamp_utc": datetime.datetime.now(
            datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    }


def _ratio(num: float, den: float) -> float:
    return round(num / den, 2) if den else 0.0


def _ips(insts: int, wall: float) -> int:
    return round(insts / wall) if wall else 0


def build_report(suite, args, slow, cold, populate, warm) -> dict:
    """Assemble the JSON report from the four phase results."""
    figures = {}
    for name, _ in suite:
        insts = slow["instructions"][name]
        figures[name] = {
            "slow_s": slow["figures"][name],
            "fast_cold_s": cold["figures"][name],
            "fast_warm_s": warm["figures"][name],
            "simulated_instructions": insts,
            "ips_slow": _ips(insts, slow["figures"][name]),
            "ips_fast_cold": _ips(cold["instructions"][name],
                                  cold["figures"][name]),
            "engine_speedup_cold": _ratio(slow["figures"][name],
                                          cold["figures"][name]),
        }
    sim_insts = slow["telemetry"]["simulated_instructions"]
    return {
        "generated_by": "tools/bench_perf.py",
        "host": host_metadata(),
        "quick": args.quick,
        "jobs": args.jobs,
        "figures": figures,
        "suite": {
            "slow_s": slow["total_s"],
            "fast_cold_s": cold["total_s"],
            "populate_s": populate["total_s"],
            "fast_warm_s": warm["total_s"],
            "engine_speedup_cold": _ratio(slow["total_s"],
                                          cold["total_s"]),
            "speedup": _ratio(slow["total_s"], warm["total_s"]),
            "speedup_definition": (
                "slow_s / fast_warm_s: end-to-end wall time of the "
                "figure suite under the shipped fast configuration "
                "(fast engine + populated run cache) vs the slow path; "
                "engine_speedup_cold isolates the fast engine with the "
                "disk cache bypassed"),
        },
        "simulated_instructions": {
            "suite": sim_insts,
            "per_sec_slow": _ips(sim_insts, slow["total_s"]),
            "per_sec_fast_cold": _ips(
                cold["telemetry"]["simulated_instructions"],
                cold["total_s"]),
            "simulated_runs_cold": cold["telemetry"]["simulated_runs"],
            "cached_runs_warm": warm["telemetry"]["cached_runs"],
            "simulated_runs_warm": warm["telemetry"]["simulated_runs"],
        },
    }


def check_report(report: dict, baseline: dict, tolerance: float) -> int:
    """Compare speedup ratios against a committed baseline.

    A metric regresses when it falls below ``baseline * (1 -
    tolerance)``; improvements never fail.  When both reports cover the
    same figure set, the *suite-level* aggregates are the gate (they
    average out per-figure wall noise) and per-figure regressions only
    warn; with a ``--figures`` subset there is no suite aggregate, so
    the per-figure checks gate directly (noisier — prefer long-running
    figures for subsets).  Returns the number of gating failures.
    """
    failures = 0

    def check_one(scope: str, metric: str, current, base,
                  gating: bool) -> None:
        nonlocal failures
        if not isinstance(base, (int, float)) or base <= 0:
            return
        floor = base * (1.0 - tolerance)
        if current >= floor:
            status = "ok"
        elif gating:
            status = "REGRESSION"
            failures += 1
        else:
            status = "warn (suite gates)"
        print(f"  {scope:8s} {metric:24s} {current:6.2f} vs baseline "
              f"{base:6.2f} (floor {floor:.2f}) {status}")

    full = set(report["figures"]) == set(baseline.get("figures", {}))
    shared = [name for name in report["figures"]
              if name in baseline.get("figures", {})]
    print(f"check: {len(shared)} figure(s) vs baseline "
          f"(tolerance {tolerance:.0%}):")
    for name in shared:
        for metric in CHECK_METRICS:
            check_one(name, metric,
                      report["figures"][name].get(metric, 0.0),
                      baseline["figures"][name].get(metric),
                      gating=not full)
    if full:
        for metric in CHECK_METRICS:
            check_one("suite", metric,
                      report["suite"].get(metric, 0.0),
                      baseline.get("suite", {}).get(metric),
                      gating=True)
    else:
        print("  (figure subset: no suite aggregate, figures gate)")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="scaled-down workloads (CI smoke mode)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for independent runs "
                             "(default 1: keeps telemetry in-process)")
    parser.add_argument("--figures", metavar="LIST",
                        help="comma-separated figure subset (e.g. "
                             "fig2,fig5,fig8) for smoke runs")
    parser.add_argument("--check", metavar="BASELINE",
                        help="validate speedup ratios against a "
                             "committed baseline JSON; exit 1 on "
                             "regression")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed relative regression for --check "
                             "(default 0.20)")
    parser.add_argument("--output", default="BENCH_sim_throughput.json",
                        help="output JSON path")
    args = parser.parse_args(argv)

    suite = build_suite(small=args.quick, jobs=args.jobs)
    if args.figures:
        wanted = [f.strip().lower() for f in args.figures.split(",")
                  if f.strip()]
        known = {name for name, _ in suite}
        unknown = [f for f in wanted if f not in known]
        if unknown:
            print(f"error: unknown figure(s) {', '.join(unknown)}; "
                  f"available: {', '.join(sorted(known))}",
                  file=sys.stderr)
            return 2
        suite = [(name, fn) for name, fn in suite if name in wanted]
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        print("slow path (reference engine, no cache):", flush=True)
        slow = run_phase(suite, fastpath=False, cache_dir=None)
        print("fast engine, cold (no cache):", flush=True)
        cold = run_phase(suite, fastpath=True, cache_dir=None)
        print("fast engine, populating cache:", flush=True)
        populate = run_phase(suite, fastpath=True, cache_dir=cache_dir)
        print("fast engine, warm cache:", flush=True)
        warm = run_phase(suite, fastpath=True, cache_dir=cache_dir)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    report = build_report(suite, args, slow, cold, populate, warm)
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    s = report["suite"]
    print(f"\nsuite: slow {s['slow_s']}s | fast cold {s['fast_cold_s']}s "
          f"(engine {s['engine_speedup_cold']}x) | fast warm "
          f"{s['fast_warm_s']}s ({s['speedup']}x end-to-end)")
    print(f"wrote {args.output}")

    if args.check:
        try:
            baseline = json.loads(Path(args.check).read_text())
        except (OSError, ValueError) as exc:
            print(f"error: cannot read baseline {args.check}: {exc}",
                  file=sys.stderr)
            return 2
        if check_report(report, baseline, args.tolerance):
            print("bench check FAILED", file=sys.stderr)
            return 1
        print("bench check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
