#!/usr/bin/env python
"""Serve-correctness gate: a concurrent burst against ``repro serve``.

Drives hundreds of concurrent requests (default 1000 requests at
concurrency 500) with a *duplicate-heavy* mix — a small set of unique
jobs repeated many times, the AMC-style evolving-workload setting where
most traffic re-asks slightly-stale questions — and checks two
properties:

1. **Correctness**: every request is answered 200, and every answer's
   ``result`` section is byte-identical (canonical JSON) to the same
   run performed directly through
   :func:`repro.bench.runner.run_variant`, i.e. exactly what ``repro
   bench`` computes;
2. **Sharing**: the duplicate mix must produce coalesce hits and CAS
   (content-addressed result store) hits, > 0 each — many clients, one
   simulation substrate.

Prints one PASS or FAIL line, writes no file, and exits non-zero on
any transport or HTTP error, mismatch, or missing sharing.  With
``--spawn`` the harness starts its own ``repro serve`` subprocess on a
free port and tears it down after.  Serve latency and throughput are
measured by the ``serve`` workload of ``perf/``, not here.

Usage::

    PYTHONPATH=src python tools/load_test.py --spawn --small
    PYTHONPATH=src python tools/load_test.py --host H --port P \
        --requests 1000 --concurrency 500 --unique 10
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.serve.client import AsyncClient, get_metrics  # noqa: E402


def canonical(value) -> str:
    """Canonical JSON form used for byte-identity comparison."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def build_mix(unique: int, total: int, small: bool,
              seed: int = 20170204) -> tuple[list[dict], list[int]]:
    """A duplicate-heavy request mix.

    Returns ``(unique_requests, schedule)`` where ``schedule`` is a
    shuffled list of indices into ``unique_requests`` of length
    ``total``.  The unique set cycles machines × workloads × recipes,
    where each workload's ``auto`` job comes at two look-aheads next to
    each other.  The two share their traces' code, so the look-ahead-2
    job runs on code compiled for the look-ahead-64 one in
    :func:`direct_results`, and in a worker that served that one first.
    """
    workloads = ["is", "cg", "ra", "hj2", "hj8"]
    recipes = [("auto", 64), ("auto", 2), ("plain", 64)]
    machines = ["Haswell", "A53"]
    pool = []
    for machine in machines:
        for workload in workloads:
            for variant, lookahead in recipes:
                pool.append({
                    "schema": "repro-serve-request-v1",
                    "kind": "simulate", "workload": workload,
                    "small": small, "variant": variant,
                    "machine": machine, "lookahead": lookahead,
                    "validate": True, "tier": "auto", "include": []})
    uniques = pool[:max(1, min(unique, len(pool)))]
    rng = random.Random(seed)
    schedule = [i % len(uniques) for i in range(total)]
    rng.shuffle(schedule)
    return uniques, schedule


def direct_results(uniques: list[dict]) -> list[str]:
    """Canonical result JSON per unique request, via the direct bench
    path (``run_variant`` — the same call ``repro bench`` makes)."""
    import dataclasses

    from repro.bench.runner import run_variant
    from repro.machine.configs import system_by_name
    from repro.passes.prefetch import PrefetchOptions
    from repro.workloads import workload_by_name

    expected = []
    for req in uniques:
        workload = workload_by_name(req["workload"],
                                    small=req["small"])
        machine = system_by_name(req["machine"])
        options = PrefetchOptions(lookahead=req["lookahead"])
        result = run_variant(workload, req["variant"], machine,
                             lookahead=req["lookahead"],
                             options=options, validate=True,
                             cache=False)
        expected.append(canonical(dataclasses.asdict(result)))
    return expected


async def run_load(host: str, port: int, uniques: list[dict],
                   schedule: list[int], expected: list[str],
                   concurrency: int) -> tuple[int, list[str], list[str]]:
    """Fire the schedule at the server; returns ``(ok, errors,
    mismatches)``: the 200 answers, and one line per failed request."""
    semaphore = asyncio.Semaphore(concurrency)
    mismatches: list[str] = []
    errors: list[str] = []
    ok = 0

    async def one(index: int, which: int) -> None:
        nonlocal ok
        async with semaphore:
            client = AsyncClient(host, port)
            try:
                status, body = await client.submit(uniques[which])
            except Exception as exc:
                errors.append(f"request {index}: "
                              f"{type(exc).__name__}: {exc}")
                return
            finally:
                await client.close()
            if status != 200:
                errors.append(f"request {index}: HTTP {status}: "
                              f"{body.get('error', body)}")
                return
            ok += 1
            got = canonical(body.get("result"))
            if got != expected[which]:
                mismatches.append(
                    f"request {index} (unique {which}): served result "
                    f"differs from direct run_variant")

    await asyncio.gather(*(one(i, which)
                           for i, which in enumerate(schedule)))
    return ok, errors, mismatches


def spawn_server(workers: int | None, store_dir: str) -> tuple:
    """Start ``repro serve`` on a free port; returns (proc, host, port)."""
    cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
           "--cache-dir", store_dir]
    if workers:
        cmd += ["--workers", str(workers)]
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(Path(__file__).resolve().parent.parent
                             / "src")
                         + os.pathsep + env.get("PYTHONPATH", ""))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=env)
    line = proc.stdout.readline()
    # "repro serve listening on 127.0.0.1:PORT (...)"
    try:
        address = line.split("listening on ")[1].split()[0]
        host, port = address.rsplit(":", 1)
        return proc, host, int(port)
    except (IndexError, ValueError):
        proc.terminate()
        raise SystemExit(f"could not parse server banner: {line!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8787)
    parser.add_argument("--spawn", action="store_true",
                        help="start a repro serve subprocess on a free "
                             "port for the duration of the test")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for --spawn")
    parser.add_argument("--requests", type=int, default=1000)
    parser.add_argument("--concurrency", type=int, default=500)
    parser.add_argument("--unique", type=int, default=10,
                        help="distinct jobs in the mix (duplicate-"
                             "heavy: requests >> unique)")
    parser.add_argument("--small", action="store_true",
                        help="scaled-down workloads (CI sizes)")
    args = parser.parse_args()

    uniques, schedule = build_mix(args.unique, args.requests,
                                  args.small)
    print(f"load_test: {len(uniques)} unique jobs × "
          f"{args.requests} requests at concurrency "
          f"{args.concurrency}")
    print("load_test: computing direct reference results "
          "(run_variant, no cache)...")
    expected = direct_results(uniques)

    proc = None
    host, port = args.host, args.port
    store_dir = None
    if args.spawn:
        import tempfile
        store_dir = tempfile.mkdtemp(prefix="repro-serve-cas-")
        proc, host, port = spawn_server(args.workers, store_dir)
        print(f"load_test: spawned repro serve on {host}:{port} "
              f"(store {store_dir})")
    try:
        ok, errors, mismatches = asyncio.run(run_load(
            host, port, uniques, schedule, expected, args.concurrency))
        metrics = get_metrics(host, port)
    finally:
        if proc is not None:
            proc.terminate()
            proc.wait(timeout=10)
            shutil.rmtree(store_dir, ignore_errors=True)

    coalesce_hits = metrics["coalesce_hits"]
    cas_hits = metrics["cas"]["hits"]
    failures = []
    if errors:
        failures.append(f"{len(errors)} transport/HTTP errors "
                        f"(first: {errors[0]})")
    if mismatches:
        failures.append(f"{len(mismatches)} result mismatches vs direct "
                        f"run_variant (first: {mismatches[0]})")
    if ok != args.requests:
        failures.append(f"only {ok}/{args.requests} requests got 200")
    if coalesce_hits <= 0:
        failures.append("coalesce hits == 0 on a duplicate-heavy mix")
    if cas_hits <= 0:
        failures.append("CAS hits == 0 on a duplicate-heavy mix")
    if failures:
        print(f"load_test: FAIL — {'; '.join(failures)}",
              file=sys.stderr)
        return 1
    print(f"load_test: PASS — {ok} requests, 0 mismatches, "
          f"coalesce {coalesce_hits}, CAS {cas_hits}")
    return 0

if __name__ == "__main__":
    sys.exit(main())
