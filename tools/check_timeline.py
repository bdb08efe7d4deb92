#!/usr/bin/env python
"""Schema and determinism gate for the flight-recorder trace export.

Runs ``repro timeline`` over the quick suite in-process — twice,
independently, with the run cache off — and asserts the flight
recorder's contract:

* every run carries a ``repro-timeline-v1`` snapshot whose windows are
  contiguous on the simulated-cycle axis and whose per-window deltas
  sum to the run totals;
* the assembled Chrome trace-event document is structurally valid
  (``repro-timeline-trace-v1``: every event has ``ph``/``pid``/
  ``name``, counters and window spans on the simulation pid, wall
  spans on the pipeline pid);
* two independent runs produce byte-identical traces under
  :func:`repro.telemetry.perfetto.canonical_json` (wall-clock
  timestamps zeroed; everything else must already be deterministic).

With ``--artifact FILE`` it additionally validates a trace written by
``repro timeline --perfetto`` (as CI does) against the same structural
rules.

Usage::

    PYTHONPATH=src python tools/check_timeline.py
    PYTHONPATH=src python tools/check_timeline.py --artifact trace.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: Trace-event phases the exporter is allowed to emit.
_ALLOWED_PHASES = {"M", "X", "C", "i"}


def collect_trace(small: bool = True, window: int = 5_000) -> dict:
    """One full timeline pass over the quick suite: rows + spans →
    trace document (run cache off, serial, spans recorded)."""
    from repro.machine import HASWELL
    from repro.telemetry.perfetto import build_trace
    from repro.telemetry.report import timeline_rows
    from repro.telemetry.spans import SpanRecorder, recording
    from repro.workloads import paper_benchmarks

    workloads = paper_benchmarks(small=small)
    recorder = SpanRecorder()
    with recording(recorder):
        rows = timeline_rows(workloads, HASWELL, variant="auto",
                             window=window, cache=False)
    for row in rows:
        check_snapshot(row["workload"], row["timeline"], row["cycles"],
                       row["instructions"])
    return build_trace(rows, recorder,
                       meta={"machine": HASWELL.name, "variant": "auto"})


def check_snapshot(name: str, snapshot: dict | None, cycles: float,
                   instructions: int) -> None:
    """Validate one run's ``repro-timeline-v1`` snapshot."""
    assert snapshot, f"{name}: run carried no timeline snapshot"
    assert snapshot["schema"] == "repro-timeline-v1", (
        f"{name}: unexpected snapshot schema {snapshot['schema']!r}")
    windows = snapshot["windows"]
    assert windows, f"{name}: no windows recorded"
    prev_end = 0.0
    d_cycles = 0.0
    d_instr = 0
    for w in windows:
        assert w["start_cycle"] == prev_end, (
            f"{name}: window {w['index']} starts at {w['start_cycle']}"
            f", previous ended at {prev_end}")
        prev_end = w["end_cycle"]
        d_cycles += w["cycles"]
        d_instr += w["instructions"]
        for level, stats in w["levels"].items():
            assert stats["misses"] >= 0 and stats["hits"] >= 0, (
                f"{name}: negative delta in {level}")
    assert d_cycles == prev_end, (
        f"{name}: window cycle deltas sum to {d_cycles}, "
        f"last edge is {prev_end}")
    assert abs(d_cycles - cycles) < 1e-9, (
        f"{name}: windows cover {d_cycles} cycles, run took {cycles}")
    assert d_instr == instructions, (
        f"{name}: windows cover {d_instr} instructions, "
        f"run executed {instructions}")
    totals = snapshot["totals"]
    assert totals["windows"] == len(windows)


def check_trace(trace: dict) -> dict[str, int]:
    """Validate trace-document structure; returns per-phase counts."""
    from repro.telemetry.perfetto import (PIPELINE_PID, SIM_PID,
                                          TRACE_SCHEMA)

    schema = trace.get("otherData", {}).get("schema")
    assert schema == TRACE_SCHEMA, (
        f"unexpected trace schema {schema!r}")
    events = trace.get("traceEvents")
    assert isinstance(events, list) and events, "no traceEvents"
    counts: dict[str, int] = {}
    for event in events:
        ph = event.get("ph")
        assert ph in _ALLOWED_PHASES, f"unknown phase {ph!r}: {event}"
        assert event.get("pid") in (SIM_PID, PIPELINE_PID), (
            f"unknown pid: {event}")
        assert isinstance(event.get("name"), str) and event["name"], (
            f"unnamed event: {event}")
        if ph in ("X", "C", "i"):
            assert isinstance(event.get("ts"), (int, float)), (
                f"missing ts: {event}")
            assert isinstance(event.get("args"), dict), (
                f"missing args: {event}")
        if ph == "C":
            assert event["pid"] == SIM_PID, (
                f"counter off the simulation pid: {event}")
        if ph == "i":
            assert event["pid"] == PIPELINE_PID, (
                f"instant off the pipeline pid: {event}")
        counts[ph] = counts.get(ph, 0) + 1
    assert counts.get("C", 0) > 0, "no counter events"
    assert counts.get("X", 0) > 0, "no span events"
    return counts


def check_artifact(path: str) -> None:
    """Validate a ``repro timeline --perfetto`` artifact file."""
    with open(path) as handle:
        trace = json.load(handle)
    counts = check_trace(trace)
    total = sum(counts.values())
    print(f"  artifact {path}: {total} events ok "
          f"({', '.join(f'{k}={v}' for k, v in sorted(counts.items()))})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--artifact", metavar="FILE",
                        help="also validate a --perfetto JSON file")
    parser.add_argument("--full", action="store_true",
                        help="full-size workloads (default: quick)")
    args = parser.parse_args(argv)

    from repro.telemetry.perfetto import canonical_json

    first = collect_trace(small=not args.full)
    counts = check_trace(first)
    print(f"  trace: {sum(counts.values())} events "
          f"({', '.join(f'{k}={v}' for k, v in sorted(counts.items()))})")
    second = collect_trace(small=not args.full)
    if canonical_json(first) != canonical_json(second):
        print("FAIL: two independent timeline passes differ under "
              "canonicalization", file=sys.stderr)
        return 1
    print("  determinism: two passes byte-identical (canonical form)")
    if args.artifact:
        check_artifact(args.artifact)
    print("ok: timeline trace checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
