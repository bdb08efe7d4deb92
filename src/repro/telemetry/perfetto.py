"""Chrome trace-event (Perfetto) export of timelines and spans.

Serialises flight-recorder data as the Trace Event Format JSON that
``chrome://tracing`` and https://ui.perfetto.dev load directly:

* **pid 1 — "simulation"**: one counter track (``ph: "C"``) per metric
  per workload, sampled at each timeline window's closing edge, with
  simulated cycles standing in for microseconds; plus one span track
  per workload whose ``X`` events are the windows themselves, so the
  phase structure is visible at a glance.
* **pid 2 — "pipeline"**: wall-clock ``X`` spans from the
  :class:`~repro.obs.sinks.SpanRecorder` (frontend, passes,
  trace-JIT compiles, cache probes, bench jobs) on one thread per
  span category, and trace-JIT ``TraceCompiled``/``TraceDeopt``
  events as instants (``ph: "i"``).

The two pids keep the two timebases (simulated cycles vs wall
microseconds) from sharing an axis.

:func:`build_request_trace` renders a second document kind — the
per-request cross-process span tree ``repro serve`` records (see
:mod:`repro.obs.trace`): server-side stage spans on pid 1, the
executing pool worker's spans on pid 2, one request id in
``otherData``.

Determinism: simulated-time events are exactly reproducible; wall-clock
events are not.  :func:`canonical_json` therefore zeroes ``ts``/``dur``
on every pipeline-pid event and serialises with sorted keys, giving a
byte-comparable form — two runs of the same workloads must produce
identical canonical traces (``tools/check_timeline.py`` gates this).
"""

from __future__ import annotations

import copy
import json

#: Trace schema tag, recorded in ``otherData``.
TRACE_SCHEMA = "repro-timeline-trace-v1"

#: Schema tag of per-request serve traces (``GET /v1/trace/<id>``).
REQUEST_TRACE_SCHEMA = "repro-request-trace-v1"

#: Synthetic process IDs: simulated-time tracks vs wall-clock tracks.
SIM_PID = 1
PIPELINE_PID = 2

#: Request-trace documents use their own pid pair: the serving process
#: vs the pool worker that executed the job.
REQUEST_SERVER_PID = 1
REQUEST_WORKER_PID = 2

#: Span categories get stable thread IDs so Perfetto groups them.
_CATEGORY_TIDS = {"bench": 1, "frontend": 2, "pass": 3, "tracejit": 5,
                  "cache": 6}
_OTHER_TID = 7


def _meta(pid: int, name: str, tid: int | None = None,
          thread_name: str | None = None) -> list[dict]:
    events = [{"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
               "args": {"name": name}}]
    if tid is not None:
        events.append({"ph": "M", "pid": pid, "tid": tid,
                       "name": "thread_name",
                       "args": {"name": thread_name or name}})
    return events


def timeline_events(label: str, timeline: dict, tid: int) -> list[dict]:
    """Counter + window-span events for one run's timeline snapshot."""
    events: list[dict] = [
        {"ph": "M", "pid": SIM_PID, "tid": tid, "name": "thread_name",
         "args": {"name": f"{label} windows"}}]
    for w in timeline.get("windows", []):
        ts = w["end_cycle"]
        events.append({
            "ph": "X", "pid": SIM_PID, "tid": tid, "cat": "window",
            "name": f"w{w['index']}", "ts": w["start_cycle"],
            "dur": w["cycles"],
            "args": {"instructions": w["instructions"],
                     "ipc": w["ipc"],
                     "mshr_high_water": w["mshr_high_water"]}})
        events.append({
            "ph": "C", "pid": SIM_PID, "tid": 0,
            "name": f"{label}: IPC", "ts": ts,
            "args": {"ipc": w["ipc"]}})
        events.append({
            "ph": "C", "pid": SIM_PID, "tid": 0,
            "name": f"{label}: stall cycles", "ts": ts,
            "args": {"issue": w["issue_cycles"],
                     "stall": w["stall_cycles"]}})
        for level, stats in w["levels"].items():
            events.append({
                "ph": "C", "pid": SIM_PID, "tid": 0,
                "name": f"{label}: {level} MPKI", "ts": ts,
                "args": {"mpki": stats["mpki"]}})
        events.append({
            "ph": "C", "pid": SIM_PID, "tid": 0,
            "name": f"{label}: TLB misses", "ts": ts,
            "args": {"misses": w["tlb_misses"]}})
        events.append({
            "ph": "C", "pid": SIM_PID, "tid": 0,
            "name": f"{label}: MSHR high-water", "ts": ts,
            "args": {"entries": w["mshr_high_water"]}})
        if w.get("outcomes"):
            events.append({
                "ph": "C", "pid": SIM_PID, "tid": 0,
                "name": f"{label}: prefetch outcomes", "ts": ts,
                "args": dict(sorted(w["outcomes"].items()))})
    return events


def record_events(records: list[dict], pid: int, tid: int | None = None,
                  offset_us: int = 0) -> list[dict]:
    """Trace events for :class:`~repro.obs.sinks.SpanRecorder`
    records (spans as ``X``, instants as ``i``) on process ``pid``,
    shifted by ``offset_us``: all on thread ``tid``, or, when ``tid`` is
    ``None``, on one named thread per span category."""
    events: list[dict] = []
    named: set[int] = set()
    for record in records:
        category = record["category"]
        thread = tid
        if thread is None:
            thread = _CATEGORY_TIDS.get(category, _OTHER_TID)
            if thread not in named:
                named.add(thread)
                events.append({
                    "ph": "M", "pid": pid, "tid": thread,
                    "name": "thread_name", "args": {"name": category}})
        if record["type"] == "span":
            events.append({
                "ph": "X", "pid": pid, "tid": thread, "cat": category,
                "name": record["name"],
                "ts": record["start_us"] + offset_us,
                "dur": record["dur_us"], "args": dict(record["args"])})
        else:
            events.append({
                "ph": "i", "s": "t", "pid": pid, "tid": thread,
                "cat": category, "name": record["name"],
                "ts": record["ts_us"] + offset_us,
                "args": dict(record["args"])})
    return events


def build_trace(rows: list[dict], recorder=None,
                meta: dict | None = None) -> dict:
    """Assemble one loadable trace document.

    :param rows: ``timeline_rows`` output — dicts with ``workload`` and
        ``timeline`` (a ``repro-timeline-v1`` snapshot or ``None``).
    :param recorder: optional span recorder for the pipeline tracks.
    :param meta: extra key/values for ``otherData`` (machine, variant).
    """
    events = _meta(SIM_PID, "simulation (ts = simulated cycles)")
    for i, row in enumerate(rows):
        if row.get("timeline"):
            events.extend(timeline_events(row["workload"],
                                          row["timeline"], tid=i + 1))
    if recorder is not None and recorder.records:
        events.extend(_meta(PIPELINE_PID, "pipeline (ts = wall µs)"))
        events.extend(record_events(recorder.records, PIPELINE_PID))
    other = {"schema": TRACE_SCHEMA, "generator": "repro timeline"}
    other.update(meta or {})
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": other}


def build_request_trace(record: dict) -> dict:
    """One serve request as a loadable Chrome trace-event document.

    ``record`` is a ``repro-request-trace-v1`` entry from the server's
    trace buffer (see :mod:`repro.obs.trace`).  The document crosses
    the process boundary under one request id:

    * **pid 1 — "server"**: tid 1 carries the waiter's stage spans
      (admission, CAS probe, job wait); tid 2 carries the
      shared job's spans (queue, worker round-trip, CAS store),
      anchored at the job's start offset within the waiter's timeline
      (coalesced waiters that joined after the job started anchor at
      0).
    * **pid 2 — "worker"**: the worker-process SpanRecorder records —
      frontend compile, per-pass spans, trace-JIT compile spans and
      instants, bench build/prepare/simulate/validate — anchored
      where the job's queue span ends (accurate to one pipe send).

    All timestamps are wall microseconds from the waiter's admission.
    """
    events = _meta(REQUEST_SERVER_PID, "server (repro serve)",
                   tid=1, thread_name="request")
    events.extend(record_events(record.get("server_spans", []),
                                REQUEST_SERVER_PID, tid=1))
    job = record.get("job")
    if job:
        job_offset = int(job.get("start_offset_us", 0))
        events.extend(_meta(REQUEST_SERVER_PID, "server (repro serve)",
                            tid=2, thread_name="job")[1:])
        events.extend(record_events(job.get("spans", []),
                                    REQUEST_SERVER_PID, tid=2,
                                    offset_us=job_offset))
        worker_spans = job.get("worker_spans") or []
        if worker_spans:
            worker_name = (f"worker {job.get('worker', '?')} "
                           f"(pid {job.get('pid', '?')})")
            events.extend(_meta(REQUEST_WORKER_PID, worker_name,
                                tid=1, thread_name="execute"))
            anchor = job_offset + int(job.get("worker_anchor_us", 0))
            events.extend(record_events(worker_spans,
                                        REQUEST_WORKER_PID, tid=1,
                                        offset_us=anchor))
    other = {"schema": REQUEST_TRACE_SCHEMA,
             "generator": "repro serve",
             "request_id": record.get("request_id"),
             "outcome": record.get("outcome"),
             "status": record.get("status"),
             "workload": record.get("workload"),
             "tier": record.get("tier")}
    if record.get("key"):
        other["key"] = record["key"]
    if job:
        other["job_request_id"] = job.get("request_id")
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": other}


def canonical_json(trace: dict) -> str:
    """Byte-comparable form of a trace: wall-clock timestamps zeroed
    (pipeline pid only — simulated-time events must already be
    deterministic), keys sorted, compact separators."""
    trace = copy.deepcopy(trace)
    for event in trace.get("traceEvents", []):
        if event.get("pid") == PIPELINE_PID:
            if "ts" in event:
                event["ts"] = 0
            if "dur" in event:
                event["dur"] = 0
    return json.dumps(trace, sort_keys=True, separators=(",", ":"))
