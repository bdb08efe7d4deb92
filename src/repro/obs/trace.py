"""Request IDs and cross-process request traces.

Every HTTP exchange gets a **request ID** minted at admission
(:func:`new_request_id`, 16 hex chars from the OS entropy pool).  For
job submissions the ID keys a bounded :class:`TraceBuffer` entry — a
``repro-request-trace-v1`` record merging three
:class:`~repro.obs.sinks.SpanRecorder` record lists:

* the *waiter's* server-side stage spans (admission, CAS probe, the
  wait for the shared job), recorded under
  :func:`~repro.obs.sinks.collecting` in the waiter's own task;
* the *job's* spans, shared by every coalesced waiter: queue wait,
  worker round-trip and CAS store on the server side; and
* the worker process's spans (frontend compile, per-pass,
  trace-JIT compiles, bench build/simulate/validate), carried back
  across the pool pipe.

Coalesced waiters therefore **share one job span tree but keep
distinct request ids** — N trace records can point at the same job
section, whose ``request_id`` names the admitting owner.

``GET /v1/trace/<request_id>`` serves the record rendered as a Chrome
trace-event document (:func:`repro.telemetry.perfetto.
build_request_trace`); ``repro submit --trace-out FILE`` fetches and
writes it in one step.

Timebase note: server spans count microseconds from the waiter's
request start; worker spans count from the worker's execution start.
The Perfetto export anchors the worker track at the job's queue-exit
offset, which is accurate to within one pipe send — good enough to see
where a request spent its time, which is the point.
"""

from __future__ import annotations

import binascii
import os
from collections import OrderedDict

TRACE_SCHEMA = "repro-request-trace-v1"

#: Default trace-buffer capacity (overridable via ``repro serve
#: --trace-buffer``).
DEFAULT_CAPACITY = 256


def new_request_id() -> str:
    """A fresh 16-hex-char request ID (64 bits of OS entropy)."""
    return binascii.hexlify(os.urandom(8)).decode()


def make_record(request_id: str, *, key: str | None, kind: str,
                workload: str, tier: str, status: int, outcome: str,
                server_spans: list[dict],
                job: dict | None) -> dict:
    """Assemble one ``repro-request-trace-v1`` record."""
    return {"schema": TRACE_SCHEMA, "request_id": request_id,
            "key": key, "kind": kind, "workload": workload,
            "tier": tier, "status": int(status), "outcome": outcome,
            "server_spans": list(server_spans),
            "job": job}


class TraceBuffer:
    """Bounded request-id → trace-record map (LRU by insertion).

    Event-loop only; capacity bounds memory no matter the traffic —
    old requests age out, exactly like a flight recorder.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = max(1, int(capacity))
        self._records: OrderedDict[str, dict] = OrderedDict()

    def put(self, record: dict) -> None:
        request_id = record["request_id"]
        self._records[request_id] = record
        self._records.move_to_end(request_id)
        while len(self._records) > self.capacity:
            self._records.popitem(last=False)

    def get(self, request_id: str) -> dict | None:
        return self._records.get(request_id)

    def __len__(self) -> int:
        return len(self._records)
