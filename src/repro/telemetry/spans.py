"""Span-based tracing of the pipeline and the service.

Where :mod:`repro.telemetry.timeline` watches *simulated* time, the
span recorder watches *wall-clock* time: frontend compiles, each
optimization pass (the same measurement the ``PassExecuted`` remark
reports), trace-JIT compiles, run-cache probes, bench-runner jobs, and
every stage of a ``repro serve`` request.  The records feed the Chrome
trace-event export (:mod:`repro.telemetry.perfetto`), the serve stage
histograms and the ``repro bench --obs-out`` metrics.

The active recorder lives in a :class:`~contextvars.ContextVar`, like
the remark emitter's (:mod:`repro.remarks.emitter`): instrumentation
sites call :func:`span` / :func:`instant` unconditionally and pay
nothing unless :func:`recording` installed a recorder.  Scopes nest,
and each thread and asyncio task sees only the recorder its own
context installed, so concurrent requests never record into each
other's trees.  Spans are recorded in completion order (a parent
closes after its children), which is deterministic for a deterministic
pipeline; only the wall-clock timestamps vary run to run, and the
export's canonical form zeroes them.

A forked worker's records come back to the recorder its caller
installed: ``run_specs`` merges them spec by spec, and serve workers
ship theirs over the pool pipe (:mod:`repro.obs.trace`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar

_RECORDER: ContextVar["SpanRecorder | None"] = ContextVar(
    "repro_span_recorder", default=None)


class SpanRecorder:
    """Append-only list of span/instant records with a private epoch.

    Timestamps are integer microseconds since the recorder was
    created, so a single recorder's records share one timebase.
    """

    def __init__(self):
        #: ``time.perf_counter()`` at creation — the zero of this
        #: recorder's timeline (serve places a shared job's records on
        #: each waiter's timeline by the difference of two epochs).
        self.epoch = time.perf_counter()
        self.records: list[dict] = []

    def now_us(self) -> int:
        """Microseconds since this recorder's epoch."""
        return int((time.perf_counter() - self.epoch) * 1e6)

    def add_span(self, category: str, name: str, start_us: int,
                 dur_us: int, args: dict | None = None) -> None:
        """Record a completed span (used directly when the caller
        already measured the duration, e.g. the pass manager reusing
        the ``PassExecuted`` wall time)."""
        self.records.append({
            "type": "span", "category": category, "name": name,
            "start_us": int(start_us), "dur_us": max(0, int(dur_us)),
            "args": dict(args or {})})

    def add_instant(self, category: str, name: str,
                    args: dict | None = None) -> None:
        """Record a zero-duration event at the current time."""
        self.records.append({
            "type": "instant", "category": category, "name": name,
            "ts_us": self.now_us(), "args": dict(args or {})})

    def spans(self, category: str | None = None) -> list[dict]:
        """The recorded spans, optionally filtered by category."""
        return [r for r in self.records if r["type"] == "span"
                and (category is None or r["category"] == category)]

    def snapshot(self) -> dict:
        """JSON-safe export of the recorded pipeline (wire format).

        ``repro serve`` returns this on ``include=spans``; args are
        stringified where needed so the snapshot always serialises.
        """
        def safe(value):
            if isinstance(value, (bool, int, float, str)) or value is None:
                return value
            return repr(value)

        records = [dict(r, args={k: safe(v) for k, v in r["args"].items()})
                   for r in self.records]
        return {"schema": "repro-spans-v1", "records": records}


def active_recorder() -> SpanRecorder | None:
    """The innermost recorder this context installed, or ``None``."""
    return _RECORDER.get()


@contextmanager
def recording(recorder: SpanRecorder):
    """Install ``recorder`` as the active span sink for the block."""
    token = _RECORDER.set(recorder)
    try:
        yield recorder
    finally:
        _RECORDER.reset(token)


@contextmanager
def span(category: str, name: str, **args):
    """Record a wall-clock span around the block (no-op when no
    recorder is active).

    Yields a dict the block may fill with result arguments (e.g. a
    cache probe setting ``hit``); they merge into ``args`` at close.
    """
    extra: dict = {}
    recorder = _RECORDER.get()
    if recorder is None:
        yield extra
        return
    start = recorder.now_us()
    try:
        yield extra
    finally:
        args.update(extra)
        recorder.add_span(category, name, start,
                          recorder.now_us() - start, args)


def instant(category: str, name: str, **args) -> None:
    """Record an instant event (no-op when no recorder is active)."""
    recorder = _RECORDER.get()
    if recorder is not None:
        recorder.add_instant(category, name, args)
