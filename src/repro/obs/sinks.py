"""Observation sinks: the one way a span, a remark or a trace row
reaches whoever asked for it.

A sink is any object with an append-only ``records`` list: the
wall-clock :class:`SpanRecorder` below,
:class:`~repro.remarks.RemarkEmitter` and
:class:`~repro.bench.runner.TraceRows`.  One context variable maps each
sink type to its sink: :func:`collecting` installs sinks for a block
(scopes nest), :func:`active` reads one, and :func:`installed` all of
them — what a forked ``run_specs`` worker hands back, keyed by class
(so sink classes live at module level, where they pickle by
reference).  Each thread and asyncio task sees only the sinks its own
context installed.  Instrumentation sites call :func:`span`,
:func:`instant` or :func:`repro.remarks.emit` unconditionally and pay
one lookup when no sink of their type is installed.

Spans watch *wall-clock* time (:mod:`repro.telemetry` watches
simulated time): frontend compiles, each optimization pass (the
``PassExecuted`` remark's measurement), trace-JIT compiles, run-cache
probes, bench jobs, and every stage of a ``repro serve`` request.  They
are recorded in completion order (a parent closes after its children),
which is deterministic; only the timestamps vary, and the canonical
form of the Perfetto export (:mod:`repro.telemetry.perfetto`) zeroes
them.  Serve workers ship their records over the pool pipe
(:mod:`repro.obs.trace`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar

#: Sink type -> the innermost sink of that type this context
#: installed.  Never mutated: :func:`collecting` sets a new dict.
_SINKS: ContextVar[dict[type, object]] = ContextVar("repro_sinks",
                                                    default={})


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


def active(kind: type):
    """The innermost sink of type ``kind`` this context installed, or
    ``None``."""
    return _SINKS.get().get(kind)


def installed() -> dict[type, object]:
    """Every sink this context installed, keyed by type (read only)."""
    return _SINKS.get()


@contextmanager
def collecting(*sinks):
    """Install ``sinks`` for the block, each for its own type; yields
    the first (``None`` for none)."""
    token = _SINKS.set({**_SINKS.get(),
                        **{type(sink): sink for sink in sinks}})
    try:
        yield sinks[0] if sinks else None
    finally:
        _SINKS.reset(token)


def span(category: str, name: str, **args):
    """Record a wall-clock span around the block (no-op when no
    recorder is active: a ``nullcontext``, not a generator).

    Yields a dict the block may fill with result arguments (e.g. a
    cache probe setting ``hit``); they merge into ``args`` at close.
    """
    recorder = _SINKS.get().get(SpanRecorder)
    if recorder is None:
        return nullcontext({})
    return _recorded(recorder, category, name, args)


@contextmanager
def _recorded(recorder: SpanRecorder, category: str, name: str,
              args: dict):
    """:func:`span` with ``recorder`` installed."""
    extra: dict = {}
    start = recorder.now_us()
    try:
        yield extra
    finally:
        args.update(extra)
        recorder.add_span(category, name, start,
                          recorder.now_us() - start, args)


def instant(category: str, name: str, **args) -> None:
    """Record an instant event (no-op when no recorder is active)."""
    recorder = _SINKS.get().get(SpanRecorder)
    if recorder is not None:
        recorder.add_instant(category, name, args)
