"""Simulated-time observability: prefetch outcomes, cycle accounting
and the flight recorder.

The telemetry subsystem classifies every software prefetch the compiler
pass emits — from the cycle it is issued to the first demand access that
touches (or fails to touch) the prefetched line — and attributes demand
latency to the hierarchy level that served it, so experiments can report
*why* a prefetching scheme won or lost (accuracy, timeliness, coverage;
the paper's §6 analysis and Fig. 8 overhead discussion).

Telemetry is **observational only**: attaching a collector never changes
a single simulated cycle.  It is off by default (see
:class:`~repro.envcfg.SimOptions`) because classification needs the
hierarchy walk; enabling it keeps compiled traces from inlining their
L1 hit probe for that run and routes every access through the
instrumented walk, which the equivalence suite proves bit-identical.

Everything here is simulated time; wall-clock spans live in
:mod:`repro.obs.sinks`.

Layout:

* :mod:`repro.telemetry.outcomes` — the outcome taxonomy;
* :mod:`repro.telemetry.collector` — :class:`TelemetryCollector`, the
  bounded event ring and aggregation tables;
* :mod:`repro.telemetry.timeline` — the flight recorder's windowed
  time-series sampler;
* :mod:`repro.telemetry.perfetto` — Chrome trace-event export of
  timelines and spans;
* :mod:`repro.telemetry.report` — prefetch-effectiveness and timeline
  reports over the benchmark suite (imported on demand; it pulls in
  the bench harness).
"""

from .collector import (DEFAULT_RING_CAPACITY, TelemetryCollector,
                        resolve_collector)
from .outcomes import (DROPPED, EARLY, LATE, OUTCOMES, REDUNDANT, TIMELY,
                       UNUSED)
from .timeline import (DEFAULT_SAMPLE_EVERY, DEFAULT_WINDOW_CYCLES,
                       TimelineRecorder, resolve_timeline)

__all__ = [
    "TelemetryCollector", "resolve_collector", "DEFAULT_RING_CAPACITY",
    "OUTCOMES", "TIMELY", "LATE", "EARLY", "REDUNDANT", "DROPPED",
    "UNUSED",
    "TimelineRecorder", "resolve_timeline", "DEFAULT_WINDOW_CYCLES",
    "DEFAULT_SAMPLE_EVERY",
]
