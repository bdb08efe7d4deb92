"""Wall-clock observability (obs): sinks, metrics, traces, logs.

The obs package is the shared observability substrate of the pipeline,
the bench runner and the serving path (simulated time is
:mod:`repro.telemetry`'s):

* :mod:`repro.obs.sinks` — observation sinks (span recorders, remark
  emitters, trace rows), :func:`~repro.obs.sinks.collecting`, which
  installs them, and wall-clock :func:`~repro.obs.sinks.span`;
* :mod:`repro.obs.metrics` — a labeled metrics registry (counters,
  gauges, fixed-bucket histograms) with dual exposition: the JSON
  snapshot ``repro serve`` has always answered on ``GET /metrics``,
  plus the Prometheus text format on ``/metrics?format=prometheus``.
  Also home of the shared ceil-based nearest-rank percentile.
* :mod:`repro.obs.trace` — request IDs minted at admission and the
  bounded per-request trace buffer, whose records merge the server's
  and the pool worker's span records into one cross-process span
  tree.
* :mod:`repro.obs.logs` — structured access/event logging
  (``repro-serve-log-v1``), one line per request, ``json`` or
  ``text``.
* :mod:`repro.obs.top` — the live terminal dashboard behind
  ``repro top``, rendered from ``/metrics`` JSON snapshots.

Everything here is observational: attaching metrics, traces, or logs
never changes a simulation result byte (``tests/test_obs.py`` and the
serve identity tests enforce it).  See docs/OBSERVABILITY.md for the
metric catalogue, trace semantics, and log schema.
"""

from .metrics import (Counter, Gauge, Histogram, Registry,  # noqa: F401
                      nearest_rank)
from .trace import TraceBuffer, new_request_id  # noqa: F401
